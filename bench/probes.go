package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/des"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/projections"
	"charmgo/internal/pup"
	"charmgo/internal/tram"
)

// Layer probes time direct calls into one layer's public API, in shapes
// taken from the workloads. They do not depend on --workload, so every
// traced run reports them; all wall-clock reads stay here in driver code,
// never in a handler or a commit closure.

var probeDefs = []metricDef{
	{"des.hold_ns", "ns", "lower"},
	{"des.hold_wide_ns", "ns", "lower"},
	{"des.heap_hold_ns", "ns", "lower"},
	{"des.cancel_ns", "ns", "lower"},
	{"des.hold_allocs", "1/op", "lower"},
	{"des.noop_event_ns", "ns", "lower"},
	{"parsim.noop_event_ns", "ns", "lower"},
	{"optsim.noop_event_ns", "ns", "lower"},
	{"charm.msg_ns", "ns", "lower"},
	{"charm.msg_allocs", "1/msg", "lower"},
	{"charm.msg_par_ns", "ns", "lower"},
	{"charm.msg_opt_ns", "ns", "lower"},
	{"charm.bcast_ns_per_elem", "ns", "lower"},
	{"charm.reduce_ns_per_elem", "ns", "lower"},
	{"charm.forward_ns", "ns", "lower"},
	{"charm.migrate_ns_per_obj", "ns", "lower"},
	{"charm.insert_ns_per_elem", "ns", "lower"},
	{"charm.metg50_us", "us", "lower"},
	{"pup.pack_mb_s", "MB/s", "higher"},
	{"pup.unpack_mb_s", "MB/s", "higher"},
	{"pup.pack_small_ns", "ns", "lower"},
	{"pup.unpack_small_ns", "ns", "lower"},
	{"pup.size_small_ns", "ns", "lower"},
	{"lb.greedy_ns_per_obj", "ns", "lower"},
	{"lb.refine_ns_per_obj", "ns", "lower"},
	{"lb.hybrid_ns_per_obj", "ns", "lower"},
	{"lb.distributed_ns_per_obj", "ns", "lower"},
	{"lb.commaware_ns_per_obj", "ns", "lower"},
	{"lb.orb_ns_per_obj", "ns", "lower"},
	{"lb.lbview_ns_per_obj", "ns", "lower"},
	{"ckpt.capture_mb_s", "MB/s", "higher"},
	{"ckpt.restore_mb_s", "MB/s", "higher"},
	{"ckpt.mem_checkpoint_ms", "ms", "lower"},
	{"ckpt.snapshot_mb", "MB", "lower"},
	{"projections.analyze_s", "s", "lower"},
	{"projections.export_mb_s", "MB/s", "higher"},
	{"tram.submit_ns", "ns", "lower"},
	{"machine.transmit_ns", "ns", "lower"},
	{"machine.new_64k_s", "s", "lower"},
}

// The time left to the traced pass, less fixedCost for the fixtures and
// the single-shot probes, is split over timedSections: about 45 calibrated
// sections, each of which spends roughly twice its target on the way to an
// operation count that lasts long enough.
const (
	timedSections = 90
	fixedCost     = 1500 * time.Millisecond
)

// prober carries the per-section time target.
type prober struct {
	d       time.Duration
	workers int
	seed    int64
	smoke   bool
}

// stopwatch times a stretch of driver code and counts the mallocs made in
// it. It is a value to start and stop, not a helper taking a func(), on
// purpose: charmvet resolves indirect calls by signature, so a func()
// callback here would alias the runtime's func() hooks and commit closures
// in its call graph (see the note in cmd/parsimbench/main.go).
type stopwatch struct {
	t0      time.Time
	mallocs uint64
}

func start() stopwatch {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return stopwatch{t0: time.Now(), mallocs: m.Mallocs}
}

func (s stopwatch) stop() (time.Duration, uint64) {
	d := time.Since(s.t0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return d, m.Mallocs - s.mallocs
}

// shortest keeps the shortest of the times offered to it: the usual
// estimate of a single-shot cost under scheduling noise. Single-shot probes
// run three times.
type shortest struct {
	d   time.Duration
	set bool
}

func (s *shortest) offer(sw stopwatch) {
	if d, _ := sw.stop(); !s.set || d < s.d {
		s.d, s.set = d, true
	}
}

const shots = 3

// perOp calls run with a growing operation count until one call's timed
// part lasts at least p.d, and returns that call's nanoseconds and mallocs
// per operation. run returns the time and mallocs of the part it wants
// measured and the number of operations that part performed.
func (p prober) perOp(start int, run func(n int) (time.Duration, uint64, int)) (ns, allocs float64) {
	n := start
	for {
		d, mallocs, ops := run(n)
		if d >= p.d || n >= 1<<30 {
			return float64(d.Nanoseconds()) / float64(ops), float64(mallocs) / float64(ops)
		}
		grow := 2.0
		if d > 0 {
			grow = math.Min(100, math.Max(2, 1.2*float64(p.d)/float64(d)))
		}
		n = int(float64(n) * grow)
	}
}

func layerProbes(pl map[string]float64, seed int64, smoke bool, workers int, left time.Duration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	d := (left - fixedCost) / timedSections
	if floor := 5 * time.Millisecond; d < floor {
		d = floor
	}
	if smoke {
		d = time.Millisecond
	}
	p := prober{d: d, workers: workers, seed: seed, smoke: smoke}
	for _, group := range []func(map[string]float64) error{
		p.desProbes, p.engineProbes, p.charmProbes, p.metg, p.pupProbes,
		p.leanmdFixtureProbes, p.ckptProbes, p.tramProbe, p.machineProbes,
	} {
		runtime.GC() // each group starts from a collected heap
		if err := group(pl); err != nil {
			return err
		}
	}
	return nil
}

// ---- des: the hold model ----

// holdModel is the classic priority-queue benchmark: a fixed population of
// pending events, each of which, when it fires, schedules one successor a
// random increment ahead.
type holdModel struct {
	eng  des.Engine
	left int
	rng  uint64
	fire des.CommitFn
}

// step is a uniform increment in (0, 2 µs), the workloads' event spacing.
func (h *holdModel) step() des.Time {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return des.Time(float64(h.rng>>11) / (1 << 53) * 2e-6)
}

func (h *holdModel) onFire(_ any, shard int64, at des.Time) {
	h.left--
	if h.left <= 0 {
		h.eng.Stop()
		return
	}
	h.eng.AtShardCommit(int(shard), at+h.step(), h.fire, nil, shard)
}

func hold(eng des.Engine, pending, n int) (time.Duration, uint64, int) {
	h := &holdModel{eng: eng, left: n, rng: 0x9E3779B97F4A7C15}
	h.fire = h.onFire
	for i := 0; i < pending; i++ {
		eng.AtShardCommit(i%16, h.step(), h.fire, nil, int64(i%16))
	}
	sw := start()
	eng.Run()
	d, mallocs := sw.stop()
	return d, mallocs, n
}

func (p prober) desProbes(pl map[string]float64) error {
	const narrow, wide = 4 << 10, 256 << 10
	pl["des.hold_ns"], pl["des.hold_allocs"] = p.perOp(1<<14, func(n int) (time.Duration, uint64, int) {
		return hold(des.NewEngine(), narrow, n)
	})
	wideN := wide
	if p.smoke {
		wideN = 16 << 10
	}
	pl["des.hold_wide_ns"], _ = p.perOp(1<<14, func(n int) (time.Duration, uint64, int) {
		return hold(des.NewEngine(), wideN, n)
	})
	pl["des.heap_hold_ns"], _ = p.perOp(1<<14, func(n int) (time.Duration, uint64, int) {
		return hold(des.NewHeapEngine(), narrow, n)
	})
	pl["des.cancel_ns"], _ = p.perOp(1<<14, func(n int) (time.Duration, uint64, int) {
		eng := des.NewEngine()
		h := &holdModel{eng: eng, rng: 1}
		h.fire = h.onFire
		for i := 0; i < narrow; i++ {
			eng.AtShardCommit(i%16, 1+h.step(), h.fire, nil, int64(i%16))
		}
		sw := start()
		for i := 0; i < n; i++ {
			eng.Cancel(eng.AtShardCommit(i%16, 1+h.step(), h.fire, nil, int64(i%16)))
		}
		d, mallocs := sw.stop()
		return d, mallocs, n
	})
	return nil
}

// ---- engines: the no-op two-phase program ----

// noopShard is one shard's chain of empty two-phase events: the phase
// records its timestamp in shard-local state and returns the shard's
// preallocated commit, which schedules the successor.
type noopShard struct {
	id     int
	at     des.Time
	left   int
	eng    des.Engine
	phase  des.PhaseFn
	commit func()
}

func (s *noopShard) onPhase(_ any, _ int64, at des.Time) func() {
	s.at = at
	return s.commit
}

func (s *noopShard) onCommit() {
	s.left--
	if s.left > 0 {
		s.eng.AtShardFn(s.id, s.at+1e-6, s.phase, nil, 0)
	}
}

const noopShards = 16

// noop runs n empty events spread over 16 shards on a fresh engine of the
// named backend. Shards are staggered by 10 ns and step by 1 µs, inside
// the 2 µs lookahead, so the parallel engines may launch all 16 at once.
func (p prober) noop(backend string, n int) (time.Duration, uint64, int) {
	mc := machine.Testbed(noopShards)
	mc.Backend, mc.ParallelWorkers = backend, p.workers
	eng := charm.New(machine.New(mc)).Engine()
	per := n/noopShards + 1
	for i := 0; i < noopShards; i++ {
		s := &noopShard{id: i, left: per, eng: eng}
		s.phase, s.commit = s.onPhase, s.onCommit
		eng.AtShardFn(i, des.Time(i)*1e-8, s.phase, nil, 0)
	}
	sw := start()
	eng.Run()
	d, mallocs := sw.stop()
	return d, mallocs, per * noopShards
}

func (p prober) engineProbes(pl map[string]float64) error {
	for _, b := range []struct{ metric, backend string }{
		{"des.noop_event_ns", "sequential"},
		{"parsim.noop_event_ns", "parallel"},
		{"optsim.noop_event_ns", "optimistic"},
	} {
		backend := b.backend
		pl[b.metric], _ = p.perOp(1<<12, func(n int) (time.Duration, uint64, int) { return p.noop(backend, n) })
	}
	return nil
}

// ---- charm: an empty-handler ring ----

// ringObj is an element of the probe ring: it forwards Left tokens to Next.
type ringObj struct {
	Next, Left int
}

func (r *ringObj) Pup(p *pup.Pup) {
	p.Int(&r.Next)
	p.Int(&r.Left)
}

const (
	epRingStart charm.EP = iota // payload int: tokens each element forwards
	epRingToken
	epRingNoop
	epRingReduce // payload int: reductions every element contributes to
)

// ring is a chare array of n elements placed round-robin on the PEs of a
// Testbed, with the probes' entry methods.
type ring struct {
	rt      *charm.Runtime
	arr     *charm.Array
	n       int
	reduced int // reductions delivered to their callback
}

func newRing(backend string, workers, pes, n int) *ring {
	mc := machine.Testbed(pes)
	mc.Backend, mc.ParallelWorkers = backend, workers
	r := &ring{rt: charm.New(machine.New(mc)), n: n}
	r.arr = r.rt.DeclareArray("ring", func() charm.Chare { return &ringObj{} },
		[]charm.Handler{epRingStart: r.onStart, epRingToken: r.onToken, epRingNoop: r.onNoop, epRingReduce: r.onReduce},
		charm.ArrayOpts{Migratable: true, PureHandlers: true, Bounds: []int{n}})
	for i := 0; i < n; i++ {
		r.arr.InsertOn(charm.Idx1(i), &ringObj{Next: (i + 1) % n}, i%pes)
	}
	return r
}

func (r *ring) onStart(obj charm.Chare, ctx *charm.Ctx, msg any) {
	o := obj.(*ringObj)
	o.Left = msg.(int)
	ctx.Send(r.arr, charm.Idx1(o.Next), epRingToken, nil)
}

func (r *ring) onToken(obj charm.Chare, ctx *charm.Ctx, _ any) {
	o := obj.(*ringObj)
	o.Left--
	if o.Left > 0 {
		ctx.Send(r.arr, charm.Idx1(o.Next), epRingToken, nil)
	}
}

func (r *ring) onNoop(charm.Chare, *charm.Ctx, any) {}

// onReduce contributes to as many sum reductions in a row as the payload
// says; every element does, so that many reductions complete.
func (r *ring) onReduce(_ charm.Chare, ctx *charm.Ctx, msg any) {
	for i := msg.(int); i > 0; i-- {
		ctx.Contribute(int64(1), charm.SumI64, charm.CallbackFunc(0, r.onReduced))
	}
}

func (r *ring) onReduced(*charm.Ctx, any) { r.reduced++ }

// circulate has every element forward hops tokens and returns the wall
// time and mallocs of the run and the messages delivered.
func (r *ring) circulate(hops int) (time.Duration, uint64, int) {
	before := r.rt.Stats.MsgsDelivered
	r.arr.Broadcast(epRingStart, hops)
	sw := start()
	r.rt.Run()
	d, mallocs := sw.stop()
	return d, mallocs, int(r.rt.Stats.MsgsDelivered - before)
}

const ringPEs, ringElems = 64, 256

func (p prober) charmProbes(pl map[string]float64) error {
	for _, b := range []struct{ metric, backend string }{
		{"charm.msg_ns", "sequential"},
		{"charm.msg_par_ns", "parallel"},
		{"charm.msg_opt_ns", "optimistic"},
	} {
		backend := b.backend
		ns, allocs := p.perOp(8, func(hops int) (time.Duration, uint64, int) {
			return newRing(backend, p.workers, ringPEs, ringElems).circulate(hops)
		})
		pl[b.metric] = ns
		if backend == "sequential" {
			pl["charm.msg_allocs"] = allocs
		}
	}

	// k driver-side broadcasts to an empty entry method.
	pl["charm.bcast_ns_per_elem"], _ = p.perOp(4, func(k int) (time.Duration, uint64, int) {
		r := newRing("sequential", p.workers, ringPEs, ringElems)
		for i := 0; i < k; i++ {
			r.arr.Broadcast(epRingNoop, nil)
		}
		sw := start()
		r.rt.Run()
		d, mallocs := sw.stop()
		return d, mallocs, k * ringElems
	})
	// One broadcast after which every element contributes to k reductions.
	pl["charm.reduce_ns_per_elem"], _ = p.perOp(4, func(k int) (time.Duration, uint64, int) {
		r := newRing("sequential", p.workers, ringPEs, ringElems)
		r.arr.Broadcast(epRingReduce, k)
		sw := start()
		r.rt.Run()
		d, mallocs := sw.stop()
		if r.reduced != k {
			panic(fmt.Sprintf("%d of %d reductions completed", r.reduced, k))
		}
		return d, mallocs, k * ringElems
	})

	p.migrateForward(pl)

	pl["charm.insert_ns_per_elem"], _ = p.perOp(1<<10, func(n int) (time.Duration, uint64, int) {
		mc := machine.Testbed(1 << 10)
		rt := charm.New(machine.New(mc))
		arr := rt.DeclareArray("ins", func() charm.Chare { return &ringObj{} },
			[]charm.Handler{func(charm.Chare, *charm.Ctx, any) {}}, charm.ArrayOpts{Bounds: []int{n}})
		sw := start()
		for i := 0; i < n; i++ {
			arr.Insert(charm.Idx1(i), &ringObj{})
		}
		d, mallocs := sw.stop()
		return d, mallocs, n
	})
	return nil
}

// migrateForward cycles a 1024-element ring through: move every odd
// element to another PE (timed: migration through PUP), one token per
// element while the location caches are stale (timed: forwarded sends), and
// the same tokens again with warm caches (timed: direct sends). forward_ns
// is the extra cost of a send that had to be forwarded. Moving the whole
// ring by one offset would keep every cached neighbour location right, so
// each odd element gets its own pseudo-random offset.
func (p prober) migrateForward(pl map[string]float64) {
	const elems = 1024
	r := newRing("sequential", p.workers, ringPEs, elems)
	r.circulate(1) // fill the location caches
	var migrate, stale, warm time.Duration
	var moved, forwarded int
	migs := make([]charm.Migration, 0, elems/2)
	for cycle := 0; migrate+stale+warm < 3*p.d || cycle < 2; cycle++ {
		migs = migs[:0]
		for i := 1; i < elems; i += 2 {
			idx := charm.Idx1(i)
			to := (r.arr.PEOf(idx) + 1 + (i*7+cycle*13)%(ringPEs-1)) % ringPEs
			migs = append(migs, charm.Migration{Array: r.arr, Idx: idx, ToPE: to})
		}
		sw := start()
		n, _ := r.rt.ApplyMigrations(migs)
		moved += n
		d, _ := sw.stop()
		migrate += d
		before := r.rt.Stats.MsgsForwarded
		d, _, _ = r.circulate(1)
		stale += d
		forwarded += int(r.rt.Stats.MsgsForwarded - before)
		d, _, _ = r.circulate(1)
		warm += d
	}
	if moved > 0 {
		pl["charm.migrate_ns_per_obj"] = float64(migrate.Nanoseconds()) / float64(moved)
	}
	if forwarded > 0 {
		pl["charm.forward_ns"] = math.Max(0, float64((stale-warm).Nanoseconds())/float64(forwarded))
	}
}

// ---- charm: METG(50%) ----

// taskObj is one column of a 1-D stencil task graph (Task Bench's stencil
// pattern): at every step it waits for both neighbours' messages, spins
// for a fixed iteration count, and sends to both neighbours.
type taskObj struct {
	I, Step    int
	Got, Early int
	Sink       uint64
}

func (t *taskObj) Pup(p *pup.Pup) {
	p.Int(&t.I)
	p.Int(&t.Step)
	p.Int(&t.Got)
	p.Int(&t.Early)
	p.Uint64(&t.Sink)
}

// spin is the task kernel: iters dependent integer steps.
func spin(x uint64, iters int) uint64 {
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

type taskGraph struct {
	rt           *charm.Runtime
	arr          *charm.Array
	width, steps int
	iters        int
}

// parity payloads: small ints box without allocating.
var parity = [2]any{0, 1}

const (
	epTaskStart charm.EP = iota
	epTaskMsg
)

func (g *taskGraph) send(t *taskObj, ctx *charm.Ctx) {
	m := parity[t.Step&1]
	ctx.Send(g.arr, charm.Idx1((t.I+g.width-1)%g.width), epTaskMsg, m)
	ctx.Send(g.arr, charm.Idx1((t.I+1)%g.width), epTaskMsg, m)
}

func (g *taskGraph) onStart(obj charm.Chare, ctx *charm.Ctx, _ any) { g.send(obj.(*taskObj), ctx) }

func (g *taskGraph) onMsg(obj charm.Chare, ctx *charm.Ctx, msg any) {
	t := obj.(*taskObj)
	if msg.(int) == t.Step&1 {
		t.Got++
	} else {
		t.Early++ // a neighbour is at most one step ahead
	}
	for t.Got == 2 && t.Step < g.steps {
		t.Sink = spin(t.Sink|1, g.iters)
		t.Step++
		t.Got, t.Early = t.Early, 0
		if t.Step < g.steps {
			g.send(t, ctx)
		}
	}
}

func runTaskGraph(width, steps, iters int) time.Duration {
	g := &taskGraph{rt: charm.New(machine.New(machine.Testbed(16))), width: width, steps: steps, iters: iters}
	g.arr = g.rt.DeclareArray("tasks", func() charm.Chare { return &taskObj{} },
		[]charm.Handler{epTaskStart: g.onStart, epTaskMsg: g.onMsg},
		charm.ArrayOpts{PureHandlers: true, Bounds: []int{width}})
	for i := 0; i < width; i++ {
		g.arr.InsertOn(charm.Idx1(i), &taskObj{I: i}, i%16)
	}
	g.arr.Broadcast(epTaskStart, nil)
	sw := start()
	g.rt.Run()
	d, _ := sw.stop()
	return d
}

var spinSink uint64

// metg reports Task Bench's METG(50%) on the sequential backend: the
// smallest task grain at which tasks × grain / wall is still at least one
// half, from a sweep of six grains between 0.25 µs and 64 µs, interpolated
// in log grain between the two sweep points that bracket one half.
func (p prober) metg(pl map[string]float64) error {
	const width = 64
	// Calibrate the kernel outside any handler: ns per spin iteration.
	nsPerIter, _ := p.perOp(1<<16, func(n int) (time.Duration, uint64, int) {
		sw := start()
		spinSink += spin(spinSink|1, n)
		d, m := sw.stop()
		return d, m, n
	})
	grains := []float64{250, 758, 2297, 6964, 21112, 64000} // ns, ×3.03 apart
	prevG, prevE := 0.0, 0.0
	metg := grains[len(grains)-1]
	for _, g := range grains {
		iters := int(g/nsPerIter + 0.5)
		if iters < 1 {
			iters = 1
		}
		grain := float64(iters) * nsPerIter
		// Assume ~3 µs of runtime per task to size the run to about 2·p.d.
		steps := int(2*float64(p.d.Nanoseconds())/(width*(grain+3000))) + 2
		wall := runTaskGraph(width, steps, iters)
		eff := float64(width*steps) * grain / float64(wall.Nanoseconds())
		if eff >= 0.5 {
			metg = grain
			if prevG > 0 && eff > prevE {
				f := (0.5 - prevE) / (eff - prevE)
				metg = math.Exp(math.Log(prevG) + f*(math.Log(grain)-math.Log(prevG)))
			}
			break
		}
		prevG, prevE = grain, eff
	}
	pl["charm.metg50_us"] = metg / 1000
	return nil
}

// ---- pup ----

type floatBlock struct{ V []float64 }

func (b *floatBlock) Pup(p *pup.Pup) { p.Float64s(&b.V) }

// atomCell has the shape of a 27-atom LeanMD cell.
type atomCell struct {
	I, J, K, Step int
	Xs, Vs, Fs    []float64
}

func (c *atomCell) Pup(p *pup.Pup) {
	p.Int(&c.I)
	p.Int(&c.J)
	p.Int(&c.K)
	p.Int(&c.Step)
	p.Float64s(&c.Xs)
	p.Float64s(&c.Vs)
	p.Float64s(&c.Fs)
}

func (p prober) pupProbes(pl map[string]float64) error {
	block := &floatBlock{V: make([]float64, 64<<10)} // 512 KiB
	for i := range block.V {
		block.V[i] = float64(i)
	}
	cell := &atomCell{Xs: make([]float64, 81), Vs: make([]float64, 81), Fs: make([]float64, 81)}
	mbPerS := func(bytes int, ns float64) float64 { return float64(bytes) / mb / (ns / 1e9) }

	var buf []byte
	ns, _ := p.perOp(16, func(n int) (time.Duration, uint64, int) {
		sw := start()
		for i := 0; i < n; i++ {
			buf = pup.PackTo(buf, block)
		}
		d, m := sw.stop()
		return d, m, n
	})
	pl["pup.pack_mb_s"] = mbPerS(len(buf), ns)
	packed := append([]byte(nil), buf...)
	ns, _ = p.perOp(16, func(n int) (time.Duration, uint64, int) {
		var into floatBlock
		sw := start()
		for i := 0; i < n; i++ {
			if err := pup.Unpack(packed, &into); err != nil {
				panic(err)
			}
		}
		d, m := sw.stop()
		return d, m, n
	})
	pl["pup.unpack_mb_s"] = mbPerS(len(packed), ns)

	pl["pup.pack_small_ns"], _ = p.perOp(1<<10, func(n int) (time.Duration, uint64, int) {
		sw := start()
		for i := 0; i < n; i++ {
			buf = pup.PackTo(buf, cell)
		}
		d, m := sw.stop()
		return d, m, n
	})
	small := append([]byte(nil), buf...)
	pl["pup.unpack_small_ns"], _ = p.perOp(1<<10, func(n int) (time.Duration, uint64, int) {
		var into atomCell
		sw := start()
		for i := 0; i < n; i++ {
			if err := pup.Unpack(small, &into); err != nil {
				panic(err)
			}
		}
		d, m := sw.stop()
		return d, m, n
	})
	pl["pup.size_small_ns"], _ = p.perOp(1<<10, func(n int) (time.Duration, uint64, int) {
		total := 0
		sw := start()
		for i := 0; i < n; i++ {
			total += pup.Size(cell)
		}
		d, m := sw.stop()
		if total != n*len(small) {
			panic("pup.Size disagrees with the packed length")
		}
		return d, m, n
	})
	return nil
}

// ---- lb and projections, on a traced LeanMD fixture ----

// countingWriter counts the bytes an exporter produces and drops them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) { c.n += int64(len(b)); return len(b), nil }

var _ io.Writer = (*countingWriter)(nil)

// leanmdFixtureProbes runs two traced steps of the leanmd_lbft molecular
// system without balancing, so the LB database holds two steps of measured
// load. It times the trace analyses and the Perfetto export on the
// recorded log, drops the log, and then times LBView and every strategy's
// Balance on that view.
func (p prober) leanmdFixtureProbes(pl map[string]float64) error {
	sp := leanMD(true)(p.seed, p.smoke)
	rt := charm.New(machine.New(machine.Vesta(sp.PEs)))
	tr := projections.Attach(rt, projections.Options{})
	if _, err := leanmd.Run(rt, leanmd.Config{CellsX: sp.Cells, CellsY: sp.Cells, CellsZ: sp.Cells,
		AtomsPerCell: sp.AtomsPerCell, Gaussian: sp.Gaussian, Steps: 2, MigratePeriod: sp.MigratePeriod,
		PerInteractionWork: sp.PerInteractionWork, Seed: p.seed}); err != nil {
		return fmt.Errorf("leanmd fixture: %w", err)
	}
	tr.Detach()
	var events []projections.Event
	var analyze, export shortest
	var cw countingWriter
	for i := 0; i < shots; i++ {
		sw := start()
		events = tr.Events()
		projections.Profile(events)
		projections.MessageLatency(events)
		projections.ComputeCriticalPath(events)
		analyze.offer(sw)
		cw.n = 0
		sw = start()
		if err := projections.WritePerfetto(&cw, events); err != nil {
			return fmt.Errorf("perfetto export: %w", err)
		}
		export.offer(sw)
	}
	pl["projections.analyze_s"] = analyze.d.Seconds()
	pl["projections.export_mb_s"] = float64(cw.n) / mb / export.d.Seconds()
	tr, events = nil, nil
	runtime.GC() // the rings are garbage now; collect them before timing lb

	objs, pes := rt.LBView()
	if len(objs) == 0 {
		return fmt.Errorf("leanmd fixture: empty LB view")
	}
	perObj := float64(len(objs))
	ns, _ := p.perOp(1, func(n int) (time.Duration, uint64, int) {
		sw := start()
		for i := 0; i < n; i++ {
			rt.LBView()
		}
		d, m := sw.stop()
		return d, m, n
	})
	pl["lb.lbview_ns_per_obj"] = ns / perObj
	scratch := make([]charm.LBObject, len(objs))
	for _, s := range []struct {
		metric   string
		strategy charm.Strategy
	}{
		{"lb.greedy_ns_per_obj", lb.Greedy{}},
		{"lb.refine_ns_per_obj", lb.Refine{}},
		{"lb.hybrid_ns_per_obj", lb.Hybrid{}},
		{"lb.distributed_ns_per_obj", lb.Distributed{Seed: p.seed}},
		{"lb.commaware_ns_per_obj", lb.CommAware{}},
		{"lb.orb_ns_per_obj", lb.ORB{}},
	} {
		strategy := s.strategy
		ns, _ := p.perOp(1, func(n int) (time.Duration, uint64, int) {
			sw := start()
			for i := 0; i < n; i++ {
				copy(scratch, objs) // a strategy may reorder its input
				strategy.Balance(scratch, pes)
			}
			d, m := sw.stop()
			return d, m, n
		})
		pl[s.metric] = ns / perObj
	}
	return nil
}

// ---- ckpt ----

// blobWorld is a runtime holding one array of float blocks: count blocks
// of floats values each. fill false declares the array but leaves it
// empty, which is what ckpt.Restore expects.
func blobWorld(count, floats int, fill bool) *charm.Runtime {
	rt := charm.New(machine.New(machine.Testbed(64)))
	arr := rt.DeclareArray("blobs", func() charm.Chare { return &floatBlock{} },
		[]charm.Handler{func(charm.Chare, *charm.Ctx, any) {}}, charm.ArrayOpts{Bounds: []int{count}})
	for i := 0; fill && i < count; i++ {
		arr.Insert(charm.Idx1(i), &floatBlock{V: make([]float64, floats)})
	}
	return rt
}

// ckptProbes checkpoints two shapes: 256 blocks of 128 KiB (Stencil2D's
// few large blocks) and 4096 objects of 2 KiB (LeanMD's many small ones).
func (p prober) ckptProbes(pl map[string]float64) error {
	shapes := [][2]int{{256, 16 << 10}, {4096, 256}}
	if p.smoke {
		shapes = [][2]int{{16, 16 << 10}, {256, 256}}
	}
	var captureS, restoreS float64
	var bytes int64
	for _, sh := range shapes {
		src := blobWorld(sh[0], sh[1], true)
		var capture, restore shortest
		var snap *ckpt.Snapshot
		for i := 0; i < shots; i++ {
			sw := start()
			snap = ckpt.Capture(src)
			capture.offer(sw)
			dst := blobWorld(sh[0], sh[1], false)
			sw = start()
			if err := ckpt.Restore(dst, snap); err != nil {
				return err
			}
			restore.offer(sw)
		}
		bytes += snap.TotalBytes()
		captureS += capture.d.Seconds()
		restoreS += restore.d.Seconds()
	}
	pl["ckpt.snapshot_mb"] = float64(bytes) / mb
	pl["ckpt.capture_mb_s"] = float64(bytes) / mb / captureS
	pl["ckpt.restore_mb_s"] = float64(bytes) / mb / restoreS
	small := shapes[1]
	mem := ckpt.NewMem(blobWorld(small[0], small[1], true))
	var checkpoint shortest
	for i := 0; i < shots; i++ {
		sw := start()
		mem.Checkpoint()
		checkpoint.offer(sw)
	}
	pl["ckpt.mem_checkpoint_ms"] = checkpoint.d.Seconds() * 1e3
	return nil
}

// ---- tram ----

type tramProbe struct {
	arr    *charm.Array
	client *tram.Client
	elems  int
	items  int // per element
}

func (t *tramProbe) onGo(obj charm.Chare, ctx *charm.Ctx, _ any) {
	o := obj.(*ringObj)
	x := uint64(o.Next)*0x9E3779B97F4A7C15 + 1
	for i := 0; i < t.items; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t.client.Submit(ctx, charm.Idx1(int(x%uint64(t.elems))), nil)
	}
	t.client.FlushAll(ctx)
}

func (p prober) tramProbe(pl map[string]float64) error {
	pl["tram.submit_ns"], _ = p.perOp(4, func(items int) (time.Duration, uint64, int) {
		t := &tramProbe{elems: ringElems, items: items}
		rt := charm.New(machine.New(machine.Testbed(ringPEs)))
		t.arr = rt.DeclareArray("tramsink", func() charm.Chare { return &ringObj{} },
			[]charm.Handler{t.onGo, func(charm.Chare, *charm.Ctx, any) {}}, charm.ArrayOpts{Bounds: []int{t.elems}})
		for i := 0; i < t.elems; i++ {
			t.arr.InsertOn(charm.Idx1(i), &ringObj{Next: i}, i%ringPEs)
		}
		t.client = tram.New(rt, t.arr, 1, tram.Options{})
		t.arr.Broadcast(0, nil)
		sw := start()
		rt.Run()
		d, m := sw.stop()
		return d, m, int(t.client.Stats.ItemsSubmitted)
	})
	return nil
}

// ---- machine ----

var transmitSink des.Time

func (p prober) machineProbes(pl map[string]float64) error {
	m := machine.New(machine.Testbed(ringPEs))
	pl["machine.transmit_ns"], _ = p.perOp(1<<12, func(n int) (time.Duration, uint64, int) {
		sw := start()
		for i := 0; i < n; i++ {
			transmitSink += m.Transmit(i%ringPEs, (i*7+1)%ringPEs, 1024, des.Time(i)*1e-6)
		}
		d, mallocs := sw.stop()
		return d, mallocs, n
	})
	var build shortest
	for i := 0; i < shots; i++ {
		sw := start()
		machine.New(machine.Testbed(64 << 10))
		build.offer(sw)
	}
	pl["machine.new_64k_s"] = build.d.Seconds()
	return nil
}
