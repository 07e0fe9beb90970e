// Package parsim is the parallel execution backend for the virtual machine:
// a des.Engine that runs event *phases* early — on helper goroutines when
// they are long enough to be worth a cross-core handoff — while committing
// their global effects in the exact (timestamp, sequence) order the
// sequential engine uses, so every run is bit-for-bit identical to
// internal/des.Sequential.
//
// # The windowed pipeline
//
// Pending events live in the same des.Calendar the sequential engine drains,
// and a single driving goroutine pops and commits them strictly in calendar
// order. A sharded event's body is split by the runtime into a phase (reads
// and writes only its shard's state, buffers everything else) and a commit
// closure (applies the buffered global effects). Before every pop the driver
// compares each shard's earliest pending event — its cached candidate,
// replaced only when a push or pop can have changed it — against the window
// [top, top+W) opened by the calendar head, and *launches* it when it lies
// inside, is not the head itself (the driver runs that inline), is not a
// commit-only body, and does not follow the earliest pending global event.
// At most one phase per shard is ever launched, so the launched body, its
// claim state and its result live in one reusable record per shard:
// helpers never touch the slab, and the steady-state schedule → launch →
// pop → commit cycle allocates nothing. A shard's pending events are held
// exactly, the candidate and a min-heap of the rest: the calendar head is
// always its shard's candidate, so a pop replaces it from the heap's top,
// and an entry carries whether its body has a phase, so neither finding nor
// classifying a candidate reads the slab. The pass before a pop visits only
// the shards whose cached candidate is launchable — a bitmask kept exact
// wherever that flips — so its cost follows the live shards, not the shard
// count, and it still visits them in ascending shard order. The pop then
// proceeds exactly like the sequential engine: set the clock, run the
// commit (first finishing the phase if nobody has) or, for events never
// launched, the whole body inline.
// A phase the driver runs at its own pop — inline, or launched and never
// posted — is in commit position, since nothing runs between it and its
// commit: AtPop tells its body so, and the runtime then applies its effects
// directly instead of buffering them, as on the sequential engine.
// A global event may touch every shard; the launch rule and the straggler
// check below guarantee it pops with nothing launched.
//
// A launched phase is its shard's earliest event, phases of distinct
// shards touch disjoint state, and shard state is otherwise mutated only by
// that shard's own commits — so the one way an early phase can be wrong is a
// *straggler*: a new event arriving in its past. Every scheduling entry
// point checks for one.
//
// # Who runs a launched phase
//
// Launching is a deterministic decision; *posting* is placement, and the
// grain gate decides it. The driver times every grainSampleEvery-th phase
// it runs itself and keeps a moving average; while that average is below
// handoffCostNs — a phase cheaper than moving it to another core and back —
// the gate is shut and a launch only records the candidate's key in the
// shard's flight. Such an unposted flight is run by the driver at its pop,
// straight from the popped event, exactly like an inline event: no copy, no
// atomic and no wake. Two things need an unposted phase's result before its
// pop, and run it from the slab where it still sits: a rollback and
// conservative run exit.
//
// While the gate is open a launch posts the phase: it copies the event into
// the flight, and an atomic state on the record goes posted → running →
// done; whoever moves it to running by compare-and-swap executes the phase.
// A flight launched while the gate was shut stays unposted when it opens:
// at most one phase per shard misses the overlap, once per flip. The driver claims a still-posted phase itself the moment it needs the
// result, so the worst case is the one-executor path, never a wait for
// somebody to get scheduled. Helper goroutines (at most Options.Workers,
// started on demand, gone when Run returns) claim posted phases from the
// far end — latest timestamp first, the ones the driver needs last — and
// park when there is nothing to take.
//
// The gate is the one place the engine reads a clock, and the reading
// decides only *placement*: which phases are launched, the counters in
// Stats, the commit order and every Controller, sink and probe call are the
// same whichever goroutine runs a phase, or whether it was ever posted, so
// runs stay bit-identical across hosts, worker counts and timing.
// HandoffStats reports the timing-dependent side.
//
// # Two modes
//
// Conservative (no Controller): W is pinned to the machine's lookahead — the
// minimum cross-shard latency, the α of the α–β network model — which proves
// no straggler can exist: cross-shard messages land at least α later, hence
// outside the window. A straggler is therefore a protocol violation and
// panics loudly rather than diverging. Stop and RunUntil finish every
// launched phase before returning and leave the commits cached on their
// shards; they apply when a later Run pops the event.
//
// Optimistic (a Controller is installed): Time Warp. W is unbounded, so
// shards speculate arbitrarily far past the head, and a straggler rolls the
// affected shard back: the engine finishes the phase (running it first if
// it was unposted or still only posted, so the Controller always sees a
// phase that ran), discards its withheld commit closure, and asks the Controller to
// undo the phase's shard-local mutations. Every globally visible effect of
// a phase is buffered in the commit closure, which never ran, so undoing a
// speculation needs no anti-messages; the event stays scheduled and runs
// again at or before its pop. Commits are serialized on the driver, so the
// Global Virtual Time is exact — the last popped timestamp — and fossil
// collection is eager: CommitSpec releases a shard's undo state the moment
// its speculation pops. Run and RunUntil roll back whatever is still
// launched before returning, so post-run machine state is the sequential
// engine's.
//
// The modes differ in exactly five places, each keyed on "controller
// present": the window source, the straggler response, the Controller and
// speculation sink/probe callbacks, run exit, and the gauge family
// RegisterMetrics registers.
//
// # Discipline
//
// Phase functions must not call back into the engine — the runtime's context
// buffering guarantees this for all runtime paths — unless AtPop reports
// their shard at its pop: such a phase is in commit position. Commits may
// schedule freely.
package parsim

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"charmgo/internal/des"
	"charmgo/internal/projections/metrics"
)

// Options configures an engine.
type Options struct {
	// Shards is the number of shards (virtual nodes). Sharded events carry
	// ids in [0, Shards); anything else panics at scheduling.
	Shards int
	// Workers caps the helper goroutines running phases beside the driver;
	// 0 means GOMAXPROCS.
	Workers int
	// Lookahead is the conservative launch window: the minimum virtual
	// latency of any cross-shard interaction (the machine's α). Zero
	// disables early launches (every event runs inline — correct but
	// serial). Ignored in optimistic mode.
	Lookahead des.Time
	// Controller, when non-nil, selects optimistic mode and undoes
	// misspeculated phases.
	Controller Controller
}

// Controller undoes speculative phase execution (charm's speculation
// controller implements it). All three methods are called from the driving
// goroutine. BeginSpec(s) runs at launch, before the phase is posted
// (whoever claims it observes BeginSpec's writes through the claim's atomic
// edge); CommitSpec(s) runs after the speculated event's commit closure at
// its pop; RollbackSpec(s) runs after the phase has finished, when a
// straggler invalidated it.
type Controller interface {
	BeginSpec(shard int)
	CommitSpec(shard int)
	RollbackSpec(shard int)
}

// The claim states of a flight. The driver posts; whoever swaps posted for
// running owns the record until it stores done. The stores and swaps are the
// engine's only cross-goroutine edges: post publishes the event copy (and
// everything the driver did before it — the shard's previous commit,
// BeginSpec) to the claimant, done publishes the result back. An unposted
// flight never leaves phaseDone.
const (
	phaseDone    uint32 = iota // at rest: nothing posted, or its result is final
	phasePosted                // launched, not yet claimed
	phaseRunning               // claimed: the phase is executing
)

// flight is a shard's launch record: the one phase it may have launched.
// The driver fills it in before posting it and reads the result fields only
// after observing phaseDone.
type flight struct {
	state atomic.Uint32
	// postAt is ev.At's bit pattern, readable without owning the record:
	// helpers rank posted flights by it (timestamps are non-negative, so
	// the bit patterns order like the floats).
	postAt atomic.Uint64
	key    des.Ent // the launched event's calendar key (driver-only)
	active bool    // launched, not yet popped or rolled back (driver-only)
	// posted: the phase left the driver's pop — posted to the helpers, or
	// settled early — so its result is read from commit and pval (driver-only).
	posted bool
	// atPop: the phase about to run on this record is the driver's at its
	// own pop, with no speculation open (see AtPop). Written by the driver
	// only while no helper can hold the record; post clears it before its
	// state store, so a claimant reads false.
	atPop    bool
	ev       des.Event // the launched event, copied out of the slab when posted
	commit   func()    // phase result, written by the claimant
	pval     any       // captured phase panic (nil if none), re-raised at pop
	launchNs int64     // wall stamp at launch, 0 unless a probe is installed
}

// minEnt is a pending event's calendar key and whether its body has a
// phase to launch (a commit-only body or a global has none), so finding,
// replacing or classifying a candidate reads nothing from the slab.
type minEnt struct {
	des.Ent
	phase bool
}

// candidate is a shard's (or the globals') earliest pending event, kept
// outside its heap so the per-pop launch pass compares timestamps in one
// contiguous array, and a shard with one pending event — PHOLD's usual
// case — pushes and pops no heap at all.
type candidate struct {
	minEnt
	ok bool // false: nothing scheduled on this shard
}

// minHeap is a binary min-heap of minEnts in event order: with its
// candidate, exactly its shard's (or the globals') pending events. An entry
// leaves when its event pops, never lazily.
type minHeap []minEnt

func (h minHeap) less(i, j int) bool { return h[i].Before(h[j].Ent) }

func (h minHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h minHeap) down(i int) {
	for n := len(h); ; {
		l, m := 2*i+1, i
		if l < n && h.less(l, m) {
			m = l
		}
		if r := l + 1; r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (hp *minHeap) push(x minEnt) {
	*hp = append(*hp, x)
	hp.up(len(*hp) - 1)
}

// pop deletes and returns the earliest entry.
func (hp *minHeap) pop() minEnt {
	h := *hp
	x, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	h.down(0)
	*hp = h
	return x
}

const (
	// handoffCostNs is the grain gate's threshold: launches are posted to
	// helpers only while the phases the driver times average at least this
	// long. It is about twice the cost of the handoff itself — copying and
	// posting a phase, waking a parked goroutine on another core, moving the
	// shard's cache lines there and the result back — so the overlap has to
	// pay for the handoff with margin. BenchmarkHandoffGrain measures that
	// cost on a 2-vCPU host: 4 µs phases ran at 2.4–4.6 µs per event with
	// helpers taking 30–55% of them, somewhere between a 1.6× gain and
	// none, where 64 µs phases ran at 33 µs, 1.9× faster than one executor.
	handoffCostNs = 2000
	// grainCapNs saturates a sample before it is averaged in, so one phase
	// that caught a GC pause or a preemption cannot open the gate alone.
	grainCapNs = 2 * handoffCostNs
	// grainSampleEvery is how many driver-run phases pass per timed one:
	// two clock reads per 32 phases is noise even at PHOLD's 300 ns grain.
	grainSampleEvery = 32
)

// Engine is the parallel event executor. It satisfies des.Engine. Its
// methods must be called from the driving goroutine (or from an event's
// commit) — the parallelism is internal.
type Engine struct {
	cal      des.Calendar
	now      des.Time
	stopped  bool
	executed uint64

	// window is the launch reach past the calendar head, normalised: 0
	// never launches, des.Forever is unbounded.
	window  des.Time
	workers int
	ctrl    Controller // nil in conservative mode

	flights  []flight // per shard
	inFlight int      // active flights

	// cand drives the launch pass: each shard's earliest pending event,
	// plus a last entry for the pending global events; minima holds the
	// rest of each one's pending events, exactly. ready has bit q set while
	// cand[q] is launchable: a shard's candidate with a phase (not a
	// commit-only body) that is not launched already. Nil when the engine
	// can never launch.
	minima     []minHeap
	cand       []candidate
	ready      []uint64
	recomputes uint64 // candidates rebuilt after a pop (tests pin its growth)

	// Helper goroutines, alive only while Run/RunUntil executes. mu guards
	// quit and serialises parking against waking; everything else here is
	// driver-owned or atomic.
	mu        sync.Mutex
	work      sync.Cond              // helpers park here when there is nothing to take
	phaseEnd  sync.Cond              // the driver parks here, blocked on a helper-run phase
	helperWG  sync.WaitGroup         // the helpers started this run
	helpers   int                    // started this run, <= workers
	quit      bool                   // the run is over: helpers exit
	parked    atomic.Int32           // helpers inside (or entering) work.Wait
	awaiting  atomic.Pointer[flight] // the flight the driver is parked on
	gateShut  atomic.Bool            // grain below handoffCostNs: helpers stay parked
	helperRan atomic.Uint64          // phases helpers have run

	grainNs float64 // moving average of timed driver-run phases, 0 before the first
	driven  uint64  // phases the driver ran itself (the sampling clock)
	hand    HandoffStats

	stats Stats
	sink  des.TraceSink
	probe des.Probe
}

// Stats aggregates pipeline counters over the engine's lifetime. Launch and
// rollback decisions depend only on calendar state at each step — never on
// which goroutine ran a phase or when — so every counter is deterministic
// for a given workload and mode.
type Stats struct {
	Launched    uint64   // phases launched (including re-runs after rollback)
	Committed   uint64   // launched phases whose cached commit was used at pop
	RolledBack  uint64   // speculations undone by a straggler or run exit
	Inline      uint64   // sharded events run inline on the driver at pop
	Global      uint64   // global events (always inline, always with zero in flight)
	MaxInFlight int      // most concurrently launched phases observed
	MaxGVTLag   des.Time // furthest a launch ever ran ahead of the commit frontier
}

// WastedFraction is the fraction of launched phase executions whose work
// was thrown away — the Time Warp overhead metric.
func (s Stats) WastedFraction() float64 {
	if s.Launched == 0 {
		return 0
	}
	return float64(s.RolledBack) / float64(s.Launched)
}

// RollbackRatio is rollbacks per committed event — how often the optimistic
// bet lost, normalized by useful progress.
func (s Stats) RollbackRatio() float64 {
	if c := s.Committed + s.Inline + s.Global; c > 0 {
		return float64(s.RolledBack) / float64(c)
	}
	return 0
}

// EngineStats returns the pipeline counters accumulated so far.
func (e *Engine) EngineStats() Stats { return e.stats }

// HandoffStats says where the launched phases ran. Unlike Stats it depends
// on goroutine timing and the host, so it is side-band: benchmarks print it,
// nothing gates on it and it must not reach simulation state.
type HandoffStats struct {
	DriverRan uint64  `json:"driver_ran"` // launched phases the driver ran itself: unposted ones at their pop or settle, posted ones it claimed when it needed them
	HelperRan uint64  `json:"helper_ran"` // launched phases a helper ran
	Blocked   uint64  `json:"blocked"`    // times the driver needed a phase that was mid-run on a helper, and waited
	Wakes     uint64  `json:"wakes"`      // helpers started or signalled by a post
	GrainNs   float64 `json:"grain_ns"`   // the gate's estimate of a driver-run phase's duration (0: none timed yet; saturates at grainCapNs)
}

// HandoffStats returns the placement counters accumulated so far.
func (e *Engine) HandoffStats() HandoffStats {
	h := e.hand
	h.HelperRan, h.GrainNs = e.helperRan.Load(), e.grainNs
	return h
}

// New returns a parallel engine with the clock at zero.
func New(opts Options) *Engine {
	e := &Engine{
		window:  opts.Lookahead,
		workers: opts.Workers,
		ctrl:    opts.Controller,
		flights: make([]flight, max(opts.Shards, 1)),
	}
	e.cal.Init()
	e.work.L, e.phaseEnd.L = &e.mu, &e.mu
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.ctrl != nil {
		e.window = des.Forever // optimism is unbounded
	}
	if e.window > 0 && len(e.flights) > 1 { // otherwise nothing can ever overlap
		e.minima = make([]minHeap, len(e.flights)+1)
		e.cand = make([]candidate, len(e.flights)+1)
		e.ready = make([]uint64, (len(e.flights)+1+63)/64)
	}
	return e
}

// SetTraceSink installs (or, with nil, removes) the engine's phase-event
// sink. PhaseStart/PhaseDone are reported only from the driving goroutine at
// the pop of each sharded event — the same positions, in the same total
// order, as the sequential engine. Optimistic mode reports the
// speculation-pipeline kinds too.
func (e *Engine) SetTraceSink(s des.TraceSink) { e.sink = s }

// SetProbe installs (or, with nil, removes) the engine's wall-clock
// telemetry probe (internal/telemetry). Strictly side-band: nothing it
// returns influences scheduling. The zero-probe path is a nil check.
func (e *Engine) SetProbe(p des.Probe) { e.probe = p }

// RegisterMetrics exposes the engine's counters through a metrics registry,
// under the parsim.* names in conservative mode and the optsim.* names in
// optimistic mode.
func (e *Engine) RegisterMetrics(reg *metrics.Registry) {
	st := &e.stats
	count := func(name string, v *uint64) {
		reg.GaugeFunc(name, func() float64 { return float64(*v) })
	}
	if e.ctrl == nil {
		count("parsim.phases_launched", &st.Launched)
		count("parsim.phases_inline", &st.Inline)
		count("parsim.global_events", &st.Global)
		reg.GaugeFunc("parsim.max_in_flight", func() float64 { return float64(st.MaxInFlight) })
		return
	}
	count("optsim.spec_launched", &st.Launched)
	count("optsim.spec_committed", &st.Committed)
	count("optsim.spec_rolled_back", &st.RolledBack)
	count("optsim.inline_events", &st.Inline)
	count("optsim.global_events", &st.Global)
	reg.GaugeFunc("optsim.max_in_flight", func() float64 { return float64(st.MaxInFlight) })
	reg.GaugeFunc("optsim.wasted_work_fraction", func() float64 { return st.WastedFraction() })
	reg.GaugeFunc("optsim.rollback_ratio", func() float64 { return st.RollbackRatio() })
	reg.GaugeFunc("optsim.gvt", func() float64 { return float64(e.now) })
	reg.GaugeFunc("optsim.gvt_lag", func() float64 { return float64(e.reach() - e.now) })
	reg.GaugeFunc("optsim.max_gvt_lag", func() float64 { return float64(st.MaxGVTLag) })
}

// Now returns the current virtual time: the timestamp of the last popped
// event. It is also the Global Virtual Time, the commit frontier below which
// no rollback can ever occur — exact, because commits are serialized on the
// driving goroutine, rather than the estimate a distributed Time Warp must
// compute.
func (e *Engine) Now() des.Time { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.cal.Len() }

// Executed counts events that have run.
func (e *Engine) Executed() uint64 { return e.executed }

// reach returns the latest in-flight phase timestamp, or Now() when that is
// later (or nothing is in flight).
func (e *Engine) reach() des.Time {
	t := e.now
	for s := range e.flights {
		if f := &e.flights[s]; f.active && f.key.At > t {
			t = f.key.At
		}
	}
	return t
}

// straggler checks a new event at t against shard s's in-flight phase. A
// same-timestamp arrival is not a straggler: its larger sequence number
// orders it after the phase.
func (e *Engine) straggler(s int, t des.Time, from int) {
	f := &e.flights[s]
	if !f.active || t >= f.key.At {
		return
	}
	if e.ctrl == nil {
		what := "global event"
		if from >= 0 {
			what = fmt.Sprintf("shard %d event", from)
		}
		panic(fmt.Sprintf("parsim: lookahead violation: %s scheduled at t=%v before shard %d's in-flight phase at t=%v",
			what, t, s, f.key.At))
	}
	e.rollback(s)
}

// schedule files a bodiless event at t on shard (-1: global) in the
// calendar — and, when the engine can launch, in its shard's (or the
// globals') pending set — after the straggler check: a shard event against
// its own shard's flight, a global against all of them. The caller fills in
// the body; phase says whether that body will have a phase to launch.
func (e *Engine) schedule(shard int, t des.Time, phase bool) (*des.Event, des.Handle) {
	if t < e.now {
		panic(fmt.Sprintf("parsim: scheduling event at %v before now %v", t, e.now))
	}
	q := shard
	if shard >= 0 {
		e.straggler(shard, t, shard)
	} else {
		q = len(e.flights) // the globals' pending set
		for s := 0; e.inFlight > 0 && s < len(e.flights); s++ {
			e.straggler(s, t, shard)
		}
	}
	ev, k, h := e.cal.Add(t, int32(shard))
	if e.minima != nil {
		// An event that precedes the candidate replaces it, and the old one
		// joins the heap; any other goes to the heap and leaves the
		// candidate standing. (A straggler's victim has been rolled back
		// above, so its candidate is launchable again.)
		switch c := &e.cand[q]; {
		case !c.ok:
			c.Ent, c.phase, c.ok = k, phase, true
			e.markReady(q, phase)
		case k.Before(c.Ent):
			e.minima[q].push(c.minEnt)
			c.Ent, c.phase = k, phase
			e.markReady(q, phase)
		default:
			e.minima[q].push(minEnt{Ent: k, phase: phase})
		}
	}
	return ev, h
}

// checkShard panics on a shard id outside [0, Shards).
func (e *Engine) checkShard(shard int) {
	if uint(shard) >= uint(len(e.flights)) {
		panic(fmt.Sprintf("parsim: shard %d out of range [0,%d)", shard, len(e.flights)))
	}
}

// At schedules fn as a global event: it runs alone on the driver, with no
// phases in flight.
func (e *Engine) At(t des.Time, fn func()) des.Handle {
	ev, h := e.schedule(-1, t, false)
	ev.Fn = fn
	return h
}

// AtShardFn schedules a two-phase event from a preallocated PhaseFn. Its
// phase is launchable.
func (e *Engine) AtShardFn(shard int, t des.Time, fn des.PhaseFn, a any, b int64) des.Handle {
	e.checkShard(shard)
	ev, h := e.schedule(shard, t, true)
	ev.Pfn, ev.A, ev.B = fn, a, b
	return h
}

// AtShardCommit schedules a sharded event whose entire body runs at commit
// position on the driver. It participates in shard ordering (the launch
// pass will not run a later same-shard phase past it, and it is checked as
// a straggler) but is never launched: its body may touch global state,
// exactly like any commit.
func (e *Engine) AtShardCommit(shard int, t des.Time, fn des.CommitFn, a any, b int64) des.Handle {
	e.checkShard(shard)
	ev, h := e.schedule(shard, t, false)
	ev.Cfn, ev.A, ev.B = fn, a, b
	return h
}

// Stop makes Run return before the next pop. Global state stops exactly
// where the sequential engine would stop. Phases still in flight are rolled
// back in optimistic mode; in conservative mode they are finished — by the
// helper that has them, or by the driver on its way out — with their
// commits withheld, so only the in-flight shards' local state has advanced.
// Apps that Exit from solo global events (reduction and quiescence
// callbacks — the idiomatic pattern) never have phases in flight at that
// point and observe identical behaviour on every backend.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() { e.run(des.Forever) }

// RunUntil executes events with timestamps <= t, then advances the clock
// to t (if it is ahead of the last event).
func (e *Engine) RunUntil(t des.Time) {
	e.run(t)
	if e.now < t {
		e.now = t
	}
}

// run pops events up to horizon (inclusive), then settles the launched
// phases and retires the helpers, so no goroutine outlives Run/RunUntil.
func (e *Engine) run(horizon des.Time) {
	e.stopped = false
	defer e.endRun()
	for !e.stopped {
		head, ok := e.cal.Peek()
		if !ok || head.At > horizon {
			break
		}
		e.launch(head, horizon)
		e.step()
	}
}

// step pops and commits the next event in calendar order.
func (e *Engine) step() {
	var ev des.Event
	e.cal.Pop(&ev)
	e.now = ev.At // the exact GVT: nothing at or below this can roll back
	e.executed++
	shard := int(ev.Shard)

	if ev.Fn != nil {
		if e.minima != nil {
			e.popMin(len(e.flights))
		}
		// The launch rule never passes the earliest pending global, and the
		// straggler check covers globals scheduled later — so a popping
		// global always finds zero phases in flight.
		if e.inFlight > 0 {
			panic(fmt.Sprintf("parsim: internal: global event at t=%v popped with %d phases in flight", ev.At, e.inFlight))
		}
		e.stats.Global++
		ev.Fn()
		if e.probe != nil {
			e.probe.EventExecuted(shard, ev.At, e.cal.Len())
		}
		return
	}

	if e.minima != nil {
		e.popMin(shard)
	}
	f := &e.flights[shard]
	launched := f.active
	if launched && f.key.Seq != ev.Seq {
		panic("parsim: internal: shard event popped past its in-flight phase")
	}
	if e.sink != nil {
		e.sink.Phase(des.PhaseStart, shard, ev.At)
	}
	// An inline event and an unposted launch run the same way: the popped
	// event's body, here. A posted launch's result is awaited.
	var stallNs int64
	var commit func()
	switch {
	case !launched:
		e.stats.Inline++
		if ev.Cfn != nil {
			ev.Cfn(ev.A, ev.B, ev.At)
		} else {
			f.atPop = true
			commit = e.drivePhase(&ev)
		}
	case !f.posted:
		f.active = false
		e.inFlight--
		e.hand.DriverRan++
		f.atPop = e.ctrl == nil // an optimistic launch has its speculation open
		commit = e.drivePhase(&ev)
		e.stats.Committed++
	default:
		stallNs = e.await(f)
		f.active = false
		e.inFlight--
		if f.pval != nil {
			// Re-raise deterministically in pop order, not completion
			// order. No PhaseDone: the sequential engine panics out of the
			// phase body before reaching its PhaseDone too.
			panic(f.pval)
		}
		commit = f.commit
		e.stats.Committed++
	}
	if commit != nil {
		commit()
	}
	if launched && e.ctrl != nil {
		// Fossil collection: the commit frontier passed this speculation,
		// so its undo state can never be needed again.
		e.ctrl.CommitSpec(shard)
		if e.sink != nil {
			e.sink.Phase(des.SpecCommit, shard, ev.At)
		}
	}
	if e.sink != nil {
		e.sink.Phase(des.PhaseDone, shard, ev.At)
	}
	if e.probe != nil {
		if launched {
			e.probe.PhaseWall(shard, ev.At, e.probe.WallNow()-f.launchNs, stallNs, e.ctrl != nil)
		}
		e.probe.EventExecuted(shard, ev.At, e.cal.Len())
	}
}

// AtPop reports whether the phase running on shard is the driver's at its
// own pop with no speculation open: an inline event, or a conservative
// launch that was never posted. Nothing can run between such a phase and
// its commit, so it is in commit position and may apply its global effects
// directly, exactly as on the sequential engine; any other phase may run
// off its pop (on a helper, or settled ahead of it) and must buffer them.
// Call it only from inside a phase body running on shard.
func (e *Engine) AtPop(shard int) bool { return e.flights[shard].atPop }

// drivePhase runs a phase on the driving goroutine, timing every
// grainSampleEvery-th one for the grain gate. The driver always runs some
// phases — every calendar head, and every launched phase no helper took —
// so the estimate tracks the workload without a re-probe schedule.
func (e *Engine) drivePhase(ev *des.Event) func() {
	e.driven++
	if e.driven%grainSampleEvery != 0 || e.minima == nil {
		return ev.Phase()
	}
	//charmvet:wallclock (placement only: the reading decides whether launches are posted to helpers, never what is launched, committed or counted)
	t0 := time.Now()
	commit := ev.Phase()
	//charmvet:wallclock (see above)
	ns := min(float64(time.Since(t0)), grainCapNs)
	if e.grainNs == 0 {
		e.grainNs = max(ns, 1)
	} else {
		e.grainNs += (ns - e.grainNs) / 4
	}
	if shut := e.grainNs < handoffCostNs; shut != e.gateShut.Load() {
		e.gateShut.Store(shut)
	}
	return commit
}

// popMin replaces shard (or globals) q's candidate, which just popped, with
// the earliest of the rest: the pending sets are exact,
// so the calendar head is always its shard's candidate. It is the one place
// a candidate is rebuilt; pushes never need it (see schedule), so the work
// the launch pipeline does per pop follows what changed, not the shard
// count.
func (e *Engine) popMin(q int) {
	e.recomputes++
	c := &e.cand[q]
	if h := &e.minima[q]; len(*h) > 0 {
		c.minEnt = h.pop()
	} else {
		c.ok, c.phase = false, false
	}
	e.markReady(q, c.phase)
}

// markReady sets or clears candidate q's bit in the ready mask.
func (e *Engine) markReady(q int, on bool) {
	if bit := uint64(1) << (q & 63); on {
		e.ready[q>>6] |= bit
	} else {
		e.ready[q>>6] &^= bit
	}
}

// launch launches every eligible shard candidate before head pops: a ready
// one inside the window and the run horizon, not the head itself, and not
// past the earliest pending global — in ascending shard order, which is the
// order Controller and sinks see.
func (e *Engine) launch(head des.Ent, horizon des.Time) {
	if e.minima == nil || e.cal.Len() < 2 {
		return
	}
	limit := head.At + e.window
	global := &e.cand[len(e.flights)]
	for w, m := range e.ready {
		for ; m != 0; m &= m - 1 {
			s := w<<6 | bits.TrailingZeros64(m)
			c := &e.cand[s]
			if c.At >= limit || c.At > horizon || c.Seq == head.Seq {
				continue
			}
			if global.ok && global.Before(c.Ent) {
				continue
			}
			e.launchEvent(s, c)
		}
	}
	if e.probe != nil && e.ctrl == nil && e.inFlight == 0 {
		// The scan ran but nothing can overlap the coming pop: the
		// lookahead window stalled the pipeline for this step.
		e.probe.WindowStall(head.At)
	}
}

// launchEvent launches shard s's candidate into its flight record, and
// posts it if the grain gate is open; shut, the record keeps only its key.
func (e *Engine) launchEvent(s int, c *candidate) {
	e.markReady(s, false)
	f := &e.flights[s]
	f.key, f.active, f.posted = c.Ent, true, false
	if e.ctrl != nil {
		e.ctrl.BeginSpec(s)
	}
	e.inFlight++
	e.stats.Launched++
	e.stats.MaxInFlight = max(e.stats.MaxInFlight, e.inFlight)
	lag := c.At - e.now
	e.stats.MaxGVTLag = max(e.stats.MaxGVTLag, lag)
	if e.sink != nil && e.ctrl != nil {
		e.sink.Phase(des.SpecLaunch, s, c.At)
	}
	if e.probe != nil {
		f.launchNs = e.probe.WallNow()
		if e.ctrl != nil {
			e.probe.SpecLaunched(s, c.At, lag)
		}
	}
	if !e.gateShut.Load() {
		e.post(f)
	}
}

// post copies a launched flight's event out of the slab, publishes it to
// the helpers and makes sure one is awake to take it.
func (e *Engine) post(f *flight) {
	f.ev = *e.cal.Event(f.key)
	f.posted, f.atPop = true, false
	f.postAt.Store(math.Float64bits(float64(f.key.At)))
	f.state.Store(phasePosted)
	e.wakeHelper()
}

// wakeHelper gets one more helper looking for posted phases: a parked one
// if there is one, a new one if the cap allows, else nobody — every helper
// is busy and rescans when its phase ends.
func (e *Engine) wakeHelper() {
	switch {
	case e.parked.Load() > 0:
		// The post above and this load, against a parking helper's
		// parked.Add and its rescan, are the two halves of a Dekker
		// handshake: either we see it parked, or it sees the post. Taking
		// mu orders the signal after its Wait began.
		e.mu.Lock()
		e.work.Signal()
		e.mu.Unlock()
	case e.helpers < e.workers:
		e.helpers++
		e.helperWG.Add(1)
		//charmvet:parsim (helpers execute shard-disjoint phases; misspeculations are rolled back)
		go e.helper()
	default:
		return
	}
	e.hand.Wakes++
}

// runPhase executes flight f's phase from ev, capturing a panic so the
// driver can re-raise it in deterministic pop order (or discard it with the
// rest of a rolled-back speculation), and publishes the result.
func (e *Engine) runPhase(f *flight, ev *des.Event, driver bool) {
	defer func() {
		f.pval = recover()
		f.state.Store(phaseDone)
	}()
	if driver {
		f.commit = e.drivePhase(ev)
	} else {
		f.commit = ev.Phase()
	}
}

// settle finishes a launched flight's phase ahead of its pop, and reports
// the wall time the driver spent blocked on a helper. An unposted phase
// runs here, from the slab, and counts as posted from now on: its result
// waits in the record like a helper's.
func (e *Engine) settle(f *flight) int64 {
	if f.posted {
		return e.await(f)
	}
	f.posted, f.atPop = true, false
	e.hand.DriverRan++
	e.runPhase(f, e.cal.Event(f.key), true)
	return 0
}

// await returns once posted flight f's phase has finished — running it
// here if nobody has claimed it — and reports the wall time the driver spent
// blocked on a helper (0 without a probe). Running the phase itself is work,
// not stall.
func (e *Engine) await(f *flight) int64 {
	if f.state.Load() == phaseDone {
		return 0
	}
	if f.state.CompareAndSwap(phasePosted, phaseRunning) {
		e.hand.DriverRan++
		e.runPhase(f, &f.ev, true)
		return 0
	}
	e.hand.Blocked++
	var t0 int64
	if e.probe != nil {
		t0 = e.probe.WallNow()
	}
	e.mu.Lock()
	e.awaiting.Store(f) // Dekker again, against the helper's done store
	for f.state.Load() != phaseDone {
		e.phaseEnd.Wait()
	}
	e.awaiting.Store(nil)
	e.mu.Unlock()
	if e.probe != nil {
		return e.probe.WallNow() - t0
	}
	return 0
}

// rollback undoes shard s's in-flight speculation: finish the phase (so
// the controller's accounting of what a speculation touched never depends
// on whether anybody had started it), discard its withheld commit (the
// speculative sends it buffered never entered the network — dropping the
// closure is the anti-message), and let the controller restore the
// shard-local state the phase mutated. The event itself stays scheduled,
// its shard's candidate again, and runs again at or before its pop.
func (e *Engine) rollback(s int) {
	f := &e.flights[s]
	waitNs := e.settle(f)
	f.active = false
	e.inFlight--
	e.markReady(s, true)
	e.ctrl.RollbackSpec(s)
	e.stats.RolledBack++
	if e.sink != nil {
		e.sink.Phase(des.SpecRollback, s, f.key.At)
	}
	if e.probe != nil {
		e.probe.SpecRolledBack(s, f.key.At, waitNs)
	}
}

// helper claims and runs posted phases until the run ends.
func (e *Engine) helper() {
	defer e.helperWG.Done()
	for f := e.take(); f != nil; f = e.take() {
		e.runPhase(f, &f.ev, false)
		e.helperRan.Add(1)
		if e.awaiting.Load() == f {
			e.mu.Lock()
			e.phaseEnd.Signal()
			e.mu.Unlock()
		}
	}
}

// take returns a flight this helper has claimed, parking while the gate is
// shut or nothing is posted; nil means the run is over.
func (e *Engine) take() *flight {
	if f := e.claimLatest(); f != nil {
		return f
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.parked.Add(1) // before the rescan: see wakeHelper
	defer e.parked.Add(-1)
	for !e.quit {
		if f := e.claimLatest(); f != nil {
			return f
		}
		e.work.Wait()
	}
	return nil
}

// claimLatest claims the posted flight with the latest timestamp — the one
// the driver will need last — or returns nil when the gate is shut or
// nothing is posted. A lost claim race means another executor made
// progress, so the retry loop is bounded by the flights in existence.
func (e *Engine) claimLatest() *flight {
	for !e.gateShut.Load() {
		var best *flight
		var bestAt uint64
		for s := range e.flights {
			f := &e.flights[s]
			if f.state.Load() != phasePosted {
				continue
			}
			if at := f.postAt.Load(); best == nil || at > bestAt {
				best, bestAt = f, at
			}
		}
		if best == nil || best.state.CompareAndSwap(phasePosted, phaseRunning) {
			return best
		}
	}
	return nil
}

// endRun ends a run: optimistic mode rolls back every speculation still in
// flight; conservative mode settles every launched phase, running the ones
// nobody claimed or that were never posted, so what has executed at exit
// never depends on timing and the commits stay cached for the next run.
// Then the helpers exit.
func (e *Engine) endRun() {
	if e.inFlight > 0 {
		for s := range e.flights {
			if f := &e.flights[s]; !f.active {
				continue
			} else if e.ctrl != nil {
				e.rollback(s)
			} else {
				e.settle(f)
			}
		}
	}
	if e.helpers == 0 {
		return
	}
	e.mu.Lock()
	e.quit = true
	e.work.Broadcast()
	e.mu.Unlock()
	e.helperWG.Wait()
	e.quit, e.helpers = false, 0
}
