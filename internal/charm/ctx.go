package charm

import (
	"fmt"
	"math"

	"charmgo/internal/des"
	"charmgo/internal/pup"
)

// fxList is an ordered buffer of deferred global effects. Element-handler
// contexts on the parallel backend collect their globally visible actions
// (sends, reduction merges, statistics) here during the concurrent phase;
// the commit replays them in call order, exactly reproducing the
// sequential interleaving.
//
// Each PE owns one (peState.fx), refilled by every delivery and truncated
// by its commit's flushFX — or by discard when the execution is dropped —
// so buffering an effect allocates nothing at steady state. The buffer is
// shard-local under the same commit(i) ≺ phase(i+1) ordering that protects
// p.ctxSpare. The hot effects are closure-free records: a send is the
// pooled message plus its timestamp, a contribution its arguments; the
// rest (Defer, AtSync, Migrate, structural mutations, broadcast fan-out)
// ride as a plain func.
type fxList struct {
	recs []fxRec
	reds []fxContrib // payloads of the fxContribute records, in order
}

type fxKind uint8

const (
	fxFn fxKind = iota
	fxSend
	fxContribute
)

// fxRec is one buffered effect.
type fxRec struct {
	kind fxKind
	red  int32    // fxContribute: index into fxList.reds
	at   des.Time // fxSend, fxContribute: the virtual moment of the call
	m    *message // fxSend
	fn   func()   // fxFn
}

// fxContrib is the argument list of a buffered Contribute.
type fxContrib struct {
	el      *element
	gen     uint64
	value   any
	reducer Reducer
	cb      Callback
}

func (fx *fxList) send(m *message, at des.Time) {
	//charmvet:retain (effect record: replayed or discarded by this delivery's commit, before the message is recycled)
	fx.recs = append(fx.recs, fxRec{kind: fxSend, at: at, m: m})
}

func (fx *fxList) contribute(c fxContrib, at des.Time) {
	fx.recs = append(fx.recs, fxRec{kind: fxContribute, at: at, red: int32(len(fx.reds))})
	fx.reds = append(fx.reds, c)
}

// reset empties the buffer for the PE's next delivery, dropping every
// reference it held.
func (fx *fxList) reset() {
	clear(fx.recs)
	clear(fx.reds)
	fx.recs, fx.reds = fx.recs[:0], fx.reds[:0]
}

// discard drops the effects of an execution that will never commit (a
// rolled-back speculation, a coast-forward replay), returning the messages
// its sends built to the pool.
func (fx *fxList) discard() {
	for i := range fx.recs {
		if r := &fx.recs[i]; r.kind == fxSend {
			putMsg(r.m)
		}
	}
	fx.reset()
}

// Ctx is the execution context of a running entry method (or PE handler).
// It accumulates the method's modeled compute cost and stamps outgoing
// messages at the virtual moment they are sent.
type Ctx struct {
	rt      *Runtime
	pe      int
	elem    *element // nil in PE handlers and the main chare
	start   des.Time // event start time (the engine clock when created)
	elapsed des.Time // cost accumulated so far in this execution
	loadFS  int64    // speed-normalized compute so far, integer femtoseconds
	exitReq bool
	fx      *fxList // nil: immediate mode; non-nil: buffered into the PE's list (parallel phase)
	phase   bool    // true while an element handler runs (vs commit context)
	cause   uint64  // trace ID of the send that triggered this execution

	// Coast-forward replay mode (optimistic backend, speculation.go): the
	// handler re-executes a committed delivery purely to reconstruct chare
	// state. Every global effect buffers into fx and is discarded, sends
	// build no messages, and location resolution replays the recorded
	// answers in res[resIdx:] instead of reading the live caches.
	replay bool
	res    []int32
	resIdx int

	// extraEls lists elements beyond elem this execution mutated through
	// LocalInvoke (optimistic backend only): their retained images cannot
	// replay a multi-element delivery, so the commit invalidates them.
	extraEls []*element
}

func (rt *Runtime) newCtx(pe int, el *element) *Ctx {
	return rt.newCtxAt(pe, el, rt.eng.Now())
}

// newCtxAt creates a context with an explicit event start time; the
// parallel backend uses it because the engine clock reads as the window
// start while phases run concurrently.
func (rt *Runtime) newCtxAt(pe int, el *element, at des.Time) *Ctx {
	return &Ctx{rt: rt, pe: pe, elem: el, start: at}
}

// takeCtx returns the PE's recycled delivery context (or a fresh one),
// initialized for an execution starting at `at`. The spare is strictly
// shard-local: taken during this PE's phase or commit and released at the
// end of the delivery commit, under the same commit(i) ≺ phase(i+1)
// ordering that protects p.q. Contexts are only valid during the handler
// and its commit, so recycling cannot expose one execution's state to
// another.
func (p *peState) takeCtx(rt *Runtime, el *element, at des.Time) *Ctx {
	ctx := p.ctxSpare
	if ctx == nil {
		ctx = &Ctx{}
	} else {
		p.ctxSpare = nil
	}
	*ctx = Ctx{rt: rt, pe: p.id, elem: el, start: at}
	return ctx
}

// releaseCtx recycles a delivery context at the end of its commit.
func (p *peState) releaseCtx(ctx *Ctx) {
	*ctx = Ctx{}
	//charmvet:retain (this IS the pool: the spare slot the next delivery draws from)
	p.ctxSpare = ctx
}

// emit runs fn now in immediate mode, or appends it to the effect buffer
// in buffered mode.
func (c *Ctx) emit(fn func()) {
	if c.fx == nil {
		fn()
		return
	}
	c.fx.recs = append(c.fx.recs, fxRec{fn: fn})
}

// Defer runs fn after the current entry method's effects become globally
// visible: immediately after the handler on the sequential backend, and in
// the event's commit on the parallel backend. Handlers that mutate state
// shared beyond their element (driver-level aggregates, error latches)
// must route those writes through Defer so the parallel backend can run
// handler bodies concurrently.
func (c *Ctx) Defer(fn func()) { c.emit(fn) }

// deferStruct queues a structural element-table mutation (Insert/Destroy).
// Unlike plain effects, these must never apply mid-handler: the parallel
// backends cannot make a phase's insert visible before its commit, so the
// rest of the handler — in particular the destination resolution that
// prices later sends — must see pre-handler tables on every backend. In a
// sequential phase this lazily switches the context to buffered mode, so
// the mutation and every subsequent effect replay at commit in call order,
// exactly as the parallel backends interleave them. In commit context
// (PE handlers, replayed effects) the mutation applies inline as before.
func (c *Ctx) deferStruct(fn func()) {
	if c.fx == nil && c.phase {
		c.fx = &c.rt.pes[c.pe].fx
	}
	c.emit(fn)
}

// flushFX replays the buffered effects in call order and switches the
// context to immediate mode first, so an effect that defers further work
// runs it inline at its own position in the order.
func (c *Ctx) flushFX() {
	c.phase = false
	if c.fx == nil {
		return
	}
	fx := c.fx
	c.fx = nil
	for i := 0; i < len(fx.recs); i++ {
		switch r := &fx.recs[i]; r.kind {
		case fxSend:
			c.rt.send(r.m, r.at)
		case fxContribute:
			d := &fx.reds[r.red]
			c.rt.contribute(d.el, d.gen, d.value, d.reducer, d.cb, r.at)
		default:
			r.fn()
		}
	}
	fx.reset()
}

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// MyPE returns the PE this execution runs on.
func (c *Ctx) MyPE() int { return c.pe }

// NumPEs returns the active PE count.
func (c *Ctx) NumPEs() int { return c.rt.activePEs }

// Index returns the executing element's array index.
func (c *Ctx) Index() Index {
	if c.elem == nil {
		return Index{}
	}
	return c.elem.key.idx
}

// Now returns the virtual time at the current point of the execution
// (event start plus cost charged so far).
func (c *Ctx) Now() des.Time { return c.start + c.elapsed }

// Charge adds compute cost: work is seconds on a dedicated PE at base
// frequency, scaled by the PE's current speed (DVFS, interference).
func (c *Ctx) Charge(work float64) {
	d := c.rt.mach.ComputeTime(c.pe, work)
	c.elapsed += d
	c.chargeLoad(d)
}

// ChargeWithCache charges work whose working set is ws bytes, applying the
// node's cache model with the given number of cache sharers.
func (c *Ctx) ChargeWithCache(work float64, ws int64, sharers int) {
	c.Charge(work * c.rt.mach.CacheFactor(ws, sharers))
}

// ChargeSeconds adds an absolute virtual duration, bypassing the speed
// model (used for fixed protocol costs).
func (c *Ctx) ChargeSeconds(d des.Time) {
	c.elapsed += d
	c.chargeLoad(d)
}

// chargeLoad accrues a charge into the execution's load meter: integer
// femtoseconds, speed-normalized at charge time. The load database feeds
// the balancers, and a greedy assignment flips on a 1-ULP input change —
// so measured load must be bit-identical between a clean run and a
// rollback replay. Each charge's duration is translation-invariant (it
// depends on work, not on the clock), and integer sums are exact, so this
// meter is independent of message arrival order and of how charges group
// into executions; a float meter rounds differently per grouping.
func (c *Ctx) chargeLoad(d des.Time) {
	sp := c.rt.mach.PE(c.pe).Speed(c.rt.mach.Config().BaseFreqGHz)
	c.loadFS += int64(math.Round(float64(d) * sp * 1e15))
}

// chargeLoadWork accrues intrinsic work (seconds on a dedicated PE at
// base frequency) directly into the load meter, bypassing the PE speed
// model. Used for per-message overheads: the meter takes the uniform
// node-local floor cost — the part every message pays regardless of
// where the peer actually lives — so measured load is a pure function of
// the element's own behavior (its compute and its message counts) and
// never of its current placement.
// Placement-dependent load would make every greedy decision a function
// of the previous one, and placement could then never re-converge to the
// failure-free mapping after a disturbance (evacuation, shrink/expand) —
// which is what makes post-recovery digests byte-identical.
func (c *Ctx) chargeLoadWork(work float64) {
	c.loadFS += int64(math.Round(work * 1e15))
}

// SetPos records the element's spatial coordinates for geometric load
// balancers (ORB).
func (c *Ctx) SetPos(x, y, z float64) {
	if c.elem != nil {
		c.elem.pos = [3]float64{x, y, z}
		c.elem.hasPos = true
	}
}

// SendOpts tunes a send.
type SendOpts struct {
	// Bytes is the modeled payload size; 0 means the runtime estimates it
	// (pup.Size for Pupable payloads, a small default otherwise).
	Bytes int
	// Prio orders delivery: lower values run first (§IV-C prioritized
	// messages). Zero is the default priority.
	Prio int64
}

func (c *Ctx) msgSize(payload any, opts *SendOpts) int {
	if opts != nil && opts.Bytes > 0 {
		return opts.Bytes
	}
	if p, ok := payload.(pup.Pupable); ok {
		return pup.Size(p) + 32
	}
	return 64
}

// Send invokes entry method ep on element idx of arr asynchronously: the
// caller continues immediately (§II-B).
func (c *Ctx) Send(arr *Array, idx Index, ep EP, payload any) {
	c.SendOpt(arr, idx, ep, payload, nil)
}

// resolveFor prices a send's destination: the live location caches
// normally, the recorded answer during coast-forward replay — the caches
// may have learned newer hints since the delivery originally committed,
// and Now() must re-read identically. On the optimistic backend every
// phase-time answer is recorded (shard-locally, into the PE's reused
// buffer) so the delivery's commit can log it for future replay.
func (c *Ctx) resolveFor(dest elemKey) int {
	if c.replay {
		if c.resIdx >= len(c.res) {
			panic(fmt.Sprintf("charm: coast-forward replay of %v diverged: more sends than the committed execution recorded", c.elem.key))
		}
		dst := int(c.res[c.resIdx])
		c.resIdx++
		return dst
	}
	dst, _ := c.rt.resolveEID(c.pe, dest)
	if c.phase && c.rt.spec != nil {
		p := c.rt.pes[c.pe]
		p.resLog = append(p.resLog, int32(dst))
	}
	return dst
}

// SendOpt is Send with explicit size/priority options.
func (c *Ctx) SendOpt(arr *Array, idx Index, ep EP, payload any, opts *SendOpts) {
	size := c.msgSize(payload, opts)
	var prio int64
	if opts != nil {
		prio = opts.Prio
	}
	dest := elemKey{array: arr.id, idx: idx}
	dst := c.resolveFor(dest)
	// The clock takes the locality-aware send cost (node-local delivery is
	// cheaper), but the load meter takes the uniform node-local floor: see
	// chargeLoadWork for why measured load must not depend on placement.
	c.elapsed += c.rt.mach.SendOverheadTo(c.pe, dst)
	c.chargeLoadWork(c.rt.mach.Config().SendOverheadLocal)
	if c.elem != nil {
		c.elem.msgsSent++
		c.elem.bytesSent += uint64(size)
		if c.rt.arrays[c.elem.key.array].opts.TrackComm {
			if c.elem.comm == nil {
				c.elem.comm = map[elemKey]uint64{}
			}
			c.elem.comm[dest] += uint64(size)
		}
	}
	if c.replay {
		// Effect-suppressed: the send went out when the delivery originally
		// committed. The clock and meter charges above reconstruct Now().
		return
	}
	m := getMsg()
	m.dest = dest
	m.destPE = -1
	m.ep = ep
	m.payload = payload
	m.prio = prio
	m.size = size
	m.srcPE = c.pe
	m.cause = c.cause
	at := c.Now()
	if c.fx == nil {
		// Immediate mode: the steady-state send path runs allocation-free
		// (pooled message, no effect record).
		c.rt.send(m, at)
		return
	}
	c.fx.send(m, at)
}

// SendPE invokes a PE-level handler on the destination PE.
func (c *Ctx) SendPE(pe int, h PEH, payload any, opts *SendOpts) {
	size := c.msgSize(payload, opts)
	var prio int64
	if opts != nil {
		prio = opts.Prio
	}
	// Locality-aware clock, uniform meter: see SendOpt.
	c.elapsed += c.rt.mach.SendOverheadTo(c.pe, pe)
	c.chargeLoadWork(c.rt.mach.Config().SendOverheadLocal)
	if c.replay {
		return // see SendOpt: charge the clock, suppress the effect
	}
	m := getMsg()
	m.destPE = pe
	m.ep = EP(h)
	m.payload = payload
	m.prio = prio
	m.size = size
	m.srcPE = c.pe
	m.cause = c.cause
	at := c.Now()
	if c.fx == nil {
		c.rt.send(m, at)
		return
	}
	c.fx.send(m, at)
}

// LocalInvoke runs an entry method on a local element synchronously within
// this execution (no messaging cost beyond the handler's own charges). It
// is the escape hatch libraries use for PE-local work; it panics if the
// element is not on this PE.
func (c *Ctx) LocalInvoke(arr *Array, idx Index, ep EP, payload any) {
	key := elemKey{array: arr.id, idx: idx}
	el := c.rt.pes[c.pe].find(&key)
	if el == nil {
		panic("charm: LocalInvoke on non-local element " + key.String())
	}
	if c.rt.spec != nil && el != c.elem {
		if c.replay {
			// Logged deliveries are single-element by construction (a
			// multi-element commit invalidates every touched image instead
			// of logging) — reaching another chare here is divergence.
			panic("charm: coast-forward replay diverged: LocalInvoke of " + key.String() + " during a logged single-element delivery")
		}
		if c.phase {
			if sp := c.rt.specFor(c.pe); sp != nil {
				// Speculative execution is about to mutate a second chare;
				// make it restorable too so a rollback undoes the whole
				// execution.
				sp.touchElem(el)
			}
			c.noteExtra(el)
		} else {
			// Commit-context mutation (PE handlers, collective fan-out,
			// boot): not part of any logged phase, so the element's
			// retained image can no longer coast-forward past it.
			c.rt.spec.invalidateSave(el)
		}
	}
	sub := c.rt.newCtxAt(c.pe, el, c.start)
	sub.fx = c.fx // share the caller's effect buffer (and its mode)
	sub.phase = c.phase
	sub.cause = c.cause
	sub.replay = c.replay
	sub.res, sub.resIdx = c.res, c.resIdx
	arr.handlers[ep](el.obj, sub, payload)
	c.fx = sub.fx // pick up a deferStruct upgrade so the caller buffers too
	c.elapsed += sub.elapsed
	c.loadFS += sub.loadFS
	c.resIdx = sub.resIdx
	if len(sub.extraEls) > 0 {
		// Nested LocalInvoke: the touched set must surface to the delivery
		// context the commit hook inspects.
		c.extraEls = append(c.extraEls, sub.extraEls...)
	}
	if sub.exitReq {
		c.exitReq = true
	}
}

// noteExtra records an element this execution mutated beyond its own,
// deduplicated (repeat LocalInvokes of one chare are common).
func (c *Ctx) noteExtra(el *element) {
	for _, e := range c.extraEls {
		if e == el {
			return
		}
	}
	c.extraEls = append(c.extraEls, el)
}

// Exit requests job termination (CkExit): the engine stops after this
// event completes.
func (c *Ctx) Exit() { c.exitReq = true }

// AtSync enters the load-balancing barrier (§III-A AtSync mode): the
// element pauses until the runtime has rebalanced and delivers
// ResumeFromSync (the array's ResumeEP).
func (c *Ctx) AtSync() {
	el := c.elem
	if el == nil {
		panic("charm: AtSync outside an array element")
	}
	arr := c.rt.arrays[el.key.array]
	if !arr.opts.UsesAtSync {
		panic("charm: AtSync on array declared without UsesAtSync: " + arr.name)
	}
	if el.atSync {
		return
	}
	el.atSync = true
	c.emit(func() {
		c.rt.lbArrived++
		c.rt.maybeStartLB()
	})
}

// Migrate requests migration of the executing element to a specific PE
// (CkMigrateMe). The move happens after the current method returns.
func (c *Ctx) Migrate(toPE int) {
	el := c.elem
	if el == nil {
		panic("charm: Migrate outside an array element")
	}
	rt := c.rt
	from := el.pe
	if toPE == from {
		return
	}
	at := c.Now()
	c.emit(func() { rt.atEpoch(at, func() { rt.moveElement(el, toPE, true) }) })
}

// Insert creates a new element of arr with the given initial state on this
// PE (dynamic insertion, used by AMR when refining). Messages already
// buffered at the element's home are flushed to it. The new element joins
// the creating element's current reduction generation, so in-progress and
// future reductions stay aligned across restructuring.
func (c *Ctx) Insert(arr *Array, idx Index, obj Chare) {
	gen, haveGen := uint64(0), false
	if c.elem != nil {
		gen, haveGen = c.elem.redGen, true
	}
	rt, pe := c.rt, c.pe
	c.deferStruct(func() {
		if el := rt.insertElement(arr, idx, obj, pe); haveGen {
			el.redGen = gen
		}
	})
}

// Destroy removes element idx of arr, which must live on this PE (used by
// AMR when coarsening). Destroying the executing element is allowed; the
// current method finishes normally.
func (c *Ctx) Destroy(arr *Array, idx Index) {
	if c.replay {
		// The destruction already committed (and dropped the target's
		// image); the element may no longer exist, and the deferStruct
		// would be discarded anyway.
		return
	}
	key := elemKey{array: arr.id, idx: idx}
	el := c.rt.pes[c.pe].find(&key)
	if el == nil {
		panic("charm: Destroy of non-local element " + key.String())
	}
	rt := c.rt
	c.deferStruct(func() { rt.removeElement(el) })
}
