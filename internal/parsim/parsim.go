// Package parsim is the parallel execution backend for the virtual machine:
// a des.Engine that runs event *phases* early on worker goroutines while
// committing their global effects in the exact (timestamp, sequence) order
// the sequential engine uses, so every run is bit-for-bit identical to
// internal/des.Sequential.
//
// # The windowed pipeline
//
// Pending events live in the same des.Calendar the sequential engine drains,
// and a single driving goroutine pops and commits them strictly in calendar
// order. A sharded event's body is split by the runtime into a phase (reads
// and writes only its shard's state, buffers everything else) and a commit
// closure (applies the buffered global effects). Before every pop the driver
// looks at each shard's earliest pending event — a per-shard lazy-deletion
// min-heap of calendar keys makes that O(shards) — and hands it to a worker
// when it lies in the window [top, top+W) opened by the calendar head, is
// not the head itself (the driver runs that inline, overlapping the
// launches), is not a commit-only body, and does not follow the earliest
// pending global event. At most one phase per shard is ever in flight, so
// the launched body, its done signal and its result live in one reusable
// record per shard: workers never touch the slab, and the steady-state
// schedule → launch → pop → commit cycle allocates nothing. The pop then
// proceeds exactly like the sequential engine: set the clock, run the commit
// (waiting for the phase if a worker has it) or, for events never launched,
// the whole body inline. A global event may touch every shard; the launch
// rule and the straggler check below guarantee it pops with nothing in
// flight.
//
// An in-flight phase is its shard's earliest event, phases of distinct
// shards touch disjoint state, and shard state is otherwise mutated only by
// that shard's own commits — so the one way an early phase can be wrong is a
// *straggler*: a new event (or a cancellation) arriving in its past. Every
// scheduling entry point checks for one.
//
// # Two modes
//
// Conservative (no Controller): W is pinned to the machine's lookahead — the
// minimum cross-shard latency, the α of the α–β network model — which proves
// no straggler can exist: cross-shard messages land at least α later, hence
// outside the window. A straggler is therefore a protocol violation and
// panics loudly rather than diverging. Stop and RunUntil leave finished
// phases' commits cached on their shards; they apply when a later Run pops
// the event.
//
// Optimistic (a Controller is installed): Time Warp. W is the optimism
// window (unbounded by default, adjustable through SetWindow), so shards
// speculate arbitrarily far past the head, and a straggler rolls the
// affected shard back: the engine waits for the phase, discards its withheld
// commit closure, and asks the Controller to undo the phase's shard-local
// mutations. Every globally visible effect of a phase is buffered in the
// commit closure, which never ran, so cancelling a speculation needs no
// anti-messages; the event stays scheduled and runs again at or before its
// pop. Commits are serialized on the driver, so the Global Virtual Time is
// exact — the last popped timestamp — and fossil collection is eager:
// CommitSpec releases a shard's undo state the moment its speculation pops.
// Run and RunUntil roll back whatever is still in flight before returning,
// so post-run machine state is the sequential engine's.
//
// The modes differ in exactly six places, each keyed on "controller
// present": the window source, the straggler response, the Controller and
// des.SpecSink/Spec* probe callbacks, run exit, GlobalHorizon, and the gauge
// family RegisterMetrics registers.
//
// # Discipline
//
// Phase functions must not call back into the engine — the runtime's context
// buffering guarantees this for all runtime paths. Commits may schedule
// freely.
package parsim

import (
	"fmt"
	"runtime"
	"sync"

	"charmgo/internal/des"
	"charmgo/internal/projections/metrics"
)

// Options configures an engine.
type Options struct {
	// Shards is the number of shards (virtual nodes). Sharded events carry
	// ids in [0, Shards); anything else panics at scheduling.
	Shards int
	// Workers caps the worker goroutines running phases; 0 means
	// GOMAXPROCS.
	Workers int
	// Lookahead is the conservative launch window: the minimum virtual
	// latency of any cross-shard interaction (the machine's α). Zero
	// disables early launches (every event runs inline — correct but
	// serial). Ignored in optimistic mode.
	Lookahead des.Time
	// Window bounds optimism: speculations launch only within
	// [top, top+Window) of the calendar head. Zero means unbounded. A
	// finite window trades exposed parallelism for rollback risk. Ignored
	// in conservative mode.
	Window des.Time
	// Controller, when non-nil, selects optimistic mode and undoes
	// misspeculated phases.
	Controller Controller
}

// Controller undoes speculative phase execution (charm's speculation
// controller implements it). All three methods are called from the driving
// goroutine. BeginSpec(s) runs before the phase is handed to a worker (the
// worker observes it through the job-channel happens-before edge);
// CommitSpec(s) runs after the speculated event's commit closure at its pop;
// RollbackSpec(s) runs after the phase has finished, when a straggler
// invalidated it.
type Controller interface {
	BeginSpec(shard int)
	CommitSpec(shard int)
	RollbackSpec(shard int)
}

// flight is a shard's launch record: the one phase it may have on a worker.
// The driver fills it in before handing it to the pool and reads the result
// fields only after receiving on done.
type flight struct {
	ev       des.Event     // the launched event, copied out of the slab
	active   bool          // launched, not yet popped or rolled back
	waited   bool          // done has been received for this launch
	done     chan struct{} // capacity 1: the worker sends once per launch
	commit   func()        // phase result, written by the worker
	pval     any           // captured phase panic (nil if none), re-raised at pop
	launchNs int64         // wall stamp at launch, 0 unless a probe is installed
}

// run executes the launched phase on a worker, capturing a panic so the
// driver can re-raise it in deterministic pop order (or discard it with the
// rest of a rolled-back speculation).
func (f *flight) run() {
	defer func() {
		f.pval = recover()
		f.done <- struct{}{}
	}()
	f.commit = f.ev.Phase()
}

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

	// Worker pool, alive only while Run/RunUntil executes.
	jobs   chan *flight
	poolWG sync.WaitGroup

	flights  []flight // per shard
	inFlight int      // active flights

	// minima drives the launch scan: one lazy-deletion heap of calendar keys
	// per shard, plus a last one for the pending global events. Nil when
	// the engine can never launch.
	minima []des.EntHeap

	stats Stats
	sink  des.TraceSink
	ssink des.SpecSink
	probe des.Probe
}

// Stats aggregates pipeline counters over the engine's lifetime. Launch and
// rollback decisions depend only on calendar state at each step — never on
// worker timing — so every counter is deterministic for a given workload
// and mode.
type Stats struct {
	Launched    uint64   // phases handed to workers (including re-runs after rollback)
	Committed   uint64   // launched phases whose cached commit was used at pop
	RolledBack  uint64   // speculations undone by a straggler, cancel, or run exit
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

// New returns a parallel engine with the clock at zero.
func New(opts Options) *Engine {
	e := &Engine{
		window:  opts.Lookahead,
		workers: opts.Workers,
		ctrl:    opts.Controller,
		flights: make([]flight, max(opts.Shards, 1)),
	}
	e.cal.Init()
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.ctrl != nil {
		e.SetWindow(opts.Window)
	}
	if e.window > 0 && len(e.flights) > 1 { // otherwise nothing can ever overlap
		e.minima = make([]des.EntHeap, len(e.flights)+1)
		for s := range e.flights {
			e.flights[s].done = make(chan struct{}, 1)
		}
	}
	return e
}

// SetWindow replaces the optimism window (0 = unbounded); optimistic mode
// only — the conservative window is the lookahead. Driver-context only:
// launch eligibility reads the window fresh on every pop, so the change
// takes effect deterministically at the next launch decision — callers
// adjusting it from commit closures or Controller callbacks (which run on
// the driving goroutine) keep runs bit-identical across worker counts.
func (e *Engine) SetWindow(w des.Time) {
	if e.ctrl == nil {
		panic("parsim: SetWindow on a conservative engine")
	}
	if w <= 0 {
		w = des.Forever
	}
	e.window = w
}

// Window reports the current launch window (0 = unbounded).
func (e *Engine) Window() des.Time {
	if e.window == des.Forever {
		return 0
	}
	return e.window
}

// SetTraceSink installs (or, with nil, removes) the engine's phase-event
// sink. PhaseStart/PhaseDone are called only from the driving goroutine at
// the pop of each sharded event — the same positions, in the same total
// order, as the sequential engine. In optimistic mode a sink that also
// implements des.SpecSink receives the speculation-pipeline events too.
func (e *Engine) SetTraceSink(s des.TraceSink) {
	e.sink = s
	e.ssink = nil
	if e.ctrl != nil {
		e.ssink, _ = s.(des.SpecSink)
	}
}

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

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int { return e.cal.Len() }

// Executed counts events that have run.
func (e *Engine) Executed() uint64 { return e.executed }

// reach returns the latest in-flight phase timestamp, or Now() when that is
// later (or nothing is in flight).
func (e *Engine) reach() des.Time {
	t := e.now
	for s := range e.flights {
		if f := &e.flights[s]; f.active && f.ev.At > t {
			t = f.ev.At
		}
	}
	return t
}

// GlobalHorizon returns the earliest timestamp at which a global event may
// be scheduled without preceding an in-flight phase. Conservatively that is
// the high-water timestamp of the launched phases. Optimistic execution
// makes every instant safe — a global below a speculation is a straggler,
// not a violation — so the horizon is Now(), exactly the sequential
// engine's answer, which keeps fault-recovery timing (chaos schedules its
// rollbacks at the horizon) bit-identical across those backends.
func (e *Engine) GlobalHorizon() des.Time {
	if e.ctrl != nil {
		return e.now
	}
	return e.reach()
}

// straggler checks a new event at t against shard s's in-flight phase. A
// same-timestamp arrival is not a straggler: its larger sequence number
// orders it after the phase.
func (e *Engine) straggler(s int, t des.Time, from int) {
	f := &e.flights[s]
	if !f.active || t >= f.ev.At {
		return
	}
	if e.ctrl == nil {
		what := "global event"
		if from >= 0 {
			what = fmt.Sprintf("shard %d event", from)
		}
		panic(fmt.Sprintf("parsim: lookahead violation: %s scheduled at t=%v before shard %d's in-flight phase at t=%v",
			what, t, s, f.ev.At))
	}
	e.rollback(s)
}

// schedule files a bodiless event at t on shard (-1: global) in the
// calendar — and, when the engine can launch, in its shard's (or the
// globals') minima heap — after the straggler check: a shard event against
// its own shard's flight, a global against all of them. The caller fills in
// the body.
func (e *Engine) schedule(shard int, t des.Time) (*des.Event, des.Handle) {
	if t < e.now {
		panic(fmt.Sprintf("parsim: scheduling event at %v before now %v", t, e.now))
	}
	q := shard
	if shard >= 0 {
		e.straggler(shard, t, shard)
	} else {
		q = len(e.flights) // the globals' minima heap
		for s := 0; e.inFlight > 0 && s < len(e.flights); s++ {
			e.straggler(s, t, shard)
		}
	}
	ev, k := e.cal.Add(t, int32(shard))
	if e.minima != nil {
		e.minima[q].Push(k)
	}
	return ev, e.cal.Handle(k)
}

// atShard is schedule for a sharded event.
func (e *Engine) atShard(shard int, t des.Time) (*des.Event, des.Handle) {
	if shard < 0 || shard >= len(e.flights) {
		panic(fmt.Sprintf("parsim: shard %d out of range [0,%d)", shard, len(e.flights)))
	}
	return e.schedule(shard, t)
}

// At schedules fn as a global event: it runs alone on the driver, with no
// phases in flight.
func (e *Engine) At(t des.Time, fn func()) des.Handle {
	ev, h := e.schedule(-1, t)
	ev.Fn = fn
	return h
}

// AtShard schedules a two-phase event on a shard.
func (e *Engine) AtShard(shard int, t des.Time, fn func() func()) des.Handle {
	ev, h := e.atShard(shard, t)
	ev.Sfn = fn
	return h
}

// AtShardFn schedules a two-phase event from a preallocated PhaseFn. It is
// launchable on workers exactly like the closure form.
func (e *Engine) AtShardFn(shard int, t des.Time, fn des.PhaseFn, a any, b int64) des.Handle {
	ev, h := e.atShard(shard, t)
	ev.Pfn, ev.A, ev.B = fn, a, b
	return h
}

// AtShardCommit schedules a sharded event whose entire body runs at commit
// position on the driver. It participates in shard ordering (the launch
// scan will not run a later same-shard phase past it, and it is checked as
// a straggler) but is never handed to a worker: its body may touch global
// state, exactly like any commit.
func (e *Engine) AtShardCommit(shard int, t des.Time, fn des.CommitFn, a any, b int64) des.Handle {
	ev, h := e.atShard(shard, t)
	ev.Cfn, ev.A, ev.B = fn, a, b
	return h
}

// After schedules fn to run d seconds from now as a global event.
func (e *Engine) After(d des.Time, fn func()) des.Handle {
	if d < 0 {
		panic(fmt.Sprintf("parsim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event; an already-fired or already-cancelled
// one is a no-op. Cancelling an event whose phase is in flight is a
// straggler like any other: a lookahead violation conservatively, a
// rollback optimistically.
func (e *Engine) Cancel(h des.Handle) {
	k, ok := e.cal.Cancel(h)
	if !ok || k.Shard < 0 {
		return
	}
	if f := &e.flights[k.Shard]; f.active && f.ev.Seq == k.Seq {
		if e.ctrl == nil {
			panic("parsim: Cancel of an event whose phase is in flight (lookahead violation)")
		}
		e.rollback(int(k.Shard))
	}
}

// Stop makes Run return before the next pop. Global state stops exactly
// where the sequential engine would stop. Phases still in flight are rolled
// back in optimistic mode; in conservative mode they finish on their
// workers with their commits withheld, so only the in-flight shards' local
// state has advanced. Apps that Exit from solo global events (reduction and
// quiescence callbacks — the idiomatic pattern) never have phases in flight
// at that point and observe identical behaviour on every backend.
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

// run pops events up to horizon (inclusive), then retires the worker pool
// so no goroutine outlives Run/RunUntil.
func (e *Engine) run(horizon des.Time) {
	e.stopped = false
	defer e.shutdownPool()
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
		// The launch rule never passes the earliest pending global, and the
		// straggler check covers globals scheduled later — so a popping
		// global always finds zero phases in flight.
		if e.inFlight > 0 {
			e.drainLaunched()
			panic(fmt.Sprintf("parsim: internal: global event at t=%v popped with %d phases in flight", ev.At, e.inFlight))
		}
		e.stats.Global++
		ev.Fn()
		if e.probe != nil {
			e.probe.EventExecuted(shard, ev.At, e.cal.Len())
		}
		return
	}

	f := &e.flights[shard]
	launched := f.active
	var stallNs int64
	if !launched {
		e.stats.Inline++
		ev.Exec(e.sink)
	} else {
		if f.ev.Seq != ev.Seq {
			panic("parsim: internal: shard event popped past its in-flight phase")
		}
		if e.sink != nil {
			e.sink.PhaseStart(shard, ev.At)
		}
		stallNs = e.await(f)
		f.active = false
		e.inFlight--
		if f.pval != nil {
			// Re-raise deterministically in pop order, not worker order.
			// No PhaseDone: the sequential engine panics out of the phase
			// body before reaching its PhaseDone too.
			e.drainLaunched()
			panic(f.pval)
		}
		e.stats.Committed++
		if f.commit != nil {
			f.commit()
		}
		if e.ctrl != nil {
			// Fossil collection: the commit frontier passed this
			// speculation, so its undo state can never be needed again.
			e.ctrl.CommitSpec(shard)
			if e.ssink != nil {
				e.ssink.SpecCommit(shard, ev.At)
			}
		}
		if e.sink != nil {
			e.sink.PhaseDone(shard, ev.At)
		}
	}
	if e.probe != nil {
		if launched {
			e.probe.PhaseWall(shard, ev.At, e.probe.WallNow()-f.launchNs, stallNs, e.ctrl != nil)
		}
		e.probe.EventExecuted(shard, ev.At, e.cal.Len())
	}
}

// top returns the earliest still-scheduled key of a minima heap, discarding
// entries whose event was popped or cancelled.
func (e *Engine) top(q *des.EntHeap) (des.Ent, bool) {
	for len(*q) > 0 {
		if k := (*q)[0]; e.cal.Queued(k) {
			return k, true
		}
		q.Pop()
	}
	return des.Ent{}, false
}

// launch hands every eligible shard minimum to the worker pool before head
// pops: inside the window and the run horizon, not the head itself, not a
// commit-only body, and not past the earliest pending global.
func (e *Engine) launch(head des.Ent, horizon des.Time) {
	if e.minima == nil || e.cal.Len() < 2 {
		return
	}
	limit := head.At + e.window
	global, hasGlobal := e.top(&e.minima[len(e.flights)])
	for s := range e.flights {
		if e.flights[s].active {
			continue
		}
		k, ok := e.top(&e.minima[s])
		if !ok || k == head || k.At >= limit || k.At > horizon {
			continue
		}
		if hasGlobal && global.Before(k) {
			continue
		}
		if ev := e.cal.Event(k); ev.Cfn == nil {
			e.launchEvent(s, ev)
		}
	}
	if e.probe != nil && e.ctrl == nil && e.inFlight == 0 {
		// The scan ran but nothing can overlap the coming pop: the
		// lookahead window stalled the pipeline for this step.
		e.probe.WindowStall(head.At)
	}
}

// launchEvent copies ev into shard s's flight record and hands the record
// to the worker pool.
func (e *Engine) launchEvent(s int, ev *des.Event) {
	if e.jobs == nil {
		// One slot per shard: each has at most one flight, so a launch
		// never blocks the driver.
		e.jobs = make(chan *flight, len(e.flights))
		for w := 0; w < e.workers; w++ {
			e.poolWG.Add(1)
			//charmvet:parsim (phase workers execute shard-disjoint events; misspeculations are rolled back)
			go e.worker()
		}
	}
	f := &e.flights[s]
	f.ev = *ev
	f.active, f.waited = true, false
	if e.ctrl != nil {
		e.ctrl.BeginSpec(s)
	}
	e.inFlight++
	e.stats.Launched++
	e.stats.MaxInFlight = max(e.stats.MaxInFlight, e.inFlight)
	lag := ev.At - e.now
	e.stats.MaxGVTLag = max(e.stats.MaxGVTLag, lag)
	if e.ssink != nil {
		e.ssink.SpecLaunch(s, ev.At)
	}
	if e.probe != nil {
		f.launchNs = e.probe.WallNow()
		if e.ctrl != nil {
			e.probe.SpecLaunched(s, ev.At, lag)
		}
	}
	e.jobs <- f
}

// await blocks until f's phase has finished and returns the wall time spent
// blocked (0 without a probe).
func (e *Engine) await(f *flight) int64 {
	if f.waited {
		return 0
	}
	f.waited = true
	if e.probe == nil {
		<-f.done
		return 0
	}
	t0 := e.probe.WallNow()
	<-f.done
	return e.probe.WallNow() - t0
}

// rollback undoes shard s's in-flight speculation: wait for the phase,
// discard its withheld commit (the speculative sends it buffered never
// entered the network — dropping the closure is the anti-message), and let
// the controller restore the shard-local state the phase mutated. The event
// itself stays scheduled and runs again at or before its pop.
func (e *Engine) rollback(s int) {
	f := &e.flights[s]
	waitNs := e.await(f)
	f.active = false
	e.inFlight--
	e.ctrl.RollbackSpec(s)
	e.stats.RolledBack++
	if e.ssink != nil {
		e.ssink.SpecRollback(s, f.ev.At)
	}
	if e.probe != nil {
		e.probe.SpecRolledBack(s, f.ev.At, waitNs)
	}
}

// worker drains the job channel, running one phase at a time.
func (e *Engine) worker() {
	defer e.poolWG.Done()
	for f := range e.jobs {
		f.run()
	}
}

// drainLaunched waits for every in-flight phase; their results stay cached
// in their flight records.
func (e *Engine) drainLaunched() {
	for s := range e.flights {
		if f := &e.flights[s]; f.active {
			e.await(f)
		}
	}
}

// shutdownPool ends a run: optimistic mode rolls back every speculation
// still in flight, then the workers stop after finishing all handed-out
// phases.
func (e *Engine) shutdownPool() {
	if e.ctrl != nil && e.inFlight > 0 {
		for s := range e.flights {
			if e.flights[s].active {
				e.rollback(s)
			}
		}
	}
	if e.jobs == nil {
		return
	}
	close(e.jobs)
	e.poolWG.Wait()
	e.jobs = nil
	e.drainLaunched()
}
