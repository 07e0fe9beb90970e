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
// compares each shard's earliest pending event — cached per shard, and
// recomputed from a lazy-deletion min-heap of calendar keys only when a
// push, pop or cancel can have changed it — against the window
// [top, top+W) opened by the calendar head, and *launches* it when it lies
// inside, is not the head itself (the driver runs that inline), is not a
// commit-only body, and does not follow the earliest pending global event.
// At most one phase per shard is ever launched, so the launched body, its
// claim state and its result live in one reusable record per shard:
// executors never touch the slab, and the steady-state schedule → launch →
// pop → commit cycle allocates nothing. The pop then proceeds exactly like
// the sequential engine: set the clock, run the commit (first finishing the
// phase if nobody has) or, for events never launched, the whole body inline.
// A global event may touch every shard; the launch rule and the straggler
// check below guarantee it pops with nothing launched.
//
// A launched phase is its shard's earliest event, phases of distinct
// shards touch disjoint state, and shard state is otherwise mutated only by
// that shard's own commits — so the one way an early phase can be wrong is a
// *straggler*: a new event (or a cancellation) arriving in its past. Every
// scheduling entry point checks for one.
//
// # Who runs a launched phase
//
// A launch only *posts* the phase: an atomic state on the shard's record
// goes posted → running → done, and whoever moves it to running by
// compare-and-swap executes the phase. The driver claims a still-posted
// phase itself the moment it needs the result, so the worst case is the
// one-executor path, never a wait for somebody to get scheduled. Helper
// goroutines (at most Options.Workers, started on demand, gone when Run
// returns) claim posted phases from the far end — latest timestamp first,
// the ones the driver needs last — and park when there is nothing to take.
//
// Whether a launch wakes a helper is decided by the grain gate: the driver
// times every grainSampleEvery-th phase it runs itself and keeps a moving
// average; while that average is below handoffCostNs — a phase cheaper than
// moving it to another core and back — helpers stay parked and launches
// wake nobody. This is the one place the engine reads a clock, and the
// reading decides only *placement*: which phases are launched, the counters
// in Stats, the commit order and every Controller, sink and probe call are
// the same whichever goroutine runs a phase, so runs stay bit-identical
// across hosts, worker counts and timing. HandoffStats reports the
// timing-dependent side.
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
// it was still only posted, so the Controller always sees a phase that
// ran), discards its withheld commit closure, and asks the Controller to
// undo the phase's shard-local mutations. Every globally visible effect of
// a phase is buffered in the commit closure, which never ran, so cancelling
// a speculation needs no anti-messages; the event stays scheduled and runs
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
// buffering guarantees this for all runtime paths. Commits may schedule
// freely.
package parsim

import (
	"fmt"
	"math"
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
// goroutine. BeginSpec(s) runs before the phase is posted (whoever claims
// it observes BeginSpec's writes through the claim's atomic edge);
// CommitSpec(s) runs after the speculated event's commit closure at its pop;
// RollbackSpec(s) runs after the phase has finished, when a straggler
// invalidated it.
type Controller interface {
	BeginSpec(shard int)
	CommitSpec(shard int)
	RollbackSpec(shard int)
}

// The claim states of a flight. The driver posts; whoever swaps posted for
// running owns the record until it stores done. The stores and swaps are the
// engine's only cross-goroutine edges: post publishes the event copy (and
// everything the driver did before it — the shard's previous commit,
// BeginSpec) to the claimant, done publishes the result back.
const (
	phaseDone    uint32 = iota // at rest: no launch outstanding, or its result is final
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
	postAt   atomic.Uint64
	ev       des.Event // the launched event, copied out of the slab
	active   bool      // launched, not yet popped or rolled back (driver-only)
	commit   func()    // phase result, written by the claimant
	pval     any       // captured phase panic (nil if none), re-raised at pop
	launchNs int64     // wall stamp at launch, 0 unless a probe is installed
}

// candidate caches a minima heap's earliest scheduled key, so the per-pop
// launch scan compares timestamps instead of consulting every shard's heap
// and the slab.
type candidate struct {
	des.Ent
	ok bool // false: nothing scheduled on this heap
	// launchable: a shard's candidate that the scan may launch — it has a
	// phase (not a commit-only body) and is not launched already.
	launchable bool
}

const (
	// handoffCostNs is the grain gate's threshold: helpers take phases only
	// while the phases the driver times average at least this long. It is
	// the cost of the handoff itself — posting a phase, waking a parked
	// goroutine on another core, moving the shard's cache lines there and
	// the result back — which is on the order of a microsecond on any
	// current host, and which the repository benchmark measures from the
	// application side as charm.metg50_us (0.78 µs on the benchmark host):
	// below that grain a task spends more than half its time in the
	// runtime. The gate sits at about twice that, so the overlap has to pay
	// for the handoff with margin.
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

	// minima drives the launch scan: one lazy-deletion heap of calendar keys
	// per shard, plus a last one for the pending global events, and cand,
	// each heap's current minimum. Nil when the engine can never launch.
	minima     []des.EntHeap
	cand       []candidate
	recomputes uint64 // cand entries rebuilt from their heap (tests pin its growth)

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

// HandoffStats says where the launched phases ran. Unlike Stats it depends
// on goroutine timing and the host, so it is side-band: benchmarks print it,
// nothing gates on it and it must not reach simulation state.
type HandoffStats struct {
	DriverRan uint64  `json:"driver_ran"` // launched phases the driver claimed and ran itself when it needed them
	HelperRan uint64  `json:"helper_ran"` // launched phases a helper ran
	Blocked   uint64  `json:"blocked"`    // times the driver needed a phase that was mid-run on a helper, and waited
	Wakes     uint64  `json:"wakes"`      // helpers started or signalled by a launch
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
		e.minima = make([]des.EntHeap, len(e.flights)+1)
		e.cand = make([]candidate, len(e.flights)+1)
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
// the body; phase says whether that body will have a phase to launch.
func (e *Engine) schedule(shard int, t des.Time, phase bool) (*des.Event, des.Handle) {
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
		// A push that precedes the heap's minimum is the new minimum; any
		// other leaves the cached one standing. (A straggler's victim has
		// been rolled back above, so its candidate is launchable again.)
		if c := &e.cand[q]; !c.ok || k.Before(c.Ent) {
			*c = candidate{Ent: k, ok: true, launchable: phase}
		}
	}
	return ev, e.cal.Handle(k)
}

// atShard is schedule for a sharded event.
func (e *Engine) atShard(shard int, t des.Time, phase bool) (*des.Event, des.Handle) {
	if shard < 0 || shard >= len(e.flights) {
		panic(fmt.Sprintf("parsim: shard %d out of range [0,%d)", shard, len(e.flights)))
	}
	return e.schedule(shard, t, phase)
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
	ev, h := e.atShard(shard, t, true)
	ev.Pfn, ev.A, ev.B = fn, a, b
	return h
}

// AtShardCommit schedules a sharded event whose entire body runs at commit
// position on the driver. It participates in shard ordering (the launch
// scan will not run a later same-shard phase past it, and it is checked as
// a straggler) but is never launched: its body may touch global state,
// exactly like any commit.
func (e *Engine) AtShardCommit(shard int, t des.Time, fn des.CommitFn, a any, b int64) des.Handle {
	ev, h := e.atShard(shard, t, false)
	ev.Cfn, ev.A, ev.B = fn, a, b
	return h
}

// Cancel removes a scheduled event; an already-fired or already-cancelled
// one is a no-op. Cancelling an event whose phase is in flight is a
// straggler like any other: a lookahead violation conservatively, a
// rollback optimistically.
func (e *Engine) Cancel(h des.Handle) {
	k, ok := e.cal.Cancel(h)
	if !ok {
		return
	}
	q := len(e.flights)
	if k.Shard >= 0 {
		q = int(k.Shard)
		if f := &e.flights[q]; f.active && f.ev.Seq == k.Seq {
			if e.ctrl == nil {
				panic("parsim: Cancel of an event whose phase is in flight (lookahead violation)")
			}
			e.rollback(q)
		}
	}
	// Only the cancellation of a heap's minimum changes its candidate; any
	// other entry is dropped lazily when it surfaces.
	if e.minima != nil && e.cand[q].Seq == k.Seq {
		e.recompute(q)
	}
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
			e.recompute(len(e.flights))
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
		e.recompute(shard) // the popped event was its shard's candidate
	}
	f := &e.flights[shard]
	launched := f.active
	var stallNs int64
	if !launched {
		e.stats.Inline++
		e.inline(&ev)
	} else {
		if f.ev.Seq != ev.Seq {
			panic("parsim: internal: shard event popped past its in-flight phase")
		}
		if e.sink != nil {
			e.sink.Phase(des.PhaseStart, shard, ev.At)
		}
		stallNs = e.await(f)
		f.active = false
		e.inFlight--
		if f.pval != nil {
			// Re-raise deterministically in pop order, not completion
			// order. No PhaseDone: the sequential engine panics out of the
			// phase body before reaching its PhaseDone too.
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
			if e.sink != nil {
				e.sink.Phase(des.SpecCommit, shard, ev.At)
			}
		}
		if e.sink != nil {
			e.sink.Phase(des.PhaseDone, shard, ev.At)
		}
	}
	if e.probe != nil {
		if launched {
			e.probe.PhaseWall(shard, ev.At, e.probe.WallNow()-f.launchNs, stallNs, e.ctrl != nil)
		}
		e.probe.EventExecuted(shard, ev.At, e.cal.Len())
	}
}

// inline runs a never-launched sharded event whole, as des.Event.Exec does
// for the sequential engine, except that a phase goes through drivePhase.
func (e *Engine) inline(ev *des.Event) {
	shard := int(ev.Shard)
	if e.sink != nil {
		e.sink.Phase(des.PhaseStart, shard, ev.At)
	}
	if ev.Cfn != nil {
		ev.Cfn(ev.A, ev.B, ev.At)
	} else if commit := e.drivePhase(ev); commit != nil {
		commit()
	}
	if e.sink != nil {
		e.sink.Phase(des.PhaseDone, shard, ev.At)
	}
}

// drivePhase runs a phase on the driving goroutine, timing every
// grainSampleEvery-th one for the grain gate. The driver always runs some
// phases — every calendar head, and every launched phase nobody claimed —
// so the estimate tracks the workload without a re-probe schedule.
func (e *Engine) drivePhase(ev *des.Event) func() {
	e.driven++
	if e.driven%grainSampleEvery != 0 || e.minima == nil {
		return ev.Phase()
	}
	//charmvet:wallclock (placement only: the reading decides whether helpers are woken, never what is launched, committed or counted)
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

// recompute rebuilds heap q's candidate after its minimum was popped or
// cancelled. Pushes never need it (see schedule), so the work the launch
// pipeline does per pop follows what changed, not the shard count.
func (e *Engine) recompute(q int) {
	e.recomputes++
	k, ok := e.top(&e.minima[q])
	e.cand[q] = candidate{Ent: k, ok: ok,
		launchable: ok && k.Shard >= 0 && e.cal.Event(k).Cfn == nil}
}

// launch posts every eligible shard candidate before head pops: inside the
// window and the run horizon, not the head itself, not a commit-only body
// or an already launched one, and not past the earliest pending global —
// in ascending shard order, which is the order Controller and sinks see.
func (e *Engine) launch(head des.Ent, horizon des.Time) {
	if e.minima == nil || e.cal.Len() < 2 {
		return
	}
	limit := head.At + e.window
	global := &e.cand[len(e.flights)]
	for s := range e.flights {
		c := &e.cand[s]
		if !c.launchable || c.At >= limit || c.At > horizon || c.Seq == head.Seq {
			continue
		}
		if global.ok && global.Before(c.Ent) {
			continue
		}
		e.launchEvent(s, c)
	}
	if e.probe != nil && e.ctrl == nil && e.inFlight == 0 {
		// The scan ran but nothing can overlap the coming pop: the
		// lookahead window stalled the pipeline for this step.
		e.probe.WindowStall(head.At)
	}
}

// launchEvent copies shard s's candidate event into its flight record and
// posts it; with the grain gate open it also makes sure a helper is awake
// to take it.
func (e *Engine) launchEvent(s int, c *candidate) {
	ev := e.cal.Event(c.Ent)
	c.launchable = false
	f := &e.flights[s]
	f.ev = *ev
	f.active = true
	if e.ctrl != nil {
		e.ctrl.BeginSpec(s)
	}
	e.inFlight++
	e.stats.Launched++
	e.stats.MaxInFlight = max(e.stats.MaxInFlight, e.inFlight)
	lag := ev.At - e.now
	e.stats.MaxGVTLag = max(e.stats.MaxGVTLag, lag)
	if e.sink != nil && e.ctrl != nil {
		e.sink.Phase(des.SpecLaunch, s, ev.At)
	}
	if e.probe != nil {
		f.launchNs = e.probe.WallNow()
		if e.ctrl != nil {
			e.probe.SpecLaunched(s, ev.At, lag)
		}
	}
	f.postAt.Store(math.Float64bits(float64(ev.At)))
	f.state.Store(phasePosted)
	if !e.gateShut.Load() {
		e.wakeHelper()
	}
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

// runPhase executes a claimed flight's phase, capturing a panic so the
// driver can re-raise it in deterministic pop order (or discard it with the
// rest of a rolled-back speculation), and publishes the result.
func (e *Engine) runPhase(f *flight, driver bool) {
	defer func() {
		f.pval = recover()
		f.state.Store(phaseDone)
	}()
	if driver {
		f.commit = e.drivePhase(&f.ev)
	} else {
		f.commit = f.ev.Phase()
	}
}

// await returns once f's phase has finished — running it here if nobody
// has claimed it — and reports the wall time the driver spent blocked on a
// helper (0 without a probe). Running the phase itself is work, not stall.
func (e *Engine) await(f *flight) int64 {
	if f.state.Load() == phaseDone {
		return 0
	}
	if f.state.CompareAndSwap(phasePosted, phaseRunning) {
		e.hand.DriverRan++
		e.runPhase(f, true)
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
	waitNs := e.await(f)
	f.active = false
	e.inFlight--
	e.cand[s].launchable = true
	e.ctrl.RollbackSpec(s)
	e.stats.RolledBack++
	if e.sink != nil {
		e.sink.Phase(des.SpecRollback, s, f.ev.At)
	}
	if e.probe != nil {
		e.probe.SpecRolledBack(s, f.ev.At, waitNs)
	}
}

// helper claims and runs posted phases until the run ends.
func (e *Engine) helper() {
	defer e.helperWG.Done()
	for f := e.take(); f != nil; f = e.take() {
		e.runPhase(f, false)
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
// flight; conservative mode finishes every launched phase, running the ones
// nobody claimed, so what has executed at exit never depends on timing and
// the commits stay cached for the next run. Then the helpers exit.
func (e *Engine) endRun() {
	if e.inFlight > 0 {
		for s := range e.flights {
			if f := &e.flights[s]; !f.active {
				continue
			} else if e.ctrl != nil {
				e.rollback(s)
			} else {
				e.await(f)
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
