// Package des implements a deterministic discrete-event simulation engine.
//
// The engine is the foundation of the virtual parallel machine: every
// runtime action (message delivery, entry-method completion, timer expiry)
// is an event with a virtual timestamp. Events at equal timestamps are
// ordered by an insertion sequence number, which makes every simulation run
// bit-for-bit reproducible.
//
// Three engines exist over two event stores. Calendar (this package) is the
// production store: a paged slab of events drained through a calendar queue.
// Sequential (this package) executes every event from it on the calling
// goroutine; internal/parsim runs event phases on worker goroutines from the
// same store, in a conservative mode (launches bounded by the machine's
// lookahead) and an optimistic Time Warp mode (launches past it, undone by
// rollback), both preserving the exact (timestamp, sequence) commit order.
// Heap (this package) is the original binary-heap executor, kept as the
// reference for differential order tests and for measuring the calendar's
// speedup. All satisfy the Engine interface and produce identical event
// orders.
//
// An event has one of three bodies, which is all the runtime schedules: a
// global closure (At), a preallocated two-phase body (AtShardFn) and a
// preallocated commit-only body (AtShardCommit). Each scheduling call takes
// the next sequence number, so events at equal timestamps pop in the order
// they were scheduled.
package des

import "math"

// Time is virtual time in seconds since the start of the simulation.
type Time float64

// Forever is a timestamp later than any event the engine will execute.
const Forever Time = Time(math.MaxFloat64)

// PhaseFn is a preallocated two-phase event body. Engines call it at pop
// with the event's payload pair and timestamp; it may touch only
// shard-local state and returns a commit closure (or nil) that runs with
// global state exclusively held. Schedulers pass a long-lived function
// value (typically a method value created once at startup), so scheduling
// a sharded event never allocates a closure.
type PhaseFn func(a any, b int64, at Time) func()

// CommitFn is a preallocated commit-only event body: the whole event runs
// at commit position (global state allowed, no concurrent phase work).
// Message arrival — which must touch the location manager and quiescence
// state — uses this form.
type CommitFn func(a any, b int64, at Time)

// Engine is the scheduling interface the runtime depends on. All methods
// must be called from the simulation's driving goroutine (or from within an
// event's commit); engines are not thread-safe by design — parallelism, where
// available, lives inside the engine.
type Engine interface {
	// Now returns the current virtual time.
	Now() Time
	// Pending returns the number of scheduled events.
	Pending() int
	// Executed counts events that have run, for introspection and tests.
	Executed() uint64
	// At schedules fn to run at absolute virtual time t as a global event:
	// fn may touch any simulation state, so a parallel engine runs it alone.
	At(t Time, fn func()) Handle
	// AtShardFn schedules a two-phase event bound to a shard (a virtual
	// node). The phase, fn invoked with (a, b, t) at pop, may touch only
	// shard-local state and must not call back into the engine; it returns
	// a commit closure (or nil) that the engine runs with global state
	// exclusively held, in exact (timestamp, sequence) order. A sequential
	// engine runs phase and commit back to back.
	AtShardFn(shard int, t Time, fn PhaseFn, a any, b int64) Handle
	// AtShardCommit schedules a sharded event whose entire body runs at
	// commit position.
	AtShardCommit(shard int, t Time, fn CommitFn, a any, b int64) Handle
	// Stop makes Run return after the currently executing event completes.
	Stop()
	// Run executes events until the queue drains or Stop is called.
	Run()
	// RunUntil executes events with timestamps <= t, then advances the
	// clock to t (if it is ahead of the last event).
	RunUntil(t Time)
}

// PhaseKind names a point in an engine's execution pipeline.
type PhaseKind uint8

const (
	// PhaseStart is the pop of a sharded event, PhaseDone the completion of
	// its commit. Every engine reports them, in exact (timestamp, sequence)
	// pop order.
	PhaseStart PhaseKind = iota
	PhaseDone
	// SpecLaunch (a phase handed to a worker ahead of the commit frontier),
	// SpecCommit (a speculation whose result was used at its pop) and
	// SpecRollback (one undone by a straggler) exist only in the parallel
	// engine's optimistic mode. Launch and rollback decisions depend on
	// queue state, never worker timing, so their sequence is deterministic
	// run to run — but no other engine emits them, so a recorder that keeps
	// them forfeits cross-backend trace identity. They stay last, so
	// kind >= SpecLaunch selects them.
	SpecLaunch
	SpecCommit
	SpecRollback
)

// TraceSink is the engine-side virtual-time tracing interface. Engines call
// it only from the driving goroutine, at positions that coincide on every
// engine for the kinds they share, so a recorder that logs calls as they
// arrive produces bit-identical traces on all of them. A nil sink (the
// default) is the fast path: one pointer check per call site.
type TraceSink interface {
	Phase(kind PhaseKind, shard int, at Time)
}

// Probe is the engine's wall-clock telemetry interface, implemented by
// internal/telemetry. It is strictly side-band: engines call it to *report*
// what they decided and to obtain wall-clock stamps, and nothing a probe
// returns may influence scheduling — the digest of a run must be
// byte-identical with and without a probe installed. Engines therefore
// take every stamp they *report* from WallNow — the telemetry package's
// clock, where charmvet's //charmvet:telemetry waiver scopes it. (The one
// clock an engine reads for itself is internal/parsim's grain gate, which
// decides on which goroutine a phase runs and nothing observable.)
//
// All calls arrive on the driving goroutine. A nil probe (the default) is
// the fast path: every call site is guarded by a single pointer check.
type Probe interface {
	// WallNow returns a monotonic wall-clock reading in nanoseconds.
	// Engines use it to stamp launches and measure waits; the reference
	// point is the probe's own.
	WallNow() int64
	// EventExecuted is called after every executed event with the number
	// of still-pending events — the telemetry layer's heartbeat for
	// publish throttling and commit-queue-depth tracking.
	EventExecuted(shard int, at Time, pending int)
	// PhaseWall reports one launched phase after its commit: wallNs is
	// launch→commit-done latency, stallNs the time the driver spent blocked
	// on a helper goroutine for the phase result at pop (running the phase
	// itself is not a stall), speculative whether the launch ran ahead of
	// the commit frontier (optimistic backend).
	PhaseWall(shard int, at Time, wallNs, stallNs int64, speculative bool)
	// WindowStall reports a conservative launch scan that found events in
	// the lookahead window but could launch none of them.
	WindowStall(at Time)
	// SpecLaunched reports an optimistic launch and how far ahead of the
	// commit frontier (GVT) it ran.
	SpecLaunched(shard int, at Time, gvtLag Time)
	// SpecRolledBack reports an undone speculation; waitNs is the wall
	// time the driver spent waiting for the doomed phase to finish.
	SpecRolledBack(shard int, at Time, waitNs int64)
}

// ProbeSetter is implemented by engines that can report wall-clock
// telemetry to a Probe. A nil probe (the default) disables reporting.
type ProbeSetter interface {
	SetProbe(Probe)
}

// Handle names a scheduled event. The Engine contract has no cancellation:
// only the concrete Sequential and Heap engines take a handle back, in
// Cancel. Events in a Calendar are named by slot index + generation, so
// minting a handle never allocates and a fired or recycled slot rejects
// stale handles by construction; the reference Heap engine's handles point
// at its heap node.
type Handle struct {
	ev  *heapEvent
	cal *Calendar
	id  uint64 // slot index << 32 | slot generation
}
