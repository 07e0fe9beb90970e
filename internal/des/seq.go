package des

import "fmt"

// Sequential is the single-threaded deterministic event executor: a clock
// over a Calendar. The zero value is not usable; call NewEngine.
type Sequential struct {
	cal      Calendar
	now      Time
	stopped  bool
	executed uint64
	sink     TraceSink
	probe    Probe
}

// NewEngine returns a sequential engine with the clock at zero.
func NewEngine() *Sequential {
	e := &Sequential{}
	e.cal.Init()
	return e
}

// Now returns the current virtual time.
func (e *Sequential) Now() Time { return e.now }

// Pending returns the number of scheduled, uncancelled events.
func (e *Sequential) Pending() int { return e.cal.Len() }

// GlobalHorizon returns the earliest time a global event may be scheduled
// without reordering work already underway. The sequential engine never has
// work in flight, so its horizon is the current time.
func (e *Sequential) GlobalHorizon() Time { return e.now }

// Executed counts events that have run.
func (e *Sequential) Executed() uint64 { return e.executed }

// SetTraceSink installs (or, with nil, removes) the engine's phase-event
// sink. Install it before Run; the zero-sink path is a nil check.
func (e *Sequential) SetTraceSink(s TraceSink) { e.sink = s }

// SetProbe installs (or, with nil, removes) the engine's wall-clock
// telemetry probe. Install it before Run; the zero-probe path is a nil
// check per event.
func (e *Sequential) SetProbe(p Probe) { e.probe = p }

// add schedules a bodiless event for the caller to fill in. Scheduling in
// the past panics: it would silently reorder causality.
func (e *Sequential) add(t Time, shard int) (*Event, Handle) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	ev, k := e.cal.Add(t, int32(shard))
	return ev, e.cal.Handle(k)
}

// At schedules fn to run at absolute virtual time t.
func (e *Sequential) At(t Time, fn func()) Handle {
	ev, h := e.add(t, -1)
	ev.Fn = fn
	return h
}

// AtShard schedules a two-phase event; the sequential engine ignores the
// shard and runs phase and commit back to back, which makes the sharded
// path behaviourally identical to a plain At.
func (e *Sequential) AtShard(shard int, t Time, fn func() func()) Handle {
	ev, h := e.add(t, shard)
	ev.Sfn = fn
	return h
}

// AtShardFn schedules a two-phase event from a preallocated PhaseFn.
func (e *Sequential) AtShardFn(shard int, t Time, fn PhaseFn, a any, b int64) Handle {
	ev, h := e.add(t, shard)
	ev.Pfn, ev.A, ev.B = fn, a, b
	return h
}

// AtShardCommit schedules a commit-only sharded event from a preallocated
// CommitFn.
func (e *Sequential) AtShardCommit(shard int, t Time, fn CommitFn, a any, b int64) Handle {
	ev, h := e.add(t, shard)
	ev.Cfn, ev.A, ev.B = fn, a, b
	return h
}

// After schedules fn to run d seconds from now.
func (e *Sequential) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Sequential) Cancel(h Handle) { e.cal.Cancel(h) }

// Stop makes Run return after the currently executing event completes.
func (e *Sequential) Stop() { e.stopped = true }

// Step executes the single earliest event. It reports false when no events
// remain.
func (e *Sequential) Step() bool {
	var ev Event
	if !e.cal.Pop(&ev) {
		return false
	}
	e.now = ev.At
	e.executed++
	ev.Exec(e.sink)
	if e.probe != nil {
		e.probe.EventExecuted(int(ev.Shard), ev.At, e.cal.Len())
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Sequential) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (if it is ahead of the last event). Events scheduled during execution
// are honoured if they fall within the horizon.
func (e *Sequential) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		if k, ok := e.cal.Peek(); !ok || k.At > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
