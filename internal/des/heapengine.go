package des

import (
	"container/heap"
	"fmt"
)

// Heap is the original binary-heap sequential executor, retained as the
// reference implementation: the calendar-queue Sequential must produce the
// exact (timestamp, sequence) pop order this engine does (the differential
// tests enforce it), and the scale benchmarks measure the calendar engine's
// speedup against it in the same process, which makes the recorded ratio
// host-independent.
type Heap struct {
	now      Time
	seq      uint64
	heap     eventHeap
	stopped  bool
	executed uint64
}

// NewHeapEngine returns the reference binary-heap engine with the clock at
// zero.
func NewHeapEngine() *Heap {
	return &Heap{}
}

// heapEvent is a scheduled Event plus its position in the binary heap.
type heapEvent struct {
	Event
	pos int // heap index, -1 when popped or cancelled
}

type eventHeap []*heapEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].Seq < h[j].Seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*heapEvent)
	ev.pos = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.pos = -1
	*h = old[:n-1]
	return ev
}

// Now returns the current virtual time.
func (e *Heap) Now() Time { return e.now }

// Pending returns the number of scheduled, uncancelled events.
func (e *Heap) Pending() int { return len(e.heap) }

// GlobalHorizon returns the current time: the heap engine never has work in
// flight.
func (e *Heap) GlobalHorizon() Time { return e.now }

// Executed counts events that have run.
func (e *Heap) Executed() uint64 { return e.executed }

// add schedules ev. Scheduling in the past panics: it would silently
// reorder causality.
func (e *Heap) add(ev Event) Handle {
	if ev.At < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", ev.At, e.now))
	}
	ev.Seq = e.seq
	e.seq++
	he := &heapEvent{Event: ev}
	heap.Push(&e.heap, he)
	return Handle{ev: he}
}

// At schedules fn to run at absolute virtual time t.
func (e *Heap) At(t Time, fn func()) Handle {
	return e.add(Event{At: t, Fn: fn, Shard: -1})
}

// AtShard schedules a two-phase event; phase and commit run back to back.
func (e *Heap) AtShard(shard int, t Time, fn func() func()) Handle {
	return e.add(Event{At: t, Sfn: fn, Shard: int32(shard)})
}

// AtShardFn schedules a two-phase event from a preallocated PhaseFn.
func (e *Heap) AtShardFn(shard int, t Time, fn PhaseFn, a any, b int64) Handle {
	return e.add(Event{At: t, Pfn: fn, A: a, B: b, Shard: int32(shard)})
}

// AtShardCommit schedules a commit-only sharded event from a preallocated
// CommitFn.
func (e *Heap) AtShardCommit(shard int, t Time, fn CommitFn, a any, b int64) Handle {
	return e.add(Event{At: t, Cfn: fn, A: a, B: b, Shard: int32(shard)})
}

// After schedules fn to run d seconds from now.
func (e *Heap) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Heap) Cancel(h Handle) {
	if h.ev != nil && h.ev.pos >= 0 {
		heap.Remove(&e.heap, h.ev.pos)
	}
}

// Stop makes Run return after the currently executing event completes.
func (e *Heap) Stop() { e.stopped = true }

// Step executes the single earliest event. It reports false when no events
// remain.
func (e *Heap) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(*heapEvent)
	e.now = ev.At
	e.executed++
	ev.Exec(nil)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Heap) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t (if it is ahead of the last event).
func (e *Heap) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 && e.heap[0].At <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
