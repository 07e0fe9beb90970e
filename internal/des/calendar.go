package des

import (
	"math/bits"
	"slices"
)

// Calendar is the production event store: every engine except the reference
// Heap keeps its pending events here (Sequential directly, internal/parsim
// under its launch pipeline). It is designed so the steady-state
// schedule→pop cycle allocates nothing:
//
//   - Events live in a slab ([]slot) recycled through an intrusive free
//     list; a Handle is a (slot index, generation) pair, so minting one
//     does not allocate and a recycled slot safely invalidates old handles.
//   - The pending set is a calendar queue keyed on virtual femtoseconds.
//     A span of fixed-width buckets covers the near future; events beyond
//     the span wait in an overflow list ("far") that reseeds — and retunes
//     the bucket width to the population's spread — each time the span
//     drains. Pushes into a future bucket are O(1) appends; a bucket is
//     sorted once when it opens; events landing in the already-open bucket
//     go through a small binary heap. Exact (timestamp, sequence)
//     comparisons decide order everywhere, so femtosecond truncation
//     collisions are harmless and the pop order is bit-identical to the
//     reference binary-heap engine's.
//
// The zero value is not usable; call Init.
type Calendar struct {
	seq   uint64
	slots []slot
	free  int32 // free-list head, -1 when empty
	count int   // scheduled, uncancelled events

	// buckets[cur] is open: its contents were sorted into drain when it
	// opened, and later arrivals for its time range sit in curHeap.
	// buckets[cur+1:] hold ring events; far holds everything past the span.
	width    uint64 // fs per bucket
	spanBase uint64 // fs at buckets[0]'s start
	openEnd  uint64 // fs one past the open bucket's range
	spanEnd  uint64 // fs one past the last bucket's range
	cur      int    // open bucket index (-1 right after a reseed)
	buckets  [][]int32
	// occ has one bit per ring bucket, set while the bucket holds filed
	// events: a sparse ring (PHOLD fills ~2% of it) is crossed a word at a
	// time instead of a bucket at a time.
	occ      [calBuckets / 64]uint64
	ring     int // events in buckets[cur+1:] (including cancelled)
	drain    []Ent
	drainPos int
	curHeap  EntHeap
	far      []int32
}

const (
	fsPerSec   = 1e15 // femtosecond resolution of the bucket key
	calBuckets = 1024
	// defaultWidthFS starts buckets at 1µs — the scale of the machine
	// models' network latencies — until the first reseed retunes it.
	defaultWidthFS = uint64(1e9)
	// maxWidthFS keeps span arithmetic (bucket count × width) overflow-free.
	maxWidthFS = uint64(1) << 62 / calBuckets
)

// toFS converts a timestamp to femtoseconds, saturating (Forever and
// anything else past the uint64 range map to the maximum key). The
// conversion is monotone, which is all bucket placement needs; ordering
// within and across buckets is decided by exact (at, seq) comparison.
func toFS(t Time) uint64 {
	f := float64(t) * fsPerSec
	if f >= 18446744073709549568.0 { // largest float64 below 2^64
		return ^uint64(0)
	}
	return uint64(f)
}

// Event is one scheduled event: its timestamp, exactly one body form, and
// the key fields the store assigns. Global events (Fn) carry Shard -1.
type Event struct {
	At    Time
	Fn    func()        // global body
	Sfn   func() func() // sharded two-phase body (closure form)
	Pfn   PhaseFn       // sharded two-phase body (preallocated form)
	Cfn   CommitFn      // sharded commit-only body
	A     any
	B     int64
	Seq   uint64 // scheduling sequence number, assigned by the store
	Shard int32
}

// Phase runs a two-phase body's phase and returns its commit closure.
func (ev *Event) Phase() func() {
	if ev.Pfn != nil {
		return ev.Pfn(ev.A, ev.B, ev.At)
	}
	return ev.Sfn()
}

// Exec runs the whole event on the calling goroutine, the way the
// single-threaded engines do: a global body bare; a sharded one — a
// commit-only body outright, a two-phase body's phase then its commit —
// bracketed by the sink's phase events.
func (ev *Event) Exec(sink TraceSink) {
	if ev.Fn != nil {
		ev.Fn()
		return
	}
	if sink != nil {
		sink.Phase(PhaseStart, int(ev.Shard), ev.At)
	}
	var commit func()
	switch {
	case ev.Cfn != nil:
		ev.Cfn(ev.A, ev.B, ev.At)
	case ev.Pfn != nil:
		commit = ev.Pfn(ev.A, ev.B, ev.At)
	default:
		commit = ev.Sfn()
	}
	if commit != nil {
		commit()
	}
	if sink != nil {
		sink.Phase(PhaseDone, int(ev.Shard), ev.At)
	}
}

const (
	slotFree uint8 = iota
	slotQueued
	slotCancelled // lazily reclaimed when its queue position drains
)

// slot is one event's storage in the slab.
type slot struct {
	Event
	gen   uint32
	next  int32 // free-list link while free
	state uint8
}

func (s *slot) key(id int32) Ent { return Ent{At: s.At, Seq: s.Seq, ID: id, Shard: s.Shard} }

// drop releases the body of an event that left the queue.
func (s *slot) drop() { s.Fn, s.Sfn, s.Pfn, s.Cfn, s.A = nil, nil, nil, nil, nil }

// Ent is an event's sort key plus slot id, copied out of the slab so
// sorting and sifting touch a compact contiguous array. An Ent stays valid
// as a reference for as long as Queued reports true for it.
type Ent struct {
	At    Time
	Seq   uint64
	ID    int32
	Shard int32
}

// Before reports whether x precedes y in the engines' total event order
// (timestamp, then scheduling sequence).
func (x Ent) Before(y Ent) bool {
	if x.At != y.At {
		return x.At < y.At
	}
	return x.Seq < y.Seq
}

func entCmp(x, y Ent) int {
	if x.Before(y) {
		return -1
	}
	if y.Before(x) {
		return 1
	}
	return 0
}

// EntHeap is a binary min-heap of Ents in event order.
type EntHeap []Ent

// Push adds x to the heap.
func (hp *EntHeap) Push(x Ent) {
	h := append(*hp, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].Before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*hp = h
}

// Pop removes and returns the earliest entry of a non-empty heap.
func (hp *EntHeap) Pop() Ent {
	h := *hp
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h[l].Before(h[m]) {
			m = l
		}
		if r < n && h[r].Before(h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*hp = h
	return top
}

// Init readies an empty calendar.
func (c *Calendar) Init() {
	*c = Calendar{
		free:    -1,
		width:   defaultWidthFS,
		openEnd: defaultWidthFS,
		spanEnd: calBuckets * defaultWidthFS,
		buckets: make([][]int32, calBuckets),
	}
}

// Len returns the number of scheduled, uncancelled events.
func (c *Calendar) Len() int { return c.count }

// live reports whether the packed handle id refers to a still-scheduled
// event.
func (c *Calendar) live(id uint64) bool {
	idx := int(id >> 32)
	return idx < len(c.slots) && c.slots[idx].gen == uint32(id) && c.slots[idx].state == slotQueued
}

// Queued reports whether the event k was minted for is still scheduled: its
// slot has been neither popped, cancelled, nor recycled for a later event.
func (c *Calendar) Queued(k Ent) bool {
	s := &c.slots[k.ID]
	return s.state == slotQueued && s.Seq == k.Seq
}

// Event returns the stored event behind a queued key. The pointer is valid
// only until the next Add.
func (c *Calendar) Event(k Ent) *Event { return &c.slots[k.ID].Event }

// Handle returns the cancellation handle of the event behind a queued key.
func (c *Calendar) Handle(k Ent) Handle {
	return Handle{cal: c, id: uint64(k.ID)<<32 | uint64(c.slots[k.ID].gen)}
}

// Add schedules an event at t on shard (-1 for a global event), stamping it
// with the next sequence number. The caller sets exactly one body form on
// the returned event — in place, so scheduling never copies an Event — before
// touching the calendar again.
func (c *Calendar) Add(t Time, shard int32) (*Event, Ent) {
	var id int32
	if c.free >= 0 {
		id = c.free
		c.free = c.slots[id].next
	} else {
		c.slots = append(c.slots, slot{})
		id = int32(len(c.slots) - 1)
	}
	s := &c.slots[id]
	s.At, s.Seq, s.Shard = t, c.seq, shard
	c.seq++
	s.state = slotQueued
	c.count++
	k := s.key(id)
	// A saturated openEnd is the open catch-all tail bucket (see file):
	// nothing lies past it, so a key at the saturation point joins it too.
	if fs := toFS(t); fs < c.openEnd || c.openEnd == ^uint64(0) {
		c.curHeap.Push(k)
	} else if !c.file(id, fs) {
		c.far = append(c.far, id)
	}
	return &s.Event, k
}

// file appends a slot to the ring bucket covering fs, or reports false when
// fs lies past the span. A saturated span end means the last bucket is a
// catch-all: fs keys at the saturation point still belong inside the span.
func (c *Calendar) file(id int32, fs uint64) bool {
	if fs >= c.spanEnd && c.spanEnd != ^uint64(0) {
		return false
	}
	b := min(int((fs-c.spanBase)/c.width), len(c.buckets)-1)
	c.buckets[b] = append(c.buckets[b], id)
	c.occ[b>>6] |= 1 << (b & 63)
	c.ring++
	return true
}

// Cancel removes h's event if it is still scheduled and returns its key;
// an already-fired, already-cancelled, or foreign handle reports false. The
// slot is reclaimed lazily when its calendar position drains.
func (c *Calendar) Cancel(h Handle) (Ent, bool) {
	if h.cal != c || !c.live(h.id) {
		return Ent{}, false
	}
	id := int32(h.id >> 32)
	s := &c.slots[id]
	k := s.key(id)
	s.drop()
	s.state = slotCancelled
	s.gen++
	c.count--
	return k, true
}

// reclaim returns a popped or drained cancelled slot to the free list.
func (c *Calendar) reclaim(id int32) {
	s := &c.slots[id]
	s.state = slotFree
	s.next = c.free
	c.free = id
}

// openBucket sorts a bucket's live contents into the drain run.
func (c *Calendar) openBucket(ids []int32) {
	c.drain = c.drain[:0]
	c.drainPos = 0
	for _, id := range ids {
		s := &c.slots[id]
		if s.state == slotCancelled {
			c.reclaim(id)
			continue
		}
		c.drain = append(c.drain, s.key(id))
	}
	slices.SortFunc(c.drain, entCmp)
}

// advanceBucket moves to the next occupied ring bucket and opens it.
// Callers guarantee ring > 0.
func (c *Calendar) advanceBucket() {
	b := c.cur + 1
	w := b >> 6
	if w >= len(c.occ) {
		panic("des: calendar ring accounting broken")
	}
	word := c.occ[w] &^ (1<<(b&63) - 1) // occupied buckets at or past b
	for word == 0 {
		if w++; w >= len(c.occ) {
			panic("des: calendar ring accounting broken")
		}
		word = c.occ[w]
	}
	c.cur = w<<6 + bits.TrailingZeros64(word)
	c.occ[w] &^= 1 << (c.cur & 63)
	c.openEnd = c.spanBase + uint64(c.cur+1)*c.width
	if c.cur == len(c.buckets)-1 || c.openEnd < c.spanBase {
		// The tail bucket's range runs to the span end (which may be
		// saturated — see file), not just one width past its start; and a
		// bucket whose end wraps past 2^64 fs is the tail in all but index
		// (nothing can be filed after it), so it saturates the same way.
		c.openEnd = c.spanEnd
	}
	ids := c.buckets[c.cur]
	c.ring -= len(ids)
	c.buckets[c.cur] = ids[:0]
	c.openBucket(ids)
}

// reseed rebuilds the span around the far population once the current span
// has fully drained, retuning the bucket width so the population spreads
// across the buckets.
func (c *Calendar) reseed() {
	// Pass 1: drop cancelled entries, find the population's fs range.
	live := c.far[:0]
	minFS, maxFS := ^uint64(0), uint64(0)
	for _, id := range c.far {
		s := &c.slots[id]
		if s.state == slotCancelled {
			c.reclaim(id)
			continue
		}
		fs := toFS(s.At)
		minFS = min(minFS, fs)
		maxFS = max(maxFS, fs)
		live = append(live, id)
	}
	c.far = live
	if len(live) == 0 {
		return
	}
	c.width = min((maxFS-minFS)/uint64(len(c.buckets))+1, maxWidthFS)
	c.spanBase = minFS
	c.spanEnd = minFS + uint64(len(c.buckets))*c.width
	if c.spanEnd < minFS { // saturate on wraparound
		c.spanEnd = ^uint64(0)
	}
	c.cur = -1
	c.openEnd = c.spanBase
	// Pass 2: distribute what the new span covers; the rest stays far.
	rest := c.far[:0]
	for _, id := range c.far {
		if !c.file(id, toFS(c.slots[id].At)) {
			rest = append(rest, id)
		}
	}
	c.far = rest
	c.advanceBucket()
}

// Peek normalizes the calendar until a head event is visible and returns
// its key without consuming it; false means the calendar is empty.
func (c *Calendar) Peek() (Ent, bool) {
	k, _, ok := c.peek()
	return k, ok
}

// peek is Peek that also reports where the head sits (true: curHeap,
// false: the drain run).
func (c *Calendar) peek() (k Ent, inHeap, ok bool) {
	for {
		for c.drainPos < len(c.drain) && c.slots[c.drain[c.drainPos].ID].state == slotCancelled {
			c.reclaim(c.drain[c.drainPos].ID)
			c.drainPos++
		}
		for len(c.curHeap) > 0 && c.slots[c.curHeap[0].ID].state == slotCancelled {
			c.reclaim(c.curHeap.Pop().ID)
		}
		hasD := c.drainPos < len(c.drain)
		hasH := len(c.curHeap) > 0
		switch {
		case hasD && (!hasH || c.drain[c.drainPos].Before(c.curHeap[0])):
			return c.drain[c.drainPos], false, true
		case hasH:
			return c.curHeap[0], true, true
		case c.ring > 0:
			c.advanceBucket()
		case len(c.far) > 0:
			c.reseed()
		default:
			return Ent{}, false, false
		}
	}
}

// Pop moves the earliest scheduled event into *ev and recycles its slot
// (which invalidates the event's handle); false means the calendar is empty.
func (c *Calendar) Pop(ev *Event) bool {
	k, inHeap, ok := c.peek()
	if !ok {
		return false
	}
	if inHeap {
		c.curHeap.Pop()
	} else {
		c.drainPos++
	}
	s := &c.slots[k.ID]
	*ev = s.Event
	s.drop()
	s.gen++
	c.count--
	c.reclaim(k.ID)
	return true
}
