package des

import (
	"math/bits"
	"slices"
	"unsafe"
)

// Calendar is the production event store: every engine except the reference
// Heap keeps its pending events here (Sequential directly, internal/parsim
// under its launch pipeline). Every store in it grows by fixed-size pieces
// it never copies, and recycles them, so the steady-state schedule→pop cycle
// allocates nothing and growing to a larger pending set allocates only the
// new pieces:
//
//   - Events live in a slab of 16 KiB pages, recycled through an intrusive
//     free list. A slot id is (page, offset), so a slot never moves: an
//     Event pointer stays valid while its event is queued. A Handle is a
//     (slot id, generation) pair, so minting one does not allocate and a
//     recycled slot safely invalidates old handles.
//   - The pending set is a calendar queue keyed on virtual femtoseconds.
//     A span of fixed-width buckets covers the near future; events beyond
//     the span wait in an overflow list ("far") that reseeds — and retunes
//     the bucket width to the population's spread — each time the span
//     drains. A bucket and the far list keep their first ids inline and
//     the rest in a chain of 512-byte id chunks drawn from one
//     calendar-owned free list: a push is O(1), and a chunk goes back to
//     the free list once its ids are read. A bucket is sorted
//     once when it opens, into a drain run sized once for it; events
//     landing in the already-open bucket go through a small binary heap.
//     Exact (timestamp, sequence) comparisons decide order everywhere, so
//     femtosecond truncation collisions are harmless and the pop order is
//     bit-identical to the reference binary-heap engine's.
//
// The zero value is not usable; call Init.
type Calendar struct {
	seq   uint64
	pages []*page
	fill  int   // slots minted from the last page
	free  int32 // free-list head, -1 when empty
	count int   // scheduled, uncancelled events
	dead  int   // cancelled events not yet reclaimed

	// buckets[cur] is open: its contents were sorted into drain when it
	// opened, and later arrivals for its time range sit in curHeap.
	// buckets[cur+1:] hold ring events; far holds everything past the span.
	width    uint64 // fs per bucket
	spanBase uint64 // fs at buckets[0]'s start
	openEnd  uint64 // fs one past the open bucket's range
	spanEnd  uint64 // fs one past the last bucket's range
	cur      int    // open bucket index (-1 right after a reseed)
	buckets  [calBuckets]chain
	// occ has one bit per ring bucket, set while the bucket holds filed
	// events: a sparse ring (PHOLD fills ~2% of it) is crossed a word at a
	// time instead of a bucket at a time.
	occ      [calBuckets / 64]uint64
	ring     int // events in buckets[cur+1:] (including cancelled)
	far      chain
	farMin   uint64 // fs range of the far list (cancelled entries included)
	farMax   uint64
	spare    *chunk // free chunks, linked through next
	drain    []Ent
	drainPos int
	curHeap  EntHeap
}

const (
	fsPerSec   = 1e15 // femtosecond resolution of the bucket key
	calBuckets = 1024
	// defaultWidthFS starts buckets at 1µs — the scale of the machine
	// models' network latencies — until the first reseed retunes it.
	defaultWidthFS = uint64(1e9)
	// maxWidthFS keeps span arithmetic (bucket count × width) overflow-free.
	maxWidthFS = uint64(1) << 62 / calBuckets

	// A page holds as many slots as fit in 16 KiB, one of the allocator's
	// size classes, so a page wastes less than one slot. A slot id is
	// page<<pageShift | offset; offsets past pageSlots are never minted.
	pageSlots = 16 << 10 / int(unsafe.Sizeof(slot{}))
	pageShift = 8
	// chunkIDs fills a chunk to 512 bytes with its link; inlineIDs fills a
	// chain to 32.
	chunkIDs  = 126
	inlineIDs = 4
)

// A page must hold its slots within the id's offset field.
var _ [1<<pageShift - pageSlots]struct{}

type page [pageSlots]slot

// chunk is one link of an id chain.
type chunk struct {
	next *chunk
	ids  [chunkIDs]int32
}

// chain is a bucket's (or the far list's) ids, n of them: the first
// inlineIDs in inl, the rest in chunks. head holds the last fill ids pushed
// and every chunk behind it is full. The inline ids keep a sparse ring (one
// or two events a bucket, as PHOLD's) off the chunk free list.
type chain struct {
	head *chunk
	n    int32
	fill int32
	inl  [inlineIDs]int32
}

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
	Fn    func()   // global body
	Pfn   PhaseFn  // sharded two-phase body
	Cfn   CommitFn // sharded commit-only body
	A     any
	B     int64
	Seq   uint64 // scheduling sequence number, assigned by the store
	Shard int32
}

// Phase runs a two-phase body's phase and returns its commit closure.
func (ev *Event) Phase() func() { return ev.Pfn(ev.A, ev.B, ev.At) }

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
	if ev.Cfn != nil {
		ev.Cfn(ev.A, ev.B, ev.At)
	} else if commit := ev.Phase(); commit != nil {
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
func (s *slot) drop() { s.Fn, s.Pfn, s.Cfn, s.A = nil, nil, nil, nil }

// Ent is an event's sort key plus slot id, copied out of the slab so
// sorting and sifting touch a compact contiguous array. An Ent stays valid
// as a reference while its event is queued: until it pops or is cancelled.
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
		fill:    pageSlots, // no page yet: the first mint adds one
		free:    -1,
		width:   defaultWidthFS,
		openEnd: defaultWidthFS,
		spanEnd: calBuckets * defaultWidthFS,
		farMin:  ^uint64(0),
	}
}

// Len returns the number of scheduled, uncancelled events.
func (c *Calendar) Len() int { return c.count }

// slot returns the storage of slot id.
func (c *Calendar) slot(id int32) *slot {
	return &c.pages[id>>pageShift][id&(1<<pageShift-1)]
}

// live reports whether the packed handle id refers to a still-scheduled
// event.
func (c *Calendar) live(id uint64) bool {
	s := c.slot(int32(id >> 32))
	return s.gen == uint32(id) && s.state == slotQueued
}

// Scan calls fn with the key and stored body of every scheduled event, in
// slab order. It reads the slab, not the queue, so tests use it as the
// oracle for what the queue and the structures kept beside it must hold.
//
//charmvet:unreached test oracle: TestMinimaMatchCalendarScan checks parsim's pending sets against it
func (c *Calendar) Scan(fn func(k Ent, ev *Event)) {
	for p, pg := range c.pages {
		n := pageSlots
		if p == len(c.pages)-1 {
			n = c.fill
		}
		for i := range pg[:n] {
			if s := &pg[i]; s.state == slotQueued {
				fn(s.key(int32(p<<pageShift|i)), &s.Event)
			}
		}
	}
}

// Event returns the stored event behind a queued key. The pointer stays
// valid while the event is queued.
func (c *Calendar) Event(k Ent) *Event { return &c.slot(k.ID).Event }

// Add schedules an event at t on shard (-1 for a global event), stamping it
// with the next sequence number, and returns it with its key and handle.
// The caller sets exactly one body form on the returned event — in place,
// so scheduling never copies an Event — before the calendar can pop it.
func (c *Calendar) Add(t Time, shard int32) (*Event, Ent, Handle) {
	id := c.free
	var s *slot
	if id >= 0 {
		s = c.slot(id)
		c.free = s.next
	} else {
		id, s = c.mint()
	}
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
		c.toFar(id, fs)
	}
	return &s.Event, k, Handle{cal: c, id: uint64(id)<<32 | uint64(s.gen)}
}

// mint takes a never-used slot, adding a page when the last one is full.
func (c *Calendar) mint() (int32, *slot) {
	if c.fill == pageSlots {
		c.pages = append(c.pages, new(page))
		c.fill = 0
	}
	p := len(c.pages) - 1
	s := &c.pages[p][c.fill]
	id := int32(p<<pageShift | c.fill)
	c.fill++
	return id, s
}

// push appends id to chain l, taking a chunk from the free list (or a new
// one) when l's inline ids and head chunk are full.
func (c *Calendar) push(l *chain, id int32) {
	if l.n < inlineIDs {
		l.inl[l.n] = id
	} else {
		if l.head == nil || l.fill == chunkIDs {
			c.link(l)
		}
		l.head.ids[l.fill] = id
		l.fill++
	}
	l.n++
}

// link puts a chunk from the free list (or a new one) at the head of l.
func (c *Calendar) link(l *chain) {
	ch := c.spare
	if ch != nil {
		c.spare = ch.next
	} else {
		ch = new(chunk)
	}
	ch.next = l.head
	l.head, l.fill = ch, 0
}

// recycle returns a chunk whose ids have been read to the free list and
// returns the chunk that followed it.
func (c *Calendar) recycle(ch *chunk) *chunk {
	next := ch.next
	ch.next = c.spare
	c.spare = ch
	return next
}

// file appends a slot to the ring bucket covering fs, or reports false when
// fs lies past the span. A saturated span end means the last bucket is a
// catch-all: fs keys at the saturation point still belong inside the span.
func (c *Calendar) file(id int32, fs uint64) bool {
	if fs >= c.spanEnd && c.spanEnd != ^uint64(0) {
		return false
	}
	b := min(int((fs-c.spanBase)/c.width), calBuckets-1)
	c.push(&c.buckets[b], id)
	c.occ[b>>6] |= 1 << (b & 63)
	c.ring++
	return true
}

// toFar adds a slot past the span to the far list.
func (c *Calendar) toFar(id int32, fs uint64) {
	c.push(&c.far, id)
	c.farMin, c.farMax = min(c.farMin, fs), max(c.farMax, fs)
}

// Cancel removes h's event if it is still scheduled; an already-fired,
// already-cancelled, or foreign handle is a no-op. The slot is reclaimed
// lazily when its calendar position drains.
func (c *Calendar) Cancel(h Handle) {
	if h.cal != c || !c.live(h.id) {
		return
	}
	s := c.slot(int32(h.id >> 32))
	s.drop()
	s.state = slotCancelled
	s.gen++
	c.count--
	c.dead++
}

// release returns slot id, whose event left the queue, to the free list.
func (c *Calendar) release(id int32, s *slot) {
	s.state = slotFree
	s.next = c.free
	c.free = id
}

// reap releases a cancelled slot whose queue position drained.
func (c *Calendar) reap(id int32, s *slot) {
	c.dead--
	c.release(id, s)
}

// openBucket sorts a bucket's live contents into the drain run and empties
// the bucket.
func (c *Calendar) openBucket(l *chain) {
	c.drain = slices.Grow(c.drain[:0], int(l.n))
	c.drainPos = 0
	for _, id := range l.inl[:min(l.n, inlineIDs)] {
		c.enter(id)
	}
	for ch, m := l.head, l.fill; ch != nil; ch, m = c.recycle(ch), chunkIDs {
		for _, id := range ch.ids[:m] {
			c.enter(id)
		}
	}
	l.head, l.n = nil, 0
	if len(c.drain) > 1 {
		slices.SortFunc(c.drain, entCmp)
	}
}

// enter appends a filed event's key to the drain run, or reaps it if it was
// cancelled.
func (c *Calendar) enter(id int32) {
	s := c.slot(id)
	if s.state == slotCancelled {
		c.reap(id, s)
		return
	}
	c.drain = append(c.drain, s.key(id))
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
	if c.cur == calBuckets-1 || c.openEnd < c.spanBase {
		// The tail bucket's range runs to the span end (which may be
		// saturated — see file), not just one width past its start; and a
		// bucket whose end wraps past 2^64 fs is the tail in all but index
		// (nothing can be filed after it), so it saturates the same way.
		c.openEnd = c.spanEnd
	}
	l := &c.buckets[c.cur]
	c.ring -= int(l.n)
	c.openBucket(l)
}

// reseed rebuilds the span around the far population once the current span
// has fully drained, retuning the bucket width so the population spreads
// across the buckets. The population's range counts cancelled entries too:
// they can only widen the span, never reorder it.
func (c *Calendar) reseed() {
	c.width = min((c.farMax-c.farMin)/calBuckets+1, maxWidthFS)
	c.spanBase = c.farMin
	c.spanEnd = c.farMin + calBuckets*c.width
	if c.spanEnd < c.farMin { // saturate on wraparound
		c.spanEnd = ^uint64(0)
	}
	c.cur = -1
	c.openEnd = c.spanBase
	// Reclaim the cancelled, distribute what the new span covers, and keep
	// the rest far. A chunk is recycled only after its ids are read, so the
	// pushes here reuse the chunks just emptied.
	old := c.far
	c.far, c.farMin, c.farMax = chain{}, ^uint64(0), 0
	for _, id := range old.inl[:min(old.n, inlineIDs)] {
		c.refile(id)
	}
	for ch, m := old.head, old.fill; ch != nil; ch, m = c.recycle(ch), chunkIDs {
		for _, id := range ch.ids[:m] {
			c.refile(id)
		}
	}
}

// refile files a far event into the span, keeps it far, or reaps it if it
// was cancelled.
func (c *Calendar) refile(id int32) {
	s := c.slot(id)
	if s.state == slotCancelled {
		c.reap(id, s)
	} else if fs := toFS(s.At); !c.file(id, fs) {
		c.toFar(id, fs)
	}
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
		// Cancelled heads are reaped here; with none outstanding there is
		// nothing to look up.
		for c.dead > 0 && c.drainPos < len(c.drain) {
			id := c.drain[c.drainPos].ID
			s := c.slot(id)
			if s.state != slotCancelled {
				break
			}
			c.reap(id, s)
			c.drainPos++
		}
		for c.dead > 0 && len(c.curHeap) > 0 {
			id := c.curHeap[0].ID
			s := c.slot(id)
			if s.state != slotCancelled {
				break
			}
			c.reap(id, s)
			c.curHeap.Pop()
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
		case c.far.n > 0:
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
	s := c.slot(k.ID)
	*ev = s.Event
	s.drop()
	s.gen++
	c.count--
	c.release(k.ID, s)
	return true
}
