package charm

import "slices"

// message is one asynchronous entry-method invocation in flight or queued.
//
// Messages are recycled through the runtime's own free lists (msgList): the
// runtime owns every *message it mints and returns it to a list at exactly
// one terminal point — the end of the delivery commit, a discard/drop, a
// stale-epoch arrival, the retirement of an optimistic replay log, or a
// queue/pending drain during fault recovery. Forwarding paths keep the message alive; nothing outside
// the runtime may retain one past its handler invocation.
//
// A SendVec message owns its payload, like a Charm++ varsize message: vec
// holds the sent values and payload is the message itself, viewed as a
// *Vec. The data therefore lives exactly as long as the message — through
// forwarding, home-PE buffering and replay — and a recycled message keeps vec's
// capacity (up to maxPooledVec values) for the next send. The scalar fields
// are int32 so that the slice and the tag still fit the 160-byte size
// class (TestMessageSizeClass).
type message struct {
	dest    elemKey  // element target (when destPE < 0)
	el      *element // destination element, stamped at enqueue (fast delivery)
	payload any
	vec     []float64 // SendVec payload values; capacity survives recycling
	prio    int64     // lower value = higher priority (Charm++ convention)
	seq     uint64    // FIFO tie-break within a priority level
	epoch   uint64    // recovery epoch at transmit; stale messages die on arrival

	// Tracing (internal/projections): traceID is the send event's ID
	// (0 = untraced), cause the ID of the send that triggered the sending
	// execution.
	traceID uint64
	cause   uint64

	destPE  int32 // PE target for PE-level handlers; -1 for element target
	destEID int32 // dense element id of dest, -1 until resolved
	ep      int32
	size    int32 // modeled bytes on the wire
	srcPE   int32
	hops    int32 // location-manager forwarding hops taken so far
	tag     int32 // SendVec tag
}

// maxPooledVec caps the payload capacity (in float64s, 4 KiB) a recycled
// message keeps, so one huge send is not pinned by a free list.
const maxPooledVec = 512

// Vec is the payload of a SendVec delivery: a view of the message that
// carried it, not a copy. It is valid only until the handler returns — the
// runtime then recycles the message and its values with it — so a handler
// that needs the values later copies Data(), and a *Vec can never be the
// payload of another send (msgSize panics).
type Vec message

// Tag returns the tag the sender passed to SendVec.
func (v *Vec) Tag() int { return int(v.tag) }

// Data returns the sent values. The slice is the message's own storage.
func (v *Vec) Data() []float64 { return v.vec }

// msgList is a free list of recycled messages, owned by one runtime. The
// runtime keeps one list for its driver — every commit, global event and
// driver call — and, on the parallel backends, one per shard, which only
// that shard's phases take from and only its commits (and rollbacks) put
// back into: the engine runs commit(i) before phase(i+1) and at most one
// phase per shard, so each list has a single writer at any moment and
// needs no synchronization. The sequential engine runs every phase on the
// driver, so there each PE takes from the driver list.
//
// A list is a slice of pointers rather than a link through the message, so
// the message keeps its size class (TestMessageSizeClass), and it never
// preallocates: a take from an empty list mints one message.
type msgList struct {
	free []*message
	// stats counts this list's traffic. A shard list's counts are folded
	// into the driver list's at the shard's commits (see settle), so the
	// driver list's stats are the runtime's totals.
	stats PoolStats
}

// PoolStats counts a runtime's message traffic: Gets-Puts is the number of
// live (checked-out) messages — the event-pool occupancy — and Fresh the
// number of messages minted because a list was empty. The counts are a
// deterministic function of the run: the same at any worker count.
type PoolStats struct {
	Gets  uint64
	Puts  uint64
	Fresh uint64
}

// Outstanding returns the number of currently checked-out messages.
func (ps PoolStats) Outstanding() int64 { return int64(ps.Gets) - int64(ps.Puts) }

// PoolStats returns the runtime's message-pool counters, exact as of every
// shard's last commit. Driver context: telemetry reads it at publication,
// while helpers may be running phases, and touches no shard's list.
func (rt *Runtime) PoolStats() PoolStats { return rt.msgs.stats }

// get returns a zeroed message with destEID unresolved. Callers must set
// destPE explicitly (-1 for element targets).
func (l *msgList) get() *message {
	l.stats.Gets++
	n := len(l.free) - 1
	if n < 0 {
		l.stats.Fresh++
		return &message{destEID: -1}
	}
	m := l.free[n]
	l.free[n] = nil
	l.free = l.free[:n]
	m.destEID = -1
	return m
}

// put recycles a message at its terminal point, dropping payload and
// element references so the list never pins application state. The vector
// capacity stays with the message unless it is above maxPooledVec.
func (l *msgList) put(m *message) {
	l.stats.Puts++
	vec := m.vec
	*m = message{}
	if cap(vec) <= maxPooledVec {
		m.vec = vec[:0]
	}
	if n := len(l.free); n == cap(l.free) {
		// Double: append's gentler growth for large slices would copy a
		// list that a run's end floods with every message several times.
		l.free = slices.Grow(l.free, n+8)
	}
	//charmvet:retain (this IS the pool: the free list the next send draws from)
	l.free = append(l.free, m)
}

// msgStock bounds a shard list's drift. Sends leave from one shard and are
// freed on another, so a shard's stock grows or drains with its traffic
// balance: past 2*msgStock the surplus above msgStock spills to the driver
// list, and a shard list that runs below msgStock/4 refills to msgStock from
// it.
const msgStock = 8

// settle runs at the end of a commit or rollback on l's shard, the one
// moment the driver may touch l: it folds the list's counts into the
// runtime's totals and bounds its stock against the driver list.
func (rt *Runtime) settle(l *msgList) {
	d := &rt.msgs
	if l == d {
		return
	}
	d.stats.Gets += l.stats.Gets
	d.stats.Puts += l.stats.Puts
	d.stats.Fresh += l.stats.Fresh
	l.stats = PoolStats{}
	switch n := len(l.free); {
	case n > 2*msgStock:
		d.free = append(d.free, l.free[msgStock:]...)
		clear(l.free[msgStock:])
		l.free = l.free[:msgStock]
	case n < msgStock/4 && len(d.free) > 0:
		k := len(d.free) - (msgStock - n)
		if k < 0 {
			k = 0
		}
		l.free = append(l.free, d.free[k:]...)
		clear(d.free[k:])
		d.free = d.free[:k]
	}
}

// getMsg takes a message for a send made by c: from its PE's list while
// the handler runs as a phase, from the driver list in commit context.
func (c *Ctx) getMsg() *message {
	if c.phase {
		return c.rt.pes[c.pe].msgs.get()
	}
	return c.rt.msgs.get()
}

// localMsg fills m as a scheduler message for an element the caller holds
// a pointer to, sent from the element's own PE: pre-stamped with the
// destination, so delivery never consults the location manager (the element
// cannot move between the enqueue and its execution on the same PE's queue).
func localMsg(m *message, el *element, ep EP, payload any, prio int64, size int32) *message {
	m.dest = el.key
	m.destPE = -1
	m.destEID = el.eid
	m.el = el
	m.ep = int32(ep)
	m.payload = payload
	m.prio = prio
	m.size = size
	m.srcPE = int32(el.pe)
	return m
}

// msgQueue is a PE's scheduler queue, ordered by (prio, seq): the PE
// always runs the highest-priority (lowest value), oldest message —
// message-driven execution with prioritized messages (§IV-C).
//
// Charm++ keeps that order with one FIFO per priority level, so a
// default-priority enqueue or dequeue is O(1). msgQueue gets the same costs
// from one power-of-two ring kept sorted by insertion: pop takes the head,
// and since seq grows with every enqueue, a message at the lowest priority
// present goes on at the tail without shifting. A higher-priority message
// (control traffic, barnes' -10) is placed by binary search and shifts the
// shorter side of the ring by one slot — control messages sit at the head,
// so they move only the few control messages already there. (prio, seq) is
// a total order, so the pop sequence is a property of the ordering alone.
//
// The ring is one array per PE, never one per priority level: it grows by
// doubling from one slot and never preallocates, so a PE that is never sent
// to holds no array at all, and drain releases it. head and n are int32, so
// the queue costs peState one word more than a slice.
type msgQueue struct {
	buf  []*message // len(buf) is 0 or a power of two
	head int32      // index of the next message to pop
	n    int32      // queued messages
}

func msgLess(a, b *message) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// len returns the number of queued messages.
func (q *msgQueue) len() int { return int(q.n) }

// at returns the i-th message in pop order.
func (q *msgQueue) at(i int32) *message {
	return q.buf[(q.head+i)&int32(len(q.buf)-1)]
}

func (q *msgQueue) set(i int32, m *message) {
	//charmvet:retain (the queue owns the message until pop; recycling happens only after delivery commits)
	q.buf[(q.head+i)&int32(len(q.buf)-1)] = m
}

// grow doubles the ring, unrolling it so the head sits at slot 0.
func (q *msgQueue) grow() {
	n := 2 * len(q.buf)
	if n == 0 {
		n = 1
	}
	buf := make([]*message, n)
	for i := int32(0); i < q.n; i++ {
		buf[i] = q.at(i)
	}
	q.buf, q.head = buf, 0
}

// push enqueues m behind every message that orders before it.
func (q *msgQueue) push(m *message) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	if q.n == 0 || !msgLess(m, q.at(q.n-1)) {
		q.set(q.n, m)
		q.n++
		return
	}
	// Binary search for the first queued message m orders before.
	lo, hi := int32(0), q.n-1
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if msgLess(m, q.at(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.insert(lo, m)
}

// insert places m at position i, shifting the shorter side by one slot.
func (q *msgQueue) insert(i int32, m *message) {
	if i < q.n-i {
		q.head = (q.head - 1) & int32(len(q.buf)-1)
		for j := int32(0); j < i; j++ {
			q.set(j, q.at(j+1))
		}
	} else {
		for j := q.n; j > i; j-- {
			q.set(j, q.at(j-1))
		}
	}
	q.set(i, m)
	q.n++
}

// pop removes and returns the head: the highest-priority, oldest message.
// The queue must not be empty.
func (q *msgQueue) pop() *message {
	h := q.head
	m := q.buf[h]
	q.buf[h] = nil
	q.head = (h + 1) & int32(len(q.buf)-1)
	q.n--
	return m
}

// unpop puts back the message the last pop returned, at the head: a
// rolled-back speculation does so before anything else is enqueued on the
// PE, so the queue is again exactly what it was before the pop.
func (q *msgQueue) unpop(m *message) {
	if int(q.n) == len(q.buf) {
		q.grow()
	}
	q.insert(0, m)
}

// drain hands every queued message to f in pop order and releases the ring.
func (q *msgQueue) drain(f func(*message)) {
	for i := int32(0); i < q.n; i++ {
		f(q.at(i))
	}
	*q = msgQueue{}
}
