package charm

import (
	"sync"
	"sync/atomic"
)

// message is one asynchronous entry-method invocation in flight or queued.
//
// Messages are pool-recycled: the runtime owns every *message it mints via
// getMsg and returns it with putMsg at exactly one terminal point — the end
// of the delivery commit, a discard/drop, a stale-epoch arrival, the
// retirement of an optimistic replay log, or a queue/pending drain during
// fault recovery. Forwarding paths keep the message alive; nothing outside
// the runtime may retain one past its handler invocation.
//
// A SendVec message owns its payload, like a Charm++ varsize message: vec
// holds the sent values and payload is the message itself, viewed as a
// *Vec. The data therefore lives exactly as long as the message — through
// forwarding, home-PE buffering and replay — and putMsg keeps vec's
// capacity (up to maxPooledVec values) for the next send. The scalar fields
// are int32 so that the slice and the tag still fit the 160-byte size
// class (TestMessageSizeClass).
type message struct {
	dest    elemKey  // element target (when destPE < 0)
	el      *element // destination element, stamped at enqueue (fast delivery)
	payload any
	vec     []float64 // SendVec payload values; capacity survives putMsg
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
// message keeps, so one huge send is not pinned by the pool.
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

var msgPool = sync.Pool{New: func() any { return new(message) }}

// PoolStats counts message-pool traffic for the telemetry layer: Gets-Puts
// is the number of live (checked-out) messages — the event-pool occupancy.
// The counters are process-wide (the pool is), atomic (concurrent phases call
// getMsg concurrently), and strictly side-band: nothing reads them on a
// simulation path.
type PoolStats struct {
	Gets atomic.Uint64
	Puts atomic.Uint64
}

// Outstanding returns the number of currently checked-out messages.
func (ps *PoolStats) Outstanding() int64 {
	return int64(ps.Gets.Load()) - int64(ps.Puts.Load())
}

// poolStats is nil until EnablePoolStats: the disabled hot path is one
// atomic pointer load and a nil check per get/put.
var poolStats atomic.Pointer[PoolStats]

// EnablePoolStats turns on pool accounting (idempotent) and returns the
// process-wide stats. telemetry.Attach calls it; once enabled it stays on.
func EnablePoolStats() *PoolStats {
	ps := &PoolStats{}
	if poolStats.CompareAndSwap(nil, ps) {
		return ps
	}
	return poolStats.Load()
}

// getMsg returns a zeroed message with destEID unresolved. Callers must set
// destPE explicitly (-1 for element targets).
func getMsg() *message {
	if ps := poolStats.Load(); ps != nil {
		ps.Gets.Add(1)
	}
	m := msgPool.Get().(*message)
	m.destEID = -1
	return m
}

// localMsg mints a scheduler message for an element the caller holds a
// pointer to, sent from the element's own PE: pre-stamped with the
// destination, so delivery never consults the location manager (the element
// cannot move between the enqueue and its execution on the same PE's queue).
func localMsg(el *element, ep EP, payload any, prio int64, size int32) *message {
	m := getMsg()
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

// putMsg recycles a message at its terminal point, dropping payload and
// element references so the pool never pins application state. The vector
// capacity stays with the message unless it is above maxPooledVec.
func putMsg(m *message) {
	if ps := poolStats.Load(); ps != nil {
		ps.Puts.Add(1)
	}
	vec := m.vec
	*m = message{}
	if cap(vec) <= maxPooledVec {
		m.vec = vec[:0]
	}
	msgPool.Put(m)
}

// msgQueue is a priority queue ordered by (prio, seq): the PE scheduler
// always picks the highest-priority (lowest value), oldest message —
// message-driven execution.
//
// It is an inline binary min-heap rather than container/heap: (prio, seq)
// is a total order (seq is unique per runtime), so the pop sequence is a
// property of the ordering alone and identical for any correct heap —
// swapping out container/heap (whose every comparison is an interface
// call) cannot change scheduling.
type msgQueue []*message

func msgLess(a, b *message) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (q *msgQueue) push(m *message) {
	//charmvet:retain (the queue owns the message until pop; recycling happens only after delivery commits)
	h := append(*q, m)
	*q = h
	// Sift the hole up instead of swapping: half the writes.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !msgLess(m, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	//charmvet:retain (heap sift: placing the owned message into its slot)
	h[i] = m
}

func (q *msgQueue) pop() *message {
	h := *q
	n := len(h) - 1
	top := h[0]
	m := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && msgLess(h[r], h[c]) {
			c = r
		}
		if !msgLess(h[c], m) {
			break
		}
		h[i] = h[c]
		i = c
	}
	//charmvet:retain (heap sift: placing the owned message into its slot)
	h[i] = m
	return top
}
