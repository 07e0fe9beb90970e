package charm

import (
	"math/bits"
	"slices"
	"testing"
)

// FuzzMsgQueueOrder runs a byte program against the scheduler ring and a
// reference that keeps the queued messages unsorted and pops the minimum
// (prio, seq) by a scan. Each byte is one operation: b%4 is 0 or 1 for a
// push, 2 for a pop, 3 for a rollback's re-push of the message the
// operation before popped (a no-op after anything else, as a speculation
// is rolled back before its PE enqueues again); (b/4)%4 picks the push's
// priority among control traffic, barnes' -10, the default and 7. A push
// takes the next sequence number, as enqueue does.
// Every pop must be the reference's, and the ring must never hold more
// slots than its peak occupancy rounded up to a power of two.
func FuzzMsgQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 2, 2, 2})                  // default priority: FIFO
	f.Add([]byte{0, 4, 8, 12, 0, 4, 2, 2, 2, 2, 2, 2})     // every level, interleaved
	f.Add([]byte{8, 8, 8, 0, 0, 4, 2, 3, 2, 3, 2, 2, 2})   // control behind control, re-pushed
	f.Add([]byte{12, 12, 12, 12, 12, 4, 4, 2, 3, 2, 0, 2}) // -10 placed mid-ring
	f.Add([]byte{1, 5, 9, 13, 2, 2, 1, 5, 9, 13, 2, 3, 3}) // wraps the ring
	prios := [4]int64{0, -10, prioControl, 7}
	f.Fuzz(func(t *testing.T, prog []byte) {
		var q msgQueue
		var ref []*message
		var seq uint64
		var last *message // what the previous operation popped
		peak := 0
		for i, b := range prog {
			popped := last
			last = nil
			switch b % 4 {
			case 0, 1:
				m := &message{prio: prios[b/4%4], seq: seq}
				seq++
				q.push(m)
				ref = append(ref, m)
			case 2:
				if len(ref) == 0 {
					continue
				}
				j := 0
				for k := range ref {
					if msgLess(ref[k], ref[j]) {
						j = k
					}
				}
				want := ref[j]
				ref = slices.Delete(ref, j, j+1)
				if got := q.pop(); got != want {
					t.Fatalf("op %d: popped (%d, %d), want (%d, %d)", i, got.prio, got.seq, want.prio, want.seq)
				}
				last = want
			case 3:
				if popped == nil {
					continue
				}
				q.unpop(popped)
				ref = append(ref, popped)
			}
			if q.len() != len(ref) {
				t.Fatalf("op %d: queue holds %d, want %d", i, q.len(), len(ref))
			}
			if len(ref) > peak {
				peak = len(ref)
			}
			if limit := ringSlots(peak); len(q.buf) > limit {
				t.Fatalf("op %d: ring of %d slots for a peak of %d messages, want at most %d", i, len(q.buf), peak, limit)
			}
		}
		slices.SortFunc(ref, func(a, b *message) int {
			if msgLess(a, b) {
				return -1
			}
			return 1
		})
		var rest []*message
		q.drain(func(m *message) { rest = append(rest, m) })
		if !slices.Equal(rest, ref) || q.len() != 0 || q.buf != nil {
			t.Fatalf("drain returned %d messages out of order or left the ring behind (%d queued, %d slots)", len(rest), q.len(), len(q.buf))
		}
	})
}

// ringSlots is n rounded up to a power of two (0 for 0).
func ringSlots(n int) int {
	if n == 0 {
		return 0
	}
	return 1 << bits.Len(uint(n-1))
}
