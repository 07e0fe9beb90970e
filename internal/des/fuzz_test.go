package des

import (
	"math"
	"testing"
)

// FuzzCalendarMatchesHeap runs one byte-encoded event program on the
// calendar engine and on the reference Heap engine and requires the same pop
// order (label and instant of every executed event) from both.
//
// The program is a sequence of operations, each an opcode byte (low three
// bits) and its argument bytes; a missing byte reads as 0:
//
//	0, 1  At(stamp)                       one global event
//	2     AtShardCommit(op>>3 % 4, stamp) one commit-only sharded event
//	3     a cluster: 1+2·n events at one stamp, alternating the two forms
//	4     Cancel the handle at a two-byte index (fired or cancelled: no-op)
//	5     Cancel the 1+n%32 most recent handles
//	6     RunUntil(stamp)
//	7     RunUntil(Now())
//
// A stamp is a shape byte and an argument byte. The shapes are Now(),
// Forever, Now() plus nanoseconds or microseconds, a bucket boundary of the
// live calendar (nudged ±1 ulp), the open bucket's or the span's end, the
// far future (1 s to 1e5 s ahead, which reseeds the span) and keys at or past
// calendar saturation (2^64 fs ≈ 18446.744 s). Each executed event reads one
// more byte; when its low two bits are 1 it schedules a child, which may land
// in the bucket already open. A cluster of up to 511 events outgrows a slab
// page and a chunk, so page and chunk boundaries are crossed at one instant.
//
// The calendar run picks every stamp and the oracle replays them in order,
// so shapes that read the calendar's state cost the oracle nothing. The
// seed corpus under testdata/fuzz names one program per shape.
func FuzzCalendarMatchesHeap(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		cal := &fuzzRun{prog: prog}
		e := NewEngine()
		cal.e, cal.cal = e, &e.cal
		got := cal.run()
		ref := &fuzzRun{prog: prog, e: NewHeapEngine(), stamps: cal.stamps}
		want := ref.run()
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("pop %d of %d/%d: calendar %v, heap %v", i, len(got), len(want), popAt(got, i), popAt(want, i))
		}
	})
}

// fuzzPop is one executed event: its label (the order it was scheduled in)
// and the instant it ran.
type fuzzPop struct {
	label int64
	at    Time
}

// cancelEngine is the engine contract plus the Cancel that Sequential and
// Heap keep outside it.
type cancelEngine interface {
	Engine
	Cancel(h Handle)
}

type fuzzRun struct {
	e       cancelEngine
	cal     *Calendar // nil on the oracle, which replays stamps
	prog    []byte
	pos     int
	stamps  []Time
	replay  int
	handles []Handle
	pops    []fuzzPop
}

func (r *fuzzRun) byte() byte {
	if r.pos >= len(r.prog) {
		return 0
	}
	r.pos++
	return r.prog[r.pos-1]
}

func (r *fuzzRun) run() []fuzzPop {
	for r.pos < len(r.prog) {
		op := r.byte()
		switch op & 7 {
		case 0, 1:
			r.at(r.stamp())
		case 2:
			r.atShard(int(op>>3)%4, r.stamp())
		case 3:
			n := 1 + 2*int(r.byte())
			ts := r.stamp()
			for i := 0; i < n; i++ {
				if i%2 == 0 {
					r.at(ts)
				} else {
					r.atShard(i%4, ts)
				}
			}
		case 4:
			if i := int(r.byte()) | int(r.byte())<<8; len(r.handles) > 0 {
				r.e.Cancel(r.handles[i%len(r.handles)])
			}
		case 5:
			for k := 1 + int(r.byte())%32; k > 0 && len(r.handles) >= k; k-- {
				r.e.Cancel(r.handles[len(r.handles)-k])
			}
		case 6:
			r.e.RunUntil(r.stamp())
		case 7:
			r.e.RunUntil(r.e.Now())
		}
	}
	r.e.Run()
	return r.pops
}

func (r *fuzzRun) at(ts Time) {
	label := int64(len(r.handles))
	r.handles = append(r.handles, r.e.At(ts, func() { r.popped(label) }))
}

func (r *fuzzRun) atShard(shard int, ts Time) {
	r.handles = append(r.handles, r.e.AtShardCommit(shard, ts, r.commit, nil, int64(len(r.handles))))
}

func (r *fuzzRun) commit(_ any, label int64, _ Time) { r.popped(label) }

// popped records an executed event and lets it schedule a child.
func (r *fuzzRun) popped(label int64) {
	r.pops = append(r.pops, fuzzPop{label, r.e.Now()})
	if b := r.byte(); b&3 == 1 {
		r.at(r.stamp())
	}
}

// stamp reads a shape and an argument byte and returns a timestamp no
// earlier than Now(): chosen on the calendar run, replayed on the oracle.
func (r *fuzzRun) stamp() Time {
	shape, arg := r.byte(), r.byte()
	if r.cal == nil {
		// Past a divergence the stamps run out or lag the clock: keep
		// scheduling legal and let the pop orders tell.
		if r.replay >= len(r.stamps) {
			return r.e.Now()
		}
		r.replay++
		return max(r.stamps[r.replay-1], r.e.Now())
	}
	now := r.e.Now()
	var ts Time
	switch shape % 8 {
	case 0:
		ts = now
	case 1:
		ts = Forever
	case 2:
		ts = now + Time(arg)*1e-9
	case 3:
		ts = now + Time(arg)*1e-6
	case 4:
		c := r.cal
		ts = nudge(fsTime(c.spanBase+uint64(c.cur+1+int(arg%16))*c.width), arg>>4)
	case 5:
		end := r.cal.openEnd
		if arg&1 != 0 {
			end = r.cal.spanEnd
		}
		ts = nudge(fsTime(end), arg>>1)
	case 6:
		ts = now + Time(math.Pow10(int(arg%6)))
	case 7:
		saturated := [...]Time{18446.744073709551, 15000, 18000, 18446.8, 1e300}
		ts = nudge(saturated[int(arg)%len(saturated)], arg>>3)
	}
	ts = max(ts, now)
	r.stamps = append(r.stamps, ts)
	return ts
}

// fsTime is the timestamp of a femtosecond key, to within float rounding.
func fsTime(fs uint64) Time { return Time(float64(fs) / fsPerSec) }

// nudge moves t by -1, 0 or +1 ulp, by k%3.
func nudge(t Time, k byte) Time {
	switch k % 3 {
	case 0:
		return Time(math.Nextafter(float64(t), 0))
	case 2:
		return Time(math.Nextafter(float64(t), math.Inf(1)))
	}
	return t
}

func firstDiff(a, b []fuzzPop) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

func popAt(p []fuzzPop, i int) any {
	if i < len(p) {
		return p[i]
	}
	return "nothing"
}
