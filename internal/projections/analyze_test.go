package projections

import (
	"math"
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/des"
)

// synthetic trace: two PEs, a causal chain a.x -> a.y across PEs, with a
// concurrent unrelated execution on PE 0.
//
//	#1 send   pe0 t=0           (driver-caused, ref=0)
//	#2 recv   pe0 t=0    ref=1
//	#3 begin  pe0 t=0    a.x    ref=1
//	#4 send   pe0 t=6µs  ref=1  (stamped 6µs into a.x)
//	#5 end    pe0 t=10µs a.x
//	#6 recv   pe1 t=12µs ref=4  (6µs in flight)
//	#7 begin  pe1 t=12µs a.y    ref=4
//	#8 end    pe1 t=20µs a.y
//	#9 begin  pe0 t=1µs  b.z    ref=0 (uncaused, concurrent)
//	#10 end   pe0 t=3µs  b.z
func synthetic() []Event {
	us := func(n float64) des.Time { return des.Time(n * 1e-6) }
	return []Event{
		{ID: 1, Kind: charm.KMsgSend, At: 0, PE: 0, A: 0, B: 64},
		{ID: 2, Kind: charm.KMsgRecv, At: 0, PE: 0, Ref: 1},
		{ID: 3, Kind: charm.KEntryBegin, At: 0, PE: 0, Arr: "a", Entry: "x", Ref: 1},
		{ID: 4, Kind: charm.KMsgSend, At: us(6), PE: 0, A: 1, B: 64, Ref: 1},
		{ID: 5, Kind: charm.KEntryEnd, At: us(10), PE: 0, Arr: "a", Entry: "x", Ref: 1},
		{ID: 6, Kind: charm.KMsgRecv, At: us(12), PE: 1, Ref: 4},
		{ID: 7, Kind: charm.KEntryBegin, At: us(12), PE: 1, Arr: "a", Entry: "y", Ref: 4},
		{ID: 8, Kind: charm.KEntryEnd, At: us(20), PE: 1, Arr: "a", Entry: "y", Ref: 4},
		{ID: 9, Kind: charm.KEntryBegin, At: us(1), PE: 0, Arr: "b", Entry: "z"},
		{ID: 10, Kind: charm.KEntryEnd, At: us(3), PE: 0, Arr: "b", Entry: "z"},
	}
}

func approx(a, b des.Time) bool {
	return math.Abs(float64(a)-float64(b)) < 1e-12
}

func TestProfile(t *testing.T) {
	prof := Profile(synthetic())
	if len(prof) != 3 {
		t.Fatalf("got %d profile rows, want 3: %+v", len(prof), prof)
	}
	// Sorted by total time desc: a.x (10µs), a.y (8µs), b.z (2µs).
	want := []struct {
		name string
		time des.Time
	}{
		{"a.x", 10e-6}, {"a.y", 8e-6}, {"b.z", 2e-6},
	}
	for i, w := range want {
		if prof[i].Name != w.name || !approx(prof[i].Time, w.time) || prof[i].Calls != 1 {
			t.Errorf("row %d = %+v, want name=%s time=%v calls=1", i, prof[i], w.name, w.time)
		}
	}
}

func TestProfileNestedPEHandlers(t *testing.T) {
	// b.z runs nested inside a.x on the same PE (LIFO pairing).
	us := func(n float64) des.Time { return des.Time(n * 1e-6) }
	events := []Event{
		{ID: 1, Kind: charm.KEntryBegin, At: 0, PE: 0, Entry: "outer"},
		{ID: 2, Kind: charm.KEntryBegin, At: us(2), PE: 0, Entry: "inner"},
		{ID: 3, Kind: charm.KEntryEnd, At: us(4), PE: 0, Entry: "inner"},
		{ID: 4, Kind: charm.KEntryEnd, At: us(10), PE: 0, Entry: "outer"},
	}
	prof := Profile(events)
	if len(prof) != 2 {
		t.Fatalf("got %d rows, want 2", len(prof))
	}
	if prof[0].Name != "outer" || !approx(prof[0].Time, 10e-6) {
		t.Errorf("outer: %+v", prof[0])
	}
	if prof[1].Name != "inner" || !approx(prof[1].Time, 2e-6) {
		t.Errorf("inner: %+v", prof[1])
	}
}

func TestMessageLatency(t *testing.T) {
	h := MessageLatency(synthetic())
	if h.Count != 2 {
		t.Fatalf("count = %d, want 2 (send #1 -> recv #2, send #4 -> recv #6)", h.Count)
	}
	// Latencies: 0s and 6µs -> mean 3µs, max 6µs.
	if !approx(h.Mean, 3e-6) || !approx(h.Max, 6e-6) {
		t.Errorf("mean=%v max=%v, want 3µs / 6µs", h.Mean, h.Max)
	}
	var total int
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != 2 {
		t.Errorf("bucket counts sum to %d, want 2", total)
	}
}

func TestComputeCriticalPath(t *testing.T) {
	cp := ComputeCriticalPath(synthetic())
	// Work before send #4 = 6µs spent inside a.x; the chain through a.y
	// therefore carries 6µs + a.y's 8µs = 14µs, which beats the 10µs chain
	// ending at a.x and the 2µs root b.z. Queueing/network time (the 6µs of
	// flight) is excluded from Work but inside Span.
	if !approx(cp.Work, 14e-6) {
		t.Errorf("work = %v, want 14µs", cp.Work)
	}
	if cp.Hops != 2 {
		t.Errorf("hops = %d, want 2 executions (a.x -> a.y)", cp.Hops)
	}
	if !approx(cp.Span, 20e-6) {
		t.Errorf("span = %v, want 20µs (a.x begin to a.y end)", cp.Span)
	}
	want := []string{"a.x", "a.y"}
	if len(cp.Entries) != 2 || cp.Entries[0] != want[0] || cp.Entries[1] != want[1] {
		t.Errorf("path entries = %v, want %v", cp.Entries, want)
	}
}

func TestComputePhaseParallelism(t *testing.T) {
	us := func(n float64) des.Time { return des.Time(n * 1e-6) }
	events := []Event{
		{ID: 1, Kind: charm.KPhaseStart, At: us(100), PE: 0},
		{ID: 2, Kind: charm.KPhaseStart, At: us(200), PE: 1},
		{ID: 3, Kind: charm.KPhaseStart, At: us(300), PE: 0},
		{ID: 4, Kind: charm.KPhaseStart, At: des.Time(2.5e-3), PE: 2},
	}
	buckets := ComputePhaseParallelism(events, 1e-3)
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2: %+v", len(buckets), buckets)
	}
	if buckets[0].Events != 3 || buckets[0].Shards != 2 {
		t.Errorf("bucket 0 = %+v, want 3 events on 2 shards", buckets[0])
	}
	if buckets[1].Events != 1 || buckets[1].Shards != 1 {
		t.Errorf("bucket 1 = %+v, want 1 event on 1 shard", buckets[1])
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	if p := Profile(nil); len(p) != 0 {
		t.Errorf("Profile(nil) = %+v", p)
	}
	if h := MessageLatency(nil); h.Count != 0 {
		t.Errorf("MessageLatency(nil) = %+v", h)
	}
	cp := ComputeCriticalPath(nil)
	if cp.Hops != 0 || cp.Work != 0 {
		t.Errorf("ComputeCriticalPath(nil) = %+v", cp)
	}
	if b := ComputePhaseParallelism(nil, 0); len(b) != 0 {
		t.Errorf("ComputePhaseParallelism(nil) = %+v", b)
	}
}
