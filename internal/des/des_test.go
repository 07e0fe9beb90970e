package des

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyEngine(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine should report false")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved on empty engine: %v", e.Now())
	}
}

func TestOrdering(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, ts := range []Time{5, 1, 3, 2, 4} {
		ts := ts
		e.At(ts, func() { got = append(got, ts) })
	}
	e.Run()
	want := []Time{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events reordered at %d: %v", i, got[i])
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := NewEngine()
	var at1, at2 Time
	e.After(2, func() {
		at1 = e.Now()
		e.After(3, func() { at2 = e.Now() })
	})
	e.Run()
	if at1 != 2 || at2 != 5 {
		t.Fatalf("got times %v, %v; want 2, 5", at1, at2)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(1, func() { fired = true })
	e.Cancel(h)
	if !h.Cancelled() {
		t.Fatal("handle should report cancelled")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel is a no-op.
	e.Cancel(h)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []Time
	var handles []Handle
	for _, ts := range []Time{1, 2, 3, 4, 5, 6, 7, 8} {
		ts := ts
		handles = append(handles, e.At(ts, func() { got = append(got, ts) }))
	}
	e.Cancel(handles[3]) // t=4
	e.Cancel(handles[6]) // t=7
	e.Run()
	want := []Time{1, 2, 3, 5, 6, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
	e.Run() // resumes
	if count != 10 {
		t.Fatalf("resume ran to %d, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() { count++ })
	}
	e.RunUntil(5)
	if count != 5 {
		t.Fatalf("RunUntil(5) ran %d events, want 5", count)
	}
	if e.Now() != 5 {
		t.Fatalf("clock %v, want 5", e.Now())
	}
	e.RunUntil(20)
	if count != 10 || e.Now() != 20 {
		t.Fatalf("count=%d now=%v, want 10, 20", count, e.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("idle clock %v, want 42", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay should panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			e.After(1, rec)
		}
	}
	e.After(1, rec)
	e.Run()
	if depth != 50 {
		t.Fatalf("chained depth %d, want 50", depth)
	}
	if e.Now() != 50 {
		t.Fatalf("clock %v, want 50", e.Now())
	}
}

func TestExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 7 {
		t.Fatalf("Executed=%d, want 7", e.Executed())
	}
}

// Property: for any set of timestamps, execution order is the sorted order.
func TestPropertyExecutionSorted(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := NewEngine()
		var got []Time
		for _, s := range stamps {
			ts := Time(s)
			e.At(ts, func() { got = append(got, ts) })
		}
		e.Run()
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine is deterministic — two runs over the same schedule
// produce identical traces.
func TestPropertyDeterminism(t *testing.T) {
	trace := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var out []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			out = append(out, e.Now())
			if depth < 3 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					e.After(Time(rng.Intn(5)), func() { spawn(depth + 1) })
				}
			}
		}
		for i := 0; i < 20; i++ {
			e.At(Time(rng.Intn(10)), func() { spawn(0) })
		}
		e.Run()
		return out
	}
	for seed := int64(0); seed < 10; seed++ {
		a, b := trace(seed), trace(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d", seed, i)
			}
		}
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func() {})
		}
		e.Run()
	}
}

// TestSparseRingMatchesHeap crosses a nearly empty calendar ring — the case
// the occupancy bitmap exists for — and checks the pop order against the
// Heap oracle: eight events spread over the first span (one of them in its
// tail bucket) with every other one cancelled after filing, so occupied
// buckets that hold only cancelled entries sit between the live ones; then
// a far population wide enough to saturate the reseeded span's end, with an
// event at Forever — past that end — landing in the catch-all tail bucket,
// from where it schedules one more.
func TestSparseRingMatchesHeap(t *testing.T) {
	span := Time(calBuckets*defaultWidthFS) / fsPerSec
	pops := func(e Engine) []string {
		var got []string
		at := func(t Time, name string) Handle {
			return e.At(t, func() { got = append(got, fmt.Sprintf("%s@%v", name, e.Now())) })
		}
		var doomed []Handle
		for i := 0; i < 8; i++ {
			ts := span * Time(i) / 8
			if i == 7 {
				ts = span * (1 - 0.5/calBuckets) // the middle of the tail bucket
			}
			at(ts+span/64, fmt.Sprint("live", i))
			doomed = append(doomed, at(ts+span/16, fmt.Sprint("doomed", i)))
		}
		at(span/4+span/64, "twin") // same bucket, same timestamp: sequence order
		for _, h := range doomed {
			e.Cancel(h)
		}
		// 2^64 fs is ≈18446 s: a population from 15000 s to Forever makes
		// the reseeded span end wrap, hence saturate.
		for i, ts := range []Time{15000, 16000, 17000, 18000} {
			at(ts, fmt.Sprint("far", i))
		}
		e.At(Forever, func() {
			got = append(got, "forever")
			at(Forever, "forever-again")
		})
		e.Run()
		return got
	}
	want := pops(NewHeapEngine())
	got := pops(NewEngine())
	if len(want) != 15 {
		t.Fatalf("oracle popped %d events, want 15: %v", len(want), want)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("calendar pop order\n%v\nwant the heap's\n%v", got, want)
	}
}
