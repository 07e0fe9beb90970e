package des

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestScheduleExecuteAllocFree pins the calendar engine's steady-state
// schedule+pop cycle at (near) zero heap allocations per event: events live
// in a slab-backed store with free-list recycling, the AtShardFn form takes
// a preallocated body instead of a closure, and handles are index+generation
// values. The calendar occasionally grows or reseeds a bucket as virtual
// time advances, so the budget is a small fraction of an allocation per
// event rather than exactly zero.
func TestScheduleExecuteAllocFree(t *testing.T) {
	e := NewEngine()
	remaining := 0
	var fn PhaseFn
	fn = func(a any, b int64, at Time) func() {
		if remaining > 0 {
			remaining--
			e.AtShardFn(0, at+1e-6, fn, nil, 0)
		}
		return nil
	}
	run := func(n int) {
		remaining = n
		e.AtShardFn(0, e.Now()+1e-6, fn, nil, 0)
		for e.Step() {
		}
	}
	run(20000) // warm the slab store and calendar buckets to working size

	const perRun = 200
	allocs := testing.AllocsPerRun(100, func() { run(perRun) })
	perEvent := allocs / (perRun + 1)
	t.Logf("schedule+pop allocs/event = %.4f", perEvent)
	if perEvent > 0.05 {
		t.Fatalf("schedule+pop allocates %.3f per event at steady state, want <= 0.05", perEvent)
	}
}

// TestCalendarGrowthAllocs fills a calendar to stencil_wide's peak of 52,869
// pending events and drains it. Every store grows by pieces it never copies,
// so the fill allocates the slab's pages (the slots' own bytes rounded up to
// a whole page), the id chunks, and a little bookkeeping: the page table and
// the drain run. A second fill and drain of the same shape reuses all of it.
func TestCalendarGrowthAllocs(t *testing.T) {
	const (
		n         = 52869
		pageBytes = 16 << 10 // the allocator's size class for a page
		bookBytes = 16 << 10
	)
	var c Calendar
	c.Init()
	body := func() {}
	// Each cycle's events start past the span the previous cycle left, so
	// both go far and reseed into the same layout.
	cycle := func(base Time) {
		x := uint32(1)
		for i := 0; i < n; i++ {
			x = x*1664525 + 1013904223
			ev, _, _ := c.Add(base+Time(x>>10)*1e-9, int32(i%64)) // 4.2 ms wide
			ev.Fn = body
		}
		var ev Event
		for c.Pop(&ev) {
		}
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// One P, so the count cannot take in a span another P's allocation
	// cache counts whole when the goroutine moves to it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	grow := allocated(func() { cycle(1) })
	again := allocated(func() { cycle(2) })
	chunks := 0
	for ch := c.spare; ch != nil; ch = ch.next {
		chunks++
	}
	slots := uint64(n * unsafe.Sizeof(slot{}))
	pages := uint64((n+pageSlots-1)/pageSlots) * pageBytes
	chunkBytes := uint64(chunks) * uint64(unsafe.Sizeof(chunk{}))
	t.Logf("fill+drain of %d events: %d B allocated, then %d B; slots %d B, %d pages %d B, %d chunks %d B",
		n, grow, again, slots, len(c.pages), pages, chunks, chunkBytes)
	if limit := pages + chunkBytes + bookBytes; grow > limit {
		t.Errorf("growing to %d events allocated %d B, want at most %d (pages + chunks + %d B)", n, grow, limit, bookBytes)
	}
	if again != 0 {
		t.Errorf("a second fill and drain allocated %d B, want 0", again)
	}
}
