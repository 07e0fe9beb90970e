// Package dettaint is a charmvet test fixture. Each `// want` comment
// marks an expected dettaint finding on its line; the package is excluded
// from the real suite (see analysis.DefaultSuite) and exists only for the
// analyzer unit tests.
//
// Unlike the v1 fixtures, every positive case here must be *reachable*
// from a runtime entry point — dettaint follows the call graph, so a
// nondeterminism source in a function nobody schedules is deliberately not
// flagged (see orphan below). The import rename on time checks that the
// analyzer resolves packages through the type checker rather than by
// identifier spelling.
package dettaint

import (
	"math/rand"
	"sort"
	stdtime "time"

	"charmgo/internal/analysis/fixtures/dettaint/util"
	"charmgo/internal/charm"
	"charmgo/internal/pup"
)

// bootClock runs at program start, before any event: initializer sources
// taint every run regardless of reachability.
var bootClock = stdtime.Now() // want `time.Now`

// use stands in for the apps' []charm.Handler composite literals: any use
// of a function as a value makes it address-taken, which is what marks a
// handler-shaped function as an entry-method root.
func use(fns ...any) {}

func register() {
	use(onTick, onMerge, onSpawn, onRecover, onStamp)
}

// onTick's own body is source-free: the wall-clock read hides two calls
// down, across a package boundary, where an intra-procedural file scan
// cannot see it (the want mark lives in util/util.go).
func onTick(obj any, ctx *charm.Ctx, msg any) {
	util.StepA()
}

func onMerge(obj any, ctx *charm.Ctx, msg any) {
	var t stdtime.Time
	_ = stdtime.Since(t) // want `time.Since`
	_ = rand.Intn(10)    // want `rand.Intn`

	// The explicitly seeded generator idiom; methods on a *rand.Rand are
	// not package-level calls and are not flagged.
	rng := rand.New(rand.NewSource(7))
	_ = rng.Float64()

	_ = stdtime.Now() //charmvet:wallclock (fixture: deliberate)

	m := map[int]float64{}
	for k, v := range m { // want `iteration over map m`
		if v > 0 {
			_ = k
		}
	}

	// Only the iteration count is observed: allowed.
	n := 0
	for range m {
		n++
	}

	// The collect-then-sort idiom: allowed without a waiver.
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	//charmvet:ordered (fixture: order-insensitive)
	for k := range m {
		_ = k
	}
}

func onSpawn(obj any, ctx *charm.Ctx, msg any) {
	go spin() // want `go statement`

	a, b := make(chan int), make(chan int)
	select { // want `select depends on goroutine scheduling`
	case <-a:
	case <-b:
	}

	//charmvet:spawn (fixture: real-I/O bridge)
	go spin()

	//charmvet:parsim (not honored here)
	go spin() // want `charmvet:parsim waiver is only honored inside the parsim engine`

	//charmvet:telemetry (not honored here: this is app code, not the telemetry layer)
	_ = stdtime.Now() // want `charmvet:telemetry waiver is only honored inside the telemetry layer`
}

func spin() {}

// onRecover models a recovery-under-failure retry loop (the internal/chaos
// controller: a nested failure detection restarts the restore against
// surviving replicas, capped by a budget). The deterministic form counts
// restarts against the fixed budget and paces attempts purely in virtual
// time; the flagged forms pace them by host wall clock, which would make
// the recovery schedule — and with it the rollback depth every surviving
// PE observes — differ run to run.
func onRecover(obj any, ctx *charm.Ctx, msg any) {
	const budget = 4

	// Deterministic retry: attempt counter against a fixed budget, virtual
	// deadline computed from ctx.Now. No findings.
	for attempt := 0; attempt < budget; attempt++ {
		if restoreOnce(attempt) {
			break
		}
		_ = ctx.Now()
	}

	// Wall-clock-paced retry: both the deadline read and the backoff sleep
	// taint the loop.
	deadline := stdtime.Now() // want `time.Now`
	for attempt := 0; attempt < budget; attempt++ {
		if restoreOnce(attempt) {
			break
		}
		if stdtime.Since(deadline) > stdtime.Millisecond { // want `time.Since`
			break
		}
		stdtime.Sleep(stdtime.Microsecond) // want `time.Sleep`
	}

	// Retrying against a randomly permuted replica order: the holder an
	// attempt restores from must be the deterministic nearest-live choice,
	// not a shuffle.
	order := []int{0, 1, 2}
	rand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] }) // want `rand.Shuffle`
	for _, h := range order {
		if restoreOnce(h) {
			break
		}
	}
}

func restoreOnce(attempt int) bool { return attempt > 1 }

// seedOrder is reachable only from init: like a package-level var
// initializer, an init body runs before any event and taints every run,
// so init functions root the analysis.
var table = map[int]int{}

func init() { seedOrder() }

func seedOrder() {
	for k := range table { // want `iteration over map table`
		_ = k
	}
}

// orphan is never scheduled and never address-taken: its wall-clock read
// is dead code as far as the runtime is concerned, and the v2 analyzer —
// unlike a package-scoped scan — must stay silent about it.
func orphan() stdtime.Time {
	return stdtime.Now()
}

// deferHelper is itself unreachable, but the closure it hands to
// ctx.Defer is a commit closure — the runtime runs those at commit time,
// so they root the analysis on their own.
func deferHelper(ctx *charm.Ctx) {
	ctx.Defer(func() {
		_ = stdtime.Now() // want `time.Now`
	})
}

// snap's Pup method runs during migration and checkpointing; map order
// there corrupts the byte stream.
type snap struct {
	m map[int]int
}

func (s *snap) Pup(p *pup.Pup) {
	for k, v := range s.m { // want `iteration over map s.m`
		_ = k
		_ = v
	}
}

// onStamp pins the waiver placement rule: a directive that follows code
// covers its own line only, so the unwaived read directly below it is
// still a finding.
func onStamp(obj any, ctx *charm.Ctx, msg any) {
	_ = stdtime.Now() //charmvet:wallclock (fixture: this line only)
	_ = stdtime.Now() // want `time.Now`
}
