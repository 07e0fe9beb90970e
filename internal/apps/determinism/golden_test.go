package determinism

import (
	"fmt"
	"runtime"
	"testing"

	"charmgo/internal/apps/pdes"
	"charmgo/internal/apps/stencil"
	"charmgo/internal/charm"
	"charmgo/internal/machine"
	"charmgo/internal/parsim"
)

// Goldens and budgets: what the parallel engines decide on a fixed input, and
// what a run costs the Go heap per event. cmd/parsimbench prints the same
// quantities for the same inputs, which is how the literals are read off a run.
//
// counters is everything one run decided about launching, speculating and
// state saving. Every field is a function of calendar state and commit order
// alone, never of goroutine timing, so it is the same on any host at any
// worker count and is compared with ==. A change to launch or saving policy
// moves these on purpose: it edits the literals in the same diff and says
// why. parsim.HandoffStats (who ran a launched phase, the grain estimate) is
// timing-dependent and is pinned nowhere.
type counters struct {
	events uint64 // Engine.Executed: the same on every backend
	engine parsim.Stats
	saves  charm.SpecSaveStats // the zero value on the conservative engine
}

func countersOf(rt *charm.Runtime) counters {
	c := counters{events: rt.Engine().Executed(), saves: rt.SpecSaveStats()}
	if eng, ok := rt.Engine().(*parsim.Engine); ok {
		c.engine = eng.EngineStats()
	}
	return c
}

func (c counters) check(t *testing.T, want counters) {
	t.Helper()
	if c != want {
		t.Errorf("counters moved (a change to launch or saving policy edits the literal and says why):\n  got  %+v\n  want %+v", c, want)
	}
}

// measured is one run's counters plus its Go heap traffic.
type measured struct {
	counters
	allocs, bytes uint64  // objects and bytes allocated while the run executed
	liveMB        float64 // live heap the machine, runtime and finished run hold
}

// measure builds a runtime on mc, runs run on it, and reports what the run
// decided and what it allocated. The collection before the run starts it with
// empty message pools, so the figures are cold ones.
func measure(mc machine.Config, run func(rt *charm.Runtime) error) (measured, error) {
	var base, before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	rt := charm.New(machine.New(mc))
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := run(rt); err != nil {
		return measured{}, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	return measured{
		counters: countersOf(rt),
		allocs:   after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		liveMB:   (float64(after.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20),
	}, nil
}

// lowAlphaPHOLD is the PHOLD input of the replay torture and of the goldens:
// the conservative window covers ~1% of the mean event gap, so YAWNS commits
// nearly everything inline and only speculation finds parallelism.
func lowAlphaPHOLD(lps, target int) pdes.Config {
	return pdes.Config{
		LPs: lps, EventsPerLP: 8, TargetEvents: target, Seed: 42,
		Lookahead: 0.05, MeanDelay: 4.0,
	}
}

func pholdRun(cfg pdes.Config) func(rt *charm.Runtime) error {
	return func(rt *charm.Runtime) error {
		_, err := pdes.Run(rt, cfg)
		return err
	}
}

func stencilRun(cfg stencil.Config) func(rt *charm.Runtime) error {
	return func(rt *charm.Runtime) error {
		_, err := stencil.Run(rt, cfg)
		return err
	}
}

// TestCountersGolden pins the conservative engine's launch decisions on
// Stencil2D and both engines' on low-lookahead PHOLD, each at a smoke size
// and at the size the retired parsim and optsim budget files recorded: the
// full-size literals are those files' counter blocks. The optimistic engine
// at smoke size, per snapshot interval, is TestPDESReplayTorture's table.
func TestCountersGolden(t *testing.T) {
	rows := []struct {
		name    string
		full    bool // seconds per run, minutes under -race: skipped under -short and -race
		pes     int
		backend string
		run     func(rt *charm.Runtime) error
		want    counters
	}{
		{"stencil-smoke", false, 16, "parallel", stencilRun(stencil.Config{GridN: 192, Chares: 4, Iters: 6}), counters{
			events: 629,
			engine: parsim.Stats{Launched: 171, Committed: 171, Inline: 451, Global: 7, MaxInFlight: 6, MaxGVTLag: 2.6336000000000285e-06},
		}},
		{"stencil-full", true, 256, "parallel", stencilRun(stencil.Config{GridN: 4096, Chares: 16, Iters: 20}), counters{
			events: 39187,
			engine: parsim.Stats{Launched: 15239, Committed: 15239, Inline: 23927, Global: 21, MaxInFlight: 61, MaxGVTLag: 2.299999999999785e-06},
		}},
		{"phold-smoke", false, 8, "parallel", pholdRun(lowAlphaPHOLD(64, 8000)), counters{
			events: 191389,
			engine: parsim.Stats{Launched: 93121, Committed: 93121, Inline: 94947, Global: 3321, MaxInFlight: 7, MaxGVTLag: 5.51919999999817e-06},
		}},
		{"phold-full", true, 16, "parallel", pholdRun(lowAlphaPHOLD(256, 200000)), counters{
			events: 4779122,
			engine: parsim.Stats{Launched: 3406879, Committed: 3406879, Inline: 1349387, Global: 22856, MaxInFlight: 15, MaxGVTLag: 5.515999999983201e-06},
		}},
		{"phold-full", true, 16, "optimistic", pholdRun(lowAlphaPHOLD(256, 200000)), counters{
			events: 4779122,
			engine: parsim.Stats{Launched: 3407456, Committed: 3407152, RolledBack: 304, Inline: 1349114, Global: 22856, MaxInFlight: 15, MaxGVTLag: 1.13200000000091e-05},
			saves: charm.SpecSaveStats{Snapshots: 62047, SnapshotBytes: 6457464, SnapshotsAvoided: 3314422, Restores: 304, Replays: 9547,
				LoggedDeliveries: 3901617, Retired: 61800, SnapInterval: 64, Adaptive: true},
		}},
	}
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, r := range rows {
		for _, workers := range []int{1, 8} {
			if r.full && workers == 1 {
				continue // seconds per run: only at the worker count the files recorded
			}
			t.Run(fmt.Sprintf("%s/%s/workers=%d", r.name, r.backend, workers), func(t *testing.T) {
				if r.full && (testing.Short() || raceEnabled) {
					t.Skip("full-size row")
				}
				mc := machine.Testbed(r.pes)
				mc.Backend, mc.ParallelWorkers = r.backend, workers
				m, err := measure(mc, r.run)
				if err != nil {
					t.Fatal(err)
				}
				m.counters.check(t, r.want)
			})
		}
	}
}

// The Alloc budgets below hold a run's Go heap traffic per engine event to at
// most 10% over the recorded figure. The figures are properties of the code,
// not the host: messages are recycled through the runtime's own free lists,
// which no collection empties, while the regressions the budgets exist for —
// an allocation per event, per message or per saved image — move them by far
// more.

func (m measured) perEvent(n uint64) float64 { return float64(n) / float64(m.events) }

func holdBudget(t *testing.T, what string, got, budget float64) {
	t.Helper()
	if got > 1.10*budget {
		t.Errorf("%s = %.4g: more than 10%% over its budget of %.4g", what, got, budget)
	}
}

// TestStencilScaleAllocBudget is Stencil2D on the sequential engine at 1k, 8k
// and 64k virtual PEs (four, two and one block per PE): allocations and bytes
// per event, the steady-state allocations per event (what 3N iterations allocate
// beyond N, over the extra events — set-up cancels), the live heap a finished
// run holds, and the exact event count. With -v its log is the scale table.
func TestStencilScaleAllocBudget(t *testing.T) {
	if raceEnabled {
		// The race build's instrumentation keeps the compiler from folding
		// slices.Grow's append of a fresh make, so each SendVec payload
		// growth allocates twice there.
		t.Skip("allocation budgets do not hold under -race")
	}
	rows := []struct {
		pes, chares, grid, iters      int
		events                        uint64
		allocs, steady, bytes, liveMB float64
	}{
		// bytes and liveMB: the event store (des.Calendar) grows by pages
		// and chunks it never copies, so growing costs only what it keeps.
		// allocs, steady and bytes: a ghost edge rides in its pooled message
		// (SendVec) instead of a fresh slice boxed with its header, and the
		// residual callback is built once, so steady state allocates almost
		// nothing per event. liveMB is unchanged: the pool's recycled payload
		// capacity (64 B per message) reads +1 MB at 1k PEs, inside 10%.
		// allocs and steady again: the residual reduction folds unboxed
		// float slots and boxes only its result, so a block's contribution
		// and its merge allocate nothing.
		{1024, 64, 512, 4, 135171, 0.421, 0.0111, 104.9, 12.2},
		{8192, 128, 512, 2, 292865, 0.784, 0.0404, 115.2, 30.5},
		{65536, 256, 1024, 2, 1241089, 0.778, 0.0827, 110.8, 142.0},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("pes=%d", r.pes), func(t *testing.T) {
			if r.pes > 8192 && testing.Short() {
				t.Skip("64k-PE row")
			}
			cfg := stencil.Config{GridN: r.grid, Chares: r.chares, Iters: r.iters}
			m, err := measure(machine.Testbed(r.pes), stencilRun(cfg))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Iters *= 3
			m3, err := measure(machine.Testbed(r.pes), stencilRun(cfg))
			if err != nil {
				t.Fatal(err)
			}
			steady := float64(m3.allocs-m.allocs) / float64(m3.events-m.events)
			t.Logf("%d PEs, %d blocks, grid %d, %d iterations: %d events, %.3f allocs/event (%.3f steady), %.1f bytes/event, %.1f MB live",
				r.pes, r.chares*r.chares, r.grid, r.iters, m.events, m.perEvent(m.allocs), steady, m.perEvent(m.bytes), m.liveMB)
			if m.events != r.events {
				t.Errorf("%d events, want exactly %d", m.events, r.events)
			}
			holdBudget(t, "allocs/event", m.perEvent(m.allocs), r.allocs)
			holdBudget(t, "steady-state allocs/event", steady, r.steady)
			holdBudget(t, "bytes/event", m.perEvent(m.bytes), r.bytes)
			holdBudget(t, "live heap MB", m.liveMB, r.liveMB)
		})
	}
}

// TestOptimisticPHOLDAllocBudget is the Time Warp engine's heap traffic on
// the goldens' PHOLD inputs. The eager row (an image per speculated
// execution, 91,044 of them) is the one a per-image allocation shows in; the
// adaptive rows carry the replay log. Each window's minimum is a typed
// MinF64 contribution folded in unboxed slots, so neither an LP's report
// nor the merge allocates: what is left is the engine's own traffic.
func TestOptimisticPHOLDAllocBudget(t *testing.T) {
	if raceEnabled {
		// Starting the engine's helper goroutines allocates under the race
		// runtime: +20% bytes per event on the smoke rows.
		t.Skip("allocation budgets do not hold under -race")
	}
	rows := []struct {
		name          string
		pes, lps      int
		target, k     int
		allocs, bytes float64
	}{
		// Messages are recycled through the runtime's own free lists,
		// which no collection empties, an LP publishes nothing per window,
		// and a successor's timestamp rides unboxed in its message
		// (SendVec). A boxed timestamp read (0.076, 2.0; 0.095, 6.2;
		// 0.054, 1.4), and a sync.Pool and a publishing closure per LP and
		// window on top of it (0.167, 6.62; 0.187, 11.8; 0.108, 4.12).
		{"smoke/eager", 8, 64, 8000, 1, 0.036, 1.7},
		{"smoke/adaptive", 8, 64, 8000, 0, 0.069, 6.0},
		{"full/adaptive", 16, 256, 200000, 0, 0.015, 1.1},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.target > 8000 && testing.Short() {
				t.Skip("full-size row")
			}
			mc := machine.Testbed(r.pes)
			mc.Backend, mc.SnapInterval = "optimistic", r.k
			m, err := measure(mc, pholdRun(lowAlphaPHOLD(r.lps, r.target)))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d LPs on %d PEs, K=%d: %d events, %.3f allocs/event, %.1f bytes/event",
				r.lps, r.pes, r.k, m.events, m.perEvent(m.allocs), m.perEvent(m.bytes))
			holdBudget(t, "allocs/event", m.perEvent(m.allocs), r.allocs)
			holdBudget(t, "bytes/event", m.perEvent(m.bytes), r.bytes)
		})
	}
}
