package determinism

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pdes"
	"charmgo/internal/apps/stencil"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/parsim"
	"charmgo/internal/projections"
)

// Replay torture suite: the optimistic backend with infrequent state saving
// must reproduce the sequential digest bit for bit at every snapshot
// interval — eager (K=1), sparse fixed (K=4, K=16), and the adaptive
// Rönngren–Ayani policy (K=0) — while rollbacks force the restore +
// coast-forward path. A digest mismatch here means a replayed handler
// diverged from its original execution: a stale retained image, an
// unrecorded location resolution, a leaked side effect, or a payload
// mutated after send.

// snapIntervals covers the eager baseline, two sparse fixed intervals, and
// the adaptive policy.
var snapIntervals = []int{1, 4, 16, 0}

// torturedRun is digestedRun with the runtime handed back so callers can
// inspect speculation and state-saving counters after the run.
func torturedRun(t *testing.T, mk func() machine.Config, run func(rt *charm.Runtime) string) (string, *charm.Runtime) {
	t.Helper()
	rt := charm.New(machine.New(mk()))
	tr := projections.Attach(rt, projections.Options{})
	summary := run(rt)

	h := sha256.New()
	fmt.Fprintf(h, "summary %s\n", summary)
	fmt.Fprintf(h, "events %d\n", rt.Engine().Executed())
	fmt.Fprintf(h, "stats %+v\n", rt.Stats)
	events := tr.Events()
	if len(events) == 0 || tr.Dropped() != 0 {
		t.Fatalf("event log incomplete: %d events held, %d dropped", len(events), tr.Dropped())
	}
	if err := projections.WriteLog(h, events); err != nil {
		t.Fatalf("writing event log: %v", err)
	}
	return hex.EncodeToString(h.Sum(nil)), rt
}

// assertReplayTorture runs the app once sequentially, then on the
// optimistic backend at each of the given snapshot intervals, requiring
// identical digests. When wantRollbacks is set the config is expected to
// provoke stragglers, and the test additionally asserts that the rollback
// and (for K != 1) coast-forward machinery actually fired — a torture test
// that never rolls back proves nothing. check, when non-nil, inspects each
// optimistic run's counters further.
func assertReplayTorture(t *testing.T, name string, intervals []int, mk func() machine.Config, run func(rt *charm.Runtime) string,
	wantRollbacks bool, check func(t *testing.T, k int, rt *charm.Runtime)) {
	t.Helper()
	seq := digestedRun(t, withBackend(mk, "sequential"), run)
	for _, k := range intervals {
		k := k
		t.Run(fmt.Sprintf("snap_interval=%d", k), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(8)
			defer runtime.GOMAXPROCS(prev)
			opt, rt := torturedRun(t, func() machine.Config {
				c := mk()
				c.Backend = "optimistic"
				c.SnapInterval = k
				return c
			}, run)
			if opt != seq {
				t.Errorf("%s: optimistic backend diverged from sequential at SnapInterval=%d:\n  sequential: %s\n  optimistic: %s",
					name, k, seq, opt)
			}
			st := rt.Engine().(*parsim.Engine).EngineStats()
			saves := rt.SpecSaveStats()
			t.Logf("%s K=%d: rolledback=%d snapshots=%d avoided=%d restores=%d replays=%d finalK=%d",
				name, k, st.RolledBack, saves.Snapshots, saves.SnapshotsAvoided, saves.Restores, saves.Replays, saves.SnapInterval)
			if wantRollbacks {
				if st.RolledBack == 0 {
					t.Errorf("%s: SnapInterval=%d run provoked no rollbacks; the torture config has gone stale", name, k)
				}
				if k != 1 && saves.Replays == 0 {
					t.Errorf("%s: SnapInterval=%d rolled back %d speculations but coast-forwarded zero deliveries",
						name, k, st.RolledBack)
				}
			}
			if k != 1 && saves.SnapshotsAvoided == 0 && saves.Snapshots > 0 {
				t.Errorf("%s: SnapInterval=%d avoided no snapshots — infrequent saving is not engaging", name, k)
			}
			if check != nil {
				check(t, k, rt)
			}
		})
	}
}

// pholdSmokeGolden is what the optimistic engine decides on TestPDESReplayTorture's
// input at snapshot interval k. What it launches and rolls back does not
// depend on the interval; what it images, avoids, logs and replays does.
func pholdSmokeGolden(k int) counters {
	return counters{
		events: 191389,
		engine: parsim.Stats{Launched: 93203, Committed: 93197, RolledBack: 6, Inline: 94871, Global: 3321, MaxInFlight: 8, MaxGVTLag: 8.520000000001443e-06},
		saves: map[int]charm.SpecSaveStats{
			1: {Snapshots: 91044, SnapshotBytes: 9410872, SnapshotsAvoided: 3, Restores: 6,
				Retired: 91044, SnapInterval: 1},
			4: {Snapshots: 29451, SnapshotBytes: 3047384, SnapshotsAvoided: 61596, Restores: 6, Replays: 11,
				LoggedDeliveries: 88302, Retired: 29405, SnapInterval: 4},
			16: {Snapshots: 7908, SnapshotBytes: 820312, SnapshotsAvoided: 83139, Restores: 6, Replays: 52,
				LoggedDeliveries: 118312, Retired: 7857, SnapInterval: 16},
			0: {Snapshots: 2188, SnapshotBytes: 227288, SnapshotsAvoided: 88859, Restores: 6, Replays: 108,
				LoggedDeliveries: 133342, Retired: 2130, SnapInterval: 64, Adaptive: true},
		}[k],
	}
}

// TestPDESReplayTorture is the rollback-cascade workhorse: PHOLD at low
// lookahead without TRAM (so LPs declare PureHandlers and keep sparse
// images) speculates far past the conservative frontier and takes real
// straggler rollbacks, each of which restores a retained image and
// coast-forwards the committed deliveries logged since. Its check holds
// every speculation and state-saving counter to pholdSmokeGolden.
func TestPDESReplayTorture(t *testing.T) {
	cfg := lowAlphaPHOLD(64, 8000)
	assertReplayTorture(t, "pdes", snapIntervals,
		func() machine.Config { return machine.Testbed(8) },
		func(rt *charm.Runtime) string {
			res, err := pdes.Run(rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("committed=%d windows=%d maxvt=%v", res.Committed, res.Windows, res.MaxVT)
		}, true, func(t *testing.T, k int, rt *charm.Runtime) {
			countersOf(rt).check(t, pholdSmokeGolden(k))
		})
}

// TestLeanMDReplayTorture exercises sparse imaging under migration: LB
// moves cells mid-run, which must invalidate retained images (a replay
// from a pre-migration image would resurrect stale meters and positions).
func TestLeanMDReplayTorture(t *testing.T) {
	cfg := leanmd.Config{
		CellsX: 3, CellsY: 3, CellsZ: 3,
		AtomsPerCell: 20, Steps: 6, Seed: 42,
		LBPeriod: 3, Gaussian: 0.35,
	}
	assertReplayTorture(t, "leanmd", snapIntervals,
		func() machine.Config { return machine.Testbed(8) },
		func(rt *charm.Runtime) string {
			rt.SetBalancer(lb.Greedy{})
			res, err := leanmd.Run(rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("atoms=%d energy=%v stepdone=%v", res.Atoms, res.Energy, res.StepDone)
		}, true, nil)
}

// TestStencilReplayTorture covers the reduction-heavy bulk-synchronous
// shape: blocks carry large float grids, so a single stale image or
// mis-replayed halo exchange shifts every residual after it.
func TestStencilReplayTorture(t *testing.T) {
	cfg := stencil.Config{
		GridN: 96, Chares: 12, Iters: 10, LBPeriod: 4,
	}
	assertReplayTorture(t, "stencil", snapIntervals,
		func() machine.Config { return machine.Testbed(16) },
		func(rt *charm.Runtime) string {
			rt.SetBalancer(lb.Greedy{})
			res, err := stencil.Run(rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("iters=%d residuals=%v done=%v", len(res.Residuals), res.Residuals, res.IterDone)
		}, true, nil)
}
