// Package determinism holds the cross-app determinism regression suite:
// the same seed must produce the same run, bit for bit, event for event.
// It complements charmvet (internal/analysis): the static pass forbids the
// constructs that break reproducibility; this test catches whatever slips
// through by running the LeanMD and PDES mini-apps twice — with load
// balancing, migration, and (for PDES) TRAM aggregation in the loop — and
// comparing event-trace digests.
package determinism

import (
	"fmt"
	"testing"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pdes"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

// digestedRun executes one simulation with a recorder attached and returns
// a digest of everything observable about the run: the full event log
// (every send, receive, execution, migration and LB round, in emission
// order), the event count, and the app-level result summary.
func digestedRun(t *testing.T, mk func() machine.Config, run func(rt *charm.Runtime) string) string {
	t.Helper()
	digest, _ := torturedRun(t, mk, run)
	return digest
}

func assertIdenticalRuns(t *testing.T, name string, mk func() machine.Config, run func(rt *charm.Runtime) string) {
	t.Helper()
	first := digestedRun(t, mk, run)
	second := digestedRun(t, mk, run)
	if first != second {
		t.Errorf("%s: two runs with the same seed diverged:\n  run 1: %s\n  run 2: %s", name, first, second)
	}
}

func TestLeanMDDeterministic(t *testing.T) {
	cfg := leanmd.Config{
		CellsX: 3, CellsY: 3, CellsZ: 3,
		AtomsPerCell: 20, Steps: 8, Seed: 42,
		LBPeriod: 3, Gaussian: 0.35, // imbalance + migrations in the loop
	}
	assertIdenticalRuns(t, "leanmd",
		func() machine.Config { return machine.Testbed(8) },
		func(rt *charm.Runtime) string {
			rt.SetBalancer(lb.Greedy{})
			res, err := leanmd.Run(rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("atoms=%d energy=%v stepdone=%v", res.Atoms, res.Energy, res.StepDone)
		})
}

func TestPDESDeterministic(t *testing.T) {
	cfg := pdes.Config{
		LPs: 64, EventsPerLP: 8, TargetEvents: 4000, Seed: 42,
		UseTram: true, LBPeriodWindows: 4,
	}
	assertIdenticalRuns(t, "pdes",
		func() machine.Config { return machine.Stampede(16) },
		func(rt *charm.Runtime) string {
			rt.SetBalancer(lb.Greedy{})
			res, err := pdes.Run(rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("committed=%d windows=%d maxvt=%v", res.Committed, res.Windows, res.MaxVT)
		})
}
