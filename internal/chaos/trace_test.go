package chaos

import (
	"testing"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/projections"
)

// TestTraceSubKinds walks the event log of a LeanMD campaign run that
// suffers a straggler, a predicted (warned, evacuated, absorbed) crash and
// an unpredicted one (detected, rolled back, recovered): every KFault and
// KCheckpoint record must carry one of the sub-kinds charm declares, and
// the campaign must have produced each of them except the lossy "drop".
func TestTraceSubKinds(t *testing.T) {
	declared := map[string]bool{
		string(charm.FaultCrash): false, string(charm.FaultDrop): true, string(charm.FaultStraggler): false,
		string(charm.FaultWarn): false, string(charm.FaultEvacuate): false, string(charm.FaultReplace): false,
		string(charm.FaultDetect): false, string(charm.FaultRollback): false, string(charm.FaultRecover): false,
		string(charm.CheckpointCapture): false, string(charm.CheckpointRestore): false,
	}
	elapsed := probeApp(t, "leanmd", 42, runOpts{}).elapsed
	plan := Plan{Seed: 42, Faults: []Fault{
		{Kind: FaultStraggler, At: 0, Until: elapsed, PE: 3, Factor: 0.2},
		{Kind: FaultWarn, At: 0.10 * elapsed, Until: 0.35 * elapsed, PE: 5},
		{Kind: FaultCrash, At: 0.60 * elapsed, PE: 2},
	}}

	rt := newRuntime(machine.Testbed(8), "sequential")
	tr := projections.Attach(rt, projections.Options{})
	rt.SetBalancer(lb.Greedy{})
	app, err := leanmd.New(rt, leanmd.Config{
		CellsX: 3, CellsY: 3, CellsZ: 3,
		AtomsPerCell: 20, Steps: 18, LBPeriod: 3,
		Gaussian: 0.35, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	ctrl, err := Enable(rt, plan, Options{
		CheckpointEveryRounds: 1,
		HeartbeatPeriod:       campaignPeriod,
		HeartbeatTimeout:      campaignTimeout,
		OnCheckpoint:          func() { saved = app.Steps() },
		OnRollback:            func() { app.TruncateResult(saved) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err != nil || ctrl.Err() != nil {
		t.Fatalf("campaign run: %v / %v", err, ctrl.Err())
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d events", tr.Dropped())
	}
	for _, e := range tr.Events() {
		if e.Kind != charm.KFault && e.Kind != charm.KCheckpoint {
			continue
		}
		if _, ok := declared[e.Entry]; !ok {
			t.Errorf("event #%d (%s) carries undeclared sub-kind %q", e.ID, e.Kind, e.Entry)
		}
		declared[e.Entry] = true
	}
	for kind, seen := range declared {
		if !seen {
			t.Errorf("the campaign emitted no %q event", kind)
		}
	}
}
