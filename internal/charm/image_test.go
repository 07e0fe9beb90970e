package charm_test

import (
	"bytes"
	"testing"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/chaos"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

// TestCheckpointAdoptsCleanImages: LeanMD balancing every two steps under
// one crash, on every backend. Each checkpoint cut adopts the LB round's
// images of the elements that have not run since; a hook after every cut
// repacks the live state and requires the stored bytes to equal it. At the
// end of the run, after steps that ran past the last round's view, every
// element's AppendImage must still be its live state: an element that ran
// and kept its clean bit would hand out the view's stale bytes.
func TestCheckpointAdoptsCleanImages(t *testing.T) {
	for _, backend := range []string{"sequential", "parallel", "optimistic"} {
		cfg := machine.Vesta(16)
		cfg.Backend = backend
		rt := charm.New(machine.New(cfg))
		rt.SetBalancer(lb.Greedy{})
		app, err := leanmd.New(rt, leanmd.Config{
			CellsX: 3, CellsY: 3, CellsZ: 3, AtomsPerCell: 12, Gaussian: 6,
			Steps: 9, LBPeriod: 2, MigratePeriod: 4, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var ctrl *chaos.Controller
		cuts, saved := 0, 0
		ctrl, err = chaos.Enable(rt, chaos.CrashPlan(1, 1, 16, 0.0016, 0.0020), chaos.Options{
			CheckpointEveryRounds: 1,
			OnCheckpoint: func() {
				cuts++
				saved = app.Steps()
				for _, as := range ctrl.Mem().Snapshot().Arrays {
					arr := rt.ArrayByName(as.Name)
					for _, es := range as.Elems {
						if live := charm.PackLive(arr, es.Idx); !bytes.Equal(es.Data, live) {
							t.Errorf("%s: cut %d stores %d bytes for %s%v, its live state packs to %d different ones",
								backend, cuts, len(es.Data), as.Name, es.Idx, len(live))
						}
					}
				}
			},
			OnRollback: func() { app.TruncateResult(saved) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Run(); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if ctrl.Err() != nil || ctrl.Survived() != 1 {
			t.Fatalf("%s: controller error %v, survived %d of 1 crashes", backend, ctrl.Err(), ctrl.Survived())
		}
		if cuts < 2 {
			t.Fatalf("%s: %d checkpoints taken, want at least 2", backend, cuts)
		}
		for _, arr := range rt.Arrays() {
			for _, idx := range arr.Keys() {
				if img, live := arr.AppendImage(nil, idx), charm.PackLive(arr, idx); !bytes.Equal(img, live) {
					t.Fatalf("%s: at the end of the run %s%v images to %d bytes that are not its live state's %d",
						backend, arr.Name(), idx, len(img), len(live))
				}
			}
		}
	}
}
