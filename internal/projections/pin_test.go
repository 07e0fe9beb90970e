package projections

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pdes"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

// TestLogPinCrossBackend pins the bytes of the event log: the two 16-PE runs
// `cmd/projections -app leanmd|pdes` makes by default must hash to these
// values on every backend. The cross-backend tests beside it only compare
// backends with each other; this one makes a change to what is emitted, in
// what order, or how it is rendered a deliberate edit of a constant.
func TestLogPinCrossBackend(t *testing.T) {
	apps := []struct {
		name, sha string
		run       func(rt *charm.Runtime) error
	}{
		{"leanmd", "3dc4cf2c1aebc0df7a0599c0f50c40549a21b3f585c72e8cba9f68815a188d30", func(rt *charm.Runtime) error {
			_, err := leanmd.Run(rt, leanmd.Config{
				CellsX: 3, CellsY: 3, CellsZ: 3,
				AtomsPerCell: 20, Steps: 8, Seed: 42,
				LBPeriod: 3, Gaussian: 0.35,
			})
			return err
		}},
		{"pdes", "593eb7d3aedef0db00768a82daacb22347b2c10d4f5eac855963542471a7caf6", func(rt *charm.Runtime) error {
			_, err := pdes.Run(rt, pdes.Config{
				LPs: 64, EventsPerLP: 8, TargetEvents: 4000,
				Seed: 42, UseTram: true, LBPeriodWindows: 4,
			})
			return err
		}},
	}
	for _, app := range apps {
		for _, backend := range []string{"sequential", "parallel", "optimistic"} {
			t.Run(app.name+"/"+backend, func(t *testing.T) {
				log := tracedRun(t, func() machine.Config { return machine.Testbed(16) }, backend,
					func(rt *charm.Runtime) {
						rt.SetBalancer(lb.Greedy{})
						if err := app.run(rt); err != nil {
							t.Fatal(err)
						}
					})
				sum := sha256.Sum256(log)
				if got := hex.EncodeToString(sum[:]); got != app.sha {
					t.Fatalf("event log changed: sha256 %s, pinned %s", got, app.sha)
				}
			})
		}
	}
}
