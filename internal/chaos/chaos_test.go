package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

// assertCampaign checks the headline invariant for one app: K injected
// mid-run crashes, detected and recovered mid-run, and the final
// application results are bit-identical to the failure-free run on all
// three backends (sequential, conservative-parallel, optimistic).
func assertCampaign(t *testing.T, app string, crashes int, seed int64) *Bench {
	t.Helper()
	b, err := RunCampaignOpts(app, crashes, 0, seed, 0)
	if err != nil {
		t.Fatalf("%s campaign: %v", app, err)
	}
	if len(b.Results) != 3 {
		t.Fatalf("%s: want 3 backends, got %d", app, len(b.Results))
	}
	for _, r := range b.Results {
		if r.Survived != crashes {
			t.Errorf("%s/%s: survived %d of %d crashes", app, r.Backend, r.Survived, crashes)
		}
		if !r.ValuesMatch {
			t.Errorf("%s/%s: chaos run values differ from failure-free run", app, r.Backend)
		}
		if !r.DigestMatch {
			t.Errorf("%s/%s: final state digest differs from failure-free run", app, r.Backend)
		}
		for i, rec := range r.Records {
			if !rec.DigestOK {
				t.Errorf("%s/%s: recovery %d: post-restore digest does not match checkpoint", app, r.Backend, i)
			}
			if rec.DetectionLatency() <= 0 {
				t.Errorf("%s/%s: recovery %d: non-positive detection latency %v", app, r.Backend, i, rec.DetectionLatency())
			}
			if rec.ResumedAt <= rec.DetectedAt {
				t.Errorf("%s/%s: recovery %d: resumed (%v) before detected (%v)", app, r.Backend, i, rec.ResumedAt, rec.DetectedAt)
			}
		}
		if r.ChaosElapsed <= r.CleanElapsed {
			t.Errorf("%s/%s: chaos run (%v) not slower than clean run (%v); recovery cost unaccounted",
				app, r.Backend, r.ChaosElapsed, r.CleanElapsed)
		}
	}
	if !b.CrossBackendMatch {
		t.Errorf("%s: backends disagree on final state", app)
	}
	return b
}

// reportJSON renders a report the way cmd/chaos -out writes it.
func reportJSON(t *testing.T, report any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// assertGolden requires got to be testdata/name byte for byte. The reports
// are deterministic — every time in them is virtual — so a difference is a
// change to a fault plan, a recovery cost or a state digest: a model change,
// to be explained and regenerated with the cmd/chaos command given.
func assertGolden(t *testing.T, name, regenerate string, got []byte) {
	t.Helper()
	want := golden(t, name)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl)-1 && i < len(wl)-1 && gl[i] == wl[i] {
		i++
	}
	t.Errorf("report is not testdata/%s (%d vs %d bytes), first at line %d; if the change is meant, regenerate with %s\n  got  %s\n  want %s",
		name, len(got), len(want), i+1, regenerate, gl[i], wl[i])
}

func golden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertSurvivesCrashes runs the campaign whose report is committed: three
// crashes, seed 42. testdata/campaign.json holds all of Apps() and each test
// computes one entry, so it puts its own in the recorded report's place and
// requires the rendering to be the file: between them the three tests cover
// every byte of it.
func assertSurvivesCrashes(t *testing.T, app string) {
	b := assertCampaign(t, app, 3, 42)
	var report []*Bench
	if err := json.Unmarshal(golden(t, "campaign.json"), &report); err != nil {
		t.Fatal(err)
	}
	if len(report) != len(Apps()) {
		t.Fatalf("testdata/campaign.json holds %d apps, want %d", len(report), len(Apps()))
	}
	report[slices.Index(Apps(), app)] = b
	assertGolden(t, "campaign.json", "go run ./cmd/chaos -out internal/chaos/testdata/campaign.json", reportJSON(t, report))
}

func TestLeanMDSurvivesCrashes(t *testing.T) { assertSurvivesCrashes(t, "leanmd") }

func TestStencilSurvivesCrashes(t *testing.T) { assertSurvivesCrashes(t, "stencil") }

func TestPDESSurvivesCrashes(t *testing.T) { assertSurvivesCrashes(t, "pdes") }

// TestFTBenchGolden runs the fault-tolerance benchmark — the replication
// sweep R = 1..3 and the evacuation-vs-rollback comparison on every app and
// backend — and holds its report to the committed one, which records
// digests_identical in every cell.
func TestFTBenchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve campaigns, ~10 s")
	}
	rep, err := RunFTBench(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.Apps {
		for _, p := range a.Points {
			if !p.DigestsIdentical {
				t.Errorf("%s R=%d: digests diverge from the failure-free run", a.App, p.Replication)
			}
		}
	}
	assertGolden(t, "ft.json", "go run ./cmd/chaos -ft -out internal/chaos/testdata/ft.json", reportJSON(t, rep))
}

// TestBenchDeterminism: the same plan and seed must produce a
// byte-identical campaign report across two consecutive runs.
func TestBenchDeterminism(t *testing.T) {
	b1, err := RunCampaignOpts("stencil", 2, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := RunCampaignOpts("stencil", 2, 0, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.MarshalIndent(b1, "", "  ")
	j2, _ := json.MarshalIndent(b2, "", "  ")
	if string(j1) != string(j2) {
		t.Fatalf("campaign report not reproducible:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", j1, j2)
	}
}

// TestCrashPlanDeterminism: same seed, same plan; crash victims are
// never PE 0.
func TestCrashPlanDeterminism(t *testing.T) {
	p1 := CrashPlan(3, 5, 8, 0.1, 1.0)
	p2 := CrashPlan(3, 5, 8, 0.1, 1.0)
	if len(p1.Faults) != 5 {
		t.Fatalf("want 5 faults, got %d", len(p1.Faults))
	}
	for i := range p1.Faults {
		if p1.Faults[i] != p2.Faults[i] {
			t.Fatalf("fault %d differs: %+v vs %+v", i, p1.Faults[i], p2.Faults[i])
		}
		if p1.Faults[i].PE == 0 {
			t.Fatalf("fault %d crashes PE 0 (reserved for the detector)", i)
		}
		if i > 0 && p1.Faults[i].At <= p1.Faults[i-1].At {
			t.Fatalf("fault %d not after fault %d", i, i-1)
		}
	}
	if err := p1.Validate(8); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Faults: []Fault{{Kind: FaultCrash, At: 1, PE: 0}}},         // detector PE
		{Faults: []Fault{{Kind: FaultCrash, At: 1, PE: 8}}},         // out of range
		{Faults: []Fault{{Kind: FaultDrop, At: 2, Until: 1}}},       // empty window
		{Faults: []Fault{{Kind: FaultStraggler, PE: 1, Factor: 1}}}, // factor ≥ 1
		{Faults: []Fault{{Kind: "meteor", At: 1}}},                  // unknown kind
	}
	for i, p := range bad {
		if p.Validate(8) == nil {
			t.Errorf("plan %d: want validation error, got nil", i)
		}
	}
	ok := Plan{Faults: []Fault{
		{Kind: FaultCrash, At: 1, PE: 3},
		{Kind: FaultDrop, At: 0.5, Until: 0.6, PE: -1, SrcPE: -1, Prob: 0.1},
		{Kind: FaultDelay, At: 0.5, Until: 0.6, PE: 2, SrcPE: -1, Delay: 1e-4, Prob: 1},
		{Kind: FaultStraggler, At: 0.5, Until: 0.7, PE: 1, Factor: 0.5},
	}}
	if err := ok.Validate(8); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestCampaignUsage: a campaign argument outside its range is a typed usage
// error naming the range, not a report over a run that used something else.
func TestCampaignUsage(t *testing.T) {
	bad := []struct {
		app                         string
		crashes, warns, replication int
		want                        string
	}{
		{"meteor", 1, 0, 0, "want leanmd, stencil, or pdes"},
		{"stencil", -1, 0, 0, "-1 crashes out of range (want >= 0)"},
		{"stencil", 1, -2, 0, "-2 warns out of range (want >= 0)"},
		{"stencil", 1, 0, -2, "replication degree -2 out of range"},
		{"stencil", 1, 0, 8, "1..7 on stencil's 8 PEs"},
		{"stencil", 1, 0, 99, "1..7 on stencil's 8 PEs"},
		{"pdes", 1, 0, 32, "1..31 on pdes's 32 PEs"},
	}
	for _, c := range bad {
		b, err := RunCampaignOpts(c.app, c.crashes, c.warns, 42, c.replication)
		var ue *UsageError
		if b != nil || !errors.As(err, &ue) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunCampaignOpts(%q, %d, %d, 42, %d) = %v, %v; want a *UsageError containing %q",
				c.app, c.crashes, c.warns, c.replication, b, err, c.want)
		}
	}
	// The largest degree the machine holds is accepted, and reported as asked.
	b, err := RunCampaignOpts("stencil", 1, 0, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.Replication != 7 {
		t.Errorf("replication %d reported, want 7", b.Replication)
	}
}

// TestCrashWithoutCheckpoint: a failure before any checkpoint exists is a
// terminal, typed error — the run aborts rather than hanging stalled.
func TestCrashWithoutCheckpoint(t *testing.T) {
	rt := charm.New(machine.New(machine.Testbed(8)))
	app, err := leanmd.New(rt, leanmd.Config{
		CellsX: 3, CellsY: 3, CellsZ: 3, AtomsPerCell: 8, Steps: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No LBPeriod, CheckpointEveryRounds 0: nothing ever checkpoints.
	plan := Plan{Seed: 1, Faults: []Fault{{Kind: FaultCrash, At: 1e-3, PE: 2}}}
	ctrl, err := Enable(rt, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err == nil {
		t.Fatal("want app run to fail, got nil")
	}
	if !errors.Is(ctrl.Err(), ckpt.ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", ctrl.Err())
	}
}

// TestDropDelayStragglerDeterminism: lossy faults cannot promise value
// identity with the failure-free run, but the same plan must reproduce
// the same execution twice, and the injection counters must advance.
func TestDropDelayStragglerDeterminism(t *testing.T) {
	run := func() (*charm.Runtime, []float64) {
		rt := charm.New(machine.New(machine.Testbed(8)))
		rt.SetBalancer(lb.Greedy{})
		app, err := leanmd.New(rt, leanmd.Config{
			CellsX: 3, CellsY: 3, CellsZ: 3, AtomsPerCell: 8, Steps: 6, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan := Plan{Seed: 9, Faults: []Fault{
			// Delay (not drop) for the app to still converge: leanmd
			// tolerates late messages but not lost ones.
			{Kind: FaultDelay, At: 0, Until: 1, PE: -1, SrcPE: -1, Prob: 0.2, Delay: 3e-5},
			{Kind: FaultStraggler, At: 0, Until: 1, PE: 3, Factor: 0.4},
		}}
		ctrl, err := Enable(rt, plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := app.Run()
		if err != nil {
			t.Fatalf("run under delay/straggler faults: %v", err)
		}
		if ctrl.Err() != nil {
			t.Fatalf("controller error: %v", ctrl.Err())
		}
		return rt, res.Energy
	}
	rt1, e1 := run()
	rt2, e2 := run()
	if !floatsEqual(e1, e2) {
		t.Fatalf("same fault plan, different energies:\n%v\n%v", e1, e2)
	}
	if StateDigest(rt1) != StateDigest(rt2) {
		t.Fatal("same fault plan, different final state digests")
	}
}

// TestDropInjection: drops actually lose messages (counter advances) and
// the seeded filter is reproducible.
func TestDropInjection(t *testing.T) {
	count := func() uint64 {
		rt := charm.New(machine.New(machine.Testbed(4)))
		app, err := leanmd.New(rt, leanmd.Config{
			CellsX: 3, CellsY: 3, CellsZ: 3, AtomsPerCell: 8, Steps: 50, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan := Plan{Seed: 11, Faults: []Fault{
			{Kind: FaultDrop, At: 0, Until: 1e9, PE: -1, SrcPE: -1, Prob: 0.01},
		}}
		if _, err := Enable(rt, plan, Options{}); err != nil {
			t.Fatal(err)
		}
		app.Run() // the app stalls once a force message is lost; that's expected
		return rt.Stats.MsgsDropped
	}
	d1 := count()
	if d1 == 0 {
		t.Fatal("drop fault dropped nothing")
	}
	if d2 := count(); d2 != d1 {
		t.Fatalf("drop counts differ across identical runs: %d vs %d", d1, d2)
	}
}

// TestMulticastRerouteSurvivesCrash: a multicast bundle that lands on a PE its
// member has migrated away from is re-sent, one message per member, through
// the location manager — a second way onto the wire beside Runtime.send. The
// re-route must carry the recovery epoch like any other message: when it did
// not, every one made after the first rollback was discarded on arrival as
// pre-rollback traffic with its quiescence count still held, the compute never
// got its positions, and the heartbeat chain kept the engine alive forever.
// No campaign turns UseMulticast on, so this is the input that reaches it:
// LB every 2 steps scatters the computes behind the cells' hints, and one
// crash puts the run in epoch 1. A global event at a virtual deadline far past
// the failure-free end turns the hang into a failure.
func TestMulticastRerouteSurvivesCrash(t *testing.T) {
	run := func(backend string, plan *Plan) (energy []float64, survived int) {
		t.Helper()
		rt := newRuntime(machine.Vesta(16), backend)
		rt.SetBalancer(lb.Greedy{})
		app, err := leanmd.New(rt, leanmd.Config{
			CellsX: 3, CellsY: 3, CellsZ: 3, AtomsPerCell: 12, Gaussian: 6,
			Steps: 8, LBPeriod: 2, MigratePeriod: 4, Seed: 1, UseMulticast: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var ctrl *Controller
		if plan != nil {
			saved := 0
			ctrl, err = Enable(rt, *plan, Options{
				CheckpointEveryRounds: 1,
				OnCheckpoint:          func() { saved = app.Steps() },
				OnRollback:            func() { app.TruncateResult(saved) },
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		rt.Engine().At(1, func() { // the failure-free run ends at 1.8 ms, the crashed one at 8.4
			t.Errorf("%s: still running at t=1s with %d events pending", backend, rt.Engine().Pending())
			rt.Engine().Stop()
		})
		res, err := app.Run()
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if ctrl != nil {
			if ctrl.Err() != nil {
				t.Fatalf("%s: controller: %v", backend, ctrl.Err())
			}
			survived = ctrl.Survived()
		}
		return res.Energy, survived
	}
	clean, _ := run("sequential", nil)
	plan := CrashPlan(1, 1, 16, 0.0016, 0.0020)
	for _, backend := range []string{"sequential", "parallel", "optimistic"} {
		energy, survived := run(backend, &plan)
		if survived != 1 {
			t.Errorf("%s: survived %d of 1 crashes", backend, survived)
		}
		if !floatsEqual(energy, clean) {
			t.Errorf("%s: energy trajectory differs from the failure-free run:\n%v\n%v", backend, energy, clean)
		}
	}
}
