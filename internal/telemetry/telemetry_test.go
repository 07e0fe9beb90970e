package telemetry_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pdes"
	"charmgo/internal/apps/stencil"
	"charmgo/internal/chaos"
	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/projections"
	"charmgo/internal/telemetry"
)

// digestedRun mirrors the determinism suite's run digest — full event log +
// event count + runtime stats + app summary — optionally with telemetry
// attached. Telemetry must not perturb any of it.
func digestedRun(t *testing.T, withTelemetry bool, mk func() machine.Config, run func(rt *charm.Runtime) string) string {
	t.Helper()
	rt := charm.New(machine.New(mk()))
	if withTelemetry {
		tel := telemetry.Attach(rt, telemetry.Options{FlightDir: t.TempDir()})
		defer tel.Final()
	}
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
	return hex.EncodeToString(h.Sum(nil))
}

func withBackend(mk func() machine.Config, backend string) func() machine.Config {
	return func() machine.Config {
		c := mk()
		c.Backend = backend
		return c
	}
}

// assertTelemetryNeutral runs an app with and without telemetry on every
// backend and demands byte-identical digests: the observability layer is
// strictly side-band.
func assertTelemetryNeutral(t *testing.T, name string, mk func() machine.Config, run func(rt *charm.Runtime) string) {
	t.Helper()
	for _, backend := range []string{"sequential", "parallel", "optimistic"} {
		t.Run(backend, func(t *testing.T) {
			off := digestedRun(t, false, withBackend(mk, backend), run)
			on := digestedRun(t, true, withBackend(mk, backend), run)
			if off != on {
				t.Errorf("%s/%s: telemetry perturbed the run:\n  off: %s\n  on:  %s", name, backend, off, on)
			}
		})
	}
}

func TestLeanMDTelemetryNeutral(t *testing.T) {
	cfg := leanmd.Config{
		CellsX: 3, CellsY: 3, CellsZ: 3,
		AtomsPerCell: 20, Steps: 8, Seed: 42,
		LBPeriod: 3, Gaussian: 0.35,
	}
	assertTelemetryNeutral(t, "leanmd",
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

func TestPDESTelemetryNeutral(t *testing.T) {
	cfg := pdes.Config{
		LPs: 64, EventsPerLP: 8, TargetEvents: 4000, Seed: 42,
		UseTram: true, LBPeriodWindows: 4,
	}
	assertTelemetryNeutral(t, "pdes",
		func() machine.Config { return machine.Testbed(16) },
		func(rt *charm.Runtime) string {
			rt.SetBalancer(lb.Greedy{})
			res, err := pdes.Run(rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("committed=%d windows=%d maxvt=%v", res.Committed, res.Windows, res.MaxVT)
		})
}

func TestStencilTelemetryNeutral(t *testing.T) {
	cfg := stencil.Config{GridN: 96, Chares: 12, Iters: 12, LBPeriod: 4}
	assertTelemetryNeutral(t, "stencil",
		func() machine.Config { return machine.Testbed(16) },
		func(rt *charm.Runtime) string {
			rt.SetBalancer(lb.Greedy{})
			res, err := stencil.Run(rt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("iters=%d residuals=%v done=%v", len(res.Residuals), res.Residuals, res.IterDone)
		})
}

// TestProbePathAllocFree pins both sides of the probe hook. With no
// telemetry attached the instrumented engine path is a nil check, so it
// must keep the calendar engine's steady-state zero-alloc budget; with
// telemetry attached the per-event cost is atomic counter/histogram bumps
// (the publish pump is throttled out by a long interval), so the budget
// barely moves.
func TestProbePathAllocFree(t *testing.T) {
	measure := func(eng *des.Sequential) float64 {
		remaining := 0
		var fn des.PhaseFn
		fn = func(a any, b int64, at des.Time) func() {
			if remaining > 0 {
				remaining--
				eng.AtShardFn(0, at+1e-6, fn, nil, 0)
			}
			return nil
		}
		run := func(n int) {
			remaining = n
			eng.AtShardFn(0, eng.Now()+1e-6, fn, nil, 0)
			for eng.Step() {
			}
		}
		run(20000) // warm slab + calendar
		const perRun = 200
		allocs := testing.AllocsPerRun(100, func() { run(perRun) })
		return allocs / (perRun + 1)
	}

	rt := charm.New(machine.New(machine.Testbed(2)))
	eng, ok := rt.Engine().(*des.Sequential)
	if !ok {
		t.Fatalf("sequential backend is %T, want *des.Sequential", rt.Engine())
	}

	if per := measure(eng); per > 0.05 {
		t.Errorf("disabled probe path allocates %.3f per event, want <= 0.05 (nil check only)", per)
	}

	tel := telemetry.Attach(rt, telemetry.Options{
		PublishInterval: time.Hour, // keep the publish pump out of the loop
		FlightDir:       t.TempDir(),
	})
	_ = tel
	if per := measure(eng); per > 0.05 {
		t.Errorf("enabled probe path allocates %.3f per event, want <= 0.05 (atomic bumps only)", per)
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	rt := charm.New(machine.New(machine.Testbed(4)))
	tel := telemetry.Attach(rt, telemetry.Options{FlightSize: 4, FlightDir: t.TempDir()})
	rec := tel.Flight()

	for i := 0; i < 10; i++ {
		rec.Note(0, "spec_launch", des.Time(float64(i)), "")
	}
	for i := 0; i < 3; i++ {
		rec.Note(-1, "window_stall", des.Time(float64(100+i)), "")
	}
	if rec.Seq() != 13 {
		t.Fatalf("Seq = %d, want 13", rec.Seq())
	}
	snap := rec.Snapshot()
	// Shard 0's ring keeps the newest 4 of 10; the driver ring all 3.
	if len(snap) != 7 {
		t.Fatalf("retained %d entries, want 7 (4 shard + 3 driver)", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatalf("snapshot not seq-ordered at %d: %d after %d", i, snap[i].Seq, snap[i-1].Seq)
		}
	}
	var shard0 []telemetry.FlightEntry
	for _, e := range snap {
		if e.Shard == 0 {
			shard0 = append(shard0, e)
		}
	}
	if len(shard0) != 4 || shard0[0].VT != 6 || shard0[3].VT != 9 {
		t.Fatalf("shard 0 ring kept %v, want VT 6..9", shard0)
	}

	path, err := rec.Dump("test")
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	assertParseableDump(t, path, "test", 7)
}

// assertParseableDump decodes a flight-recorder artifact and sanity-checks
// its shape.
func assertParseableDump(t *testing.T, path, reason string, minEntries int) telemetry.FlightDump {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	var doc telemetry.FlightDump
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump %s is not valid JSON: %v", path, err)
	}
	if doc.Reason != reason {
		t.Errorf("dump reason %q, want %q", doc.Reason, reason)
	}
	if len(doc.Entries) < minEntries {
		t.Errorf("dump holds %d entries, want >= %d", len(doc.Entries), minEntries)
	}
	return doc
}

// findDump returns the lone flightrec-<reason>-* artifact in dir.
func findDump(t *testing.T, dir, reason string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "flightrec-"+reason+"-*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no flightrec-%s dump in %s (err=%v)", reason, dir, err)
	}
	return matches[0]
}

// TestChaosDetectionDump kills a PE mid-run with telemetry watching the
// fault controller: detection must dump the flight recorder (with the
// pre-crash decision history still in the ring) and recovery must land in
// the wall.chaos_recovery_ns timer.
func TestChaosDetectionDump(t *testing.T) {
	runLeanMD := func(dir string, plan *chaos.Plan) (tel *telemetry.Telemetry, elapsed float64) {
		cfg := machine.Testbed(8)
		rt := charm.New(machine.New(cfg))
		rt.SetBalancer(lb.Greedy{})
		app, err := leanmd.New(rt, leanmd.Config{
			CellsX: 3, CellsY: 3, CellsZ: 3,
			AtomsPerCell: 20, Steps: 18, LBPeriod: 3,
			Gaussian: 0.35, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if dir != "" {
			tel = telemetry.Attach(rt, telemetry.Options{FlightDir: dir})
		}
		if plan != nil {
			saved := 0
			ctrl, err := chaos.Enable(rt, *plan, chaos.Options{
				CheckpointEveryRounds: 1,
				HeartbeatPeriod:       2e-4,
				HeartbeatTimeout:      1.5e-4,
				OnCheckpoint:          func() { saved = app.Steps() },
				OnRollback:            func() { app.TruncateResult(saved) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if tel != nil {
				tel.WatchChaos(ctrl)
			}
			defer func() {
				if ctrl.Err() != nil {
					t.Fatalf("recovery failed: %v", ctrl.Err())
				}
				if ctrl.Survived() != 1 {
					t.Fatalf("survived %d crashes, want 1", ctrl.Survived())
				}
			}()
		}
		res, err := app.Run()
		if err != nil {
			t.Fatal(err)
		}
		return tel, float64(res.Elapsed)
	}

	_, elapsed := runLeanMD("", nil) // probe run to position the crash
	plan := chaos.CrashPlan(7, 1, 8, 0.45*elapsed, 0.95*elapsed)

	dir := t.TempDir()
	tel, _ := runLeanMD(dir, &plan)

	if d := tel.Flight().Dumps(); d < 1 {
		t.Fatalf("flight dumps = %d, want >= 1", d)
	}
	doc := assertParseableDump(t, findDump(t, dir, "chaos-detect"), "chaos-detect", 1)
	miss := false
	for _, e := range doc.Entries {
		if e.Kind == "heartbeat_miss" {
			miss = true
		}
	}
	if !miss {
		t.Errorf("chaos-detect dump holds no heartbeat_miss entry")
	}
	tel.Final()
	if got := tel.Registry().Timer("wall.chaos_recovery_ns").Count(); got != 1 {
		t.Errorf("wall.chaos_recovery_ns count = %d, want 1", got)
	}
}

// TestRollbackStormDump drives the optimistic backend with the storm
// threshold at its floor: the first rollback is a "storm" and must produce
// a parseable dump. The PDES workload reliably speculates across LP
// boundaries and takes stragglers.
func TestRollbackStormDump(t *testing.T) {
	dir := t.TempDir()
	cfg := machine.Testbed(16)
	cfg.Backend = "optimistic"
	rt := charm.New(machine.New(cfg))
	rt.SetBalancer(lb.Greedy{})
	tel := telemetry.Attach(rt, telemetry.Options{FlightDir: dir, StormThreshold: 1})
	if _, err := pdes.Run(rt, pdes.Config{
		LPs: 64, EventsPerLP: 8, TargetEvents: 4000, Seed: 42,
		UseTram: true, LBPeriodWindows: 4,
	}); err != nil {
		t.Fatal(err)
	}
	tel.Final()
	rolls := tel.Registry().Counter("wall.rollbacks").Value()
	if rolls == 0 {
		t.Skip("optimistic run took no rollbacks; storm trigger unexercised")
	}
	if d := tel.Flight().Dumps(); d < 1 {
		t.Fatalf("rollbacks=%d but flight dumps = %d, want >= 1", rolls, d)
	}
	doc := assertParseableDump(t, findDump(t, dir, "rollback-storm"), "rollback-storm", 1)
	found := false
	for _, e := range doc.Entries {
		if e.Kind == "rollback" {
			found = true
		}
	}
	if !found {
		t.Errorf("rollback-storm dump holds no rollback entry")
	}
}

// TestPanicDump re-execs the test binary, crashes the helper run inside a
// DumpOnPanic guard, and checks the postmortem artifact parses.
func TestPanicDump(t *testing.T) {
	if dir := os.Getenv("TELEMETRY_PANIC_DIR"); dir != "" {
		// Helper mode: attach, record a little history, crash.
		rt := charm.New(machine.New(machine.Testbed(4)))
		tel := telemetry.Attach(rt, telemetry.Options{FlightDir: dir})
		defer tel.DumpOnPanic()
		tel.Flight().Note(0, "spec_launch", 1.0, "pre-crash history")
		panic("simulated engine crash")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestPanicDump$", "-test.v")
	cmd.Env = append(os.Environ(), "TELEMETRY_PANIC_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("helper run did not crash; output:\n%s", out)
	}
	doc := assertParseableDump(t, findDump(t, dir, "panic"), "panic", 2)
	var kinds []string
	for _, e := range doc.Entries {
		kinds = append(kinds, e.Kind)
	}
	if kinds[len(kinds)-1] != "panic" {
		t.Errorf("last dump entry kinds = %v, want trailing panic record", kinds)
	}
}
