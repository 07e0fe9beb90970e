package telemetry_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pdes"
	"charmgo/internal/apps/stencil"
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
		FlightDir: t.TempDir(),
	})
	_ = tel
	if per := measure(eng); per > 0.05 {
		t.Errorf("enabled probe path allocates %.3f per event, want <= 0.05 (atomic bumps only)", per)
	}
}

// TestFlightRecorderWraparound overfills the one ring from several shards
// and the driver: what is kept is exactly the newest FlightCap records, in
// the order they were noted, and a Dump racing Notes is still a parseable,
// seq-ordered history (the -race run is what checks the locking).
func TestFlightRecorderWraparound(t *testing.T) {
	rt := charm.New(machine.New(machine.Testbed(4)))
	tel := telemetry.Attach(rt, telemetry.Options{FlightDir: t.TempDir()})
	rec := tel.Flight()

	const extra = 37
	shardOf := func(i int) int { return i%5 - 1 } // the driver (-1) and shards 0..3
	for i := 0; i < telemetry.FlightCap+extra; i++ {
		rec.Note(shardOf(i), "spec_launch", des.Time(float64(i)), "")
	}
	if rec.Seq() != telemetry.FlightCap+extra {
		t.Fatalf("Seq = %d, want %d", rec.Seq(), telemetry.FlightCap+extra)
	}
	snap := rec.Snapshot()
	if len(snap) != telemetry.FlightCap {
		t.Fatalf("retained %d entries, want the ring's %d", len(snap), telemetry.FlightCap)
	}
	for k, e := range snap {
		i := extra + k
		if e.Seq != uint64(i) || e.VT != float64(i) || e.Shard != shardOf(i) {
			t.Fatalf("snapshot[%d] = %+v, want seq/vt %d from shard %d", k, e, i, shardOf(i))
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			rec.Note(shardOf(i), "rollback", des.Time(float64(i)), "concurrent")
		}
	}()
	path, err := rec.Dump("test")
	<-done
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	doc := assertParseableDump(t, path, "test", telemetry.FlightCap)
	for i := 1; i < len(doc.Entries); i++ {
		if doc.Entries[i].Seq != doc.Entries[i-1].Seq+1 {
			t.Fatalf("dump not in seq order at %d: %d after %d", i, doc.Entries[i].Seq, doc.Entries[i-1].Seq)
		}
	}
}

// TestAttachAllocIndependentOfWidth holds Attach to a fixed cost: the ring
// is one allocation of FlightCap entries, not one per node, so watching the
// 16 Ki-PE machine costs what watching a 16-PE one does.
func TestAttachAllocIndependentOfWidth(t *testing.T) {
	attachBytes := func(pes int) int64 {
		rt := charm.New(machine.New(machine.Testbed(pes)))
		opts := telemetry.Options{FlightDir: t.TempDir()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tel := telemetry.Attach(rt, opts)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tel)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	narrow, wide := attachBytes(16), attachBytes(16384)
	t.Logf("Attach allocates %d bytes at 16 PEs, %d at 16384", narrow, wide)
	if wide > 1<<20 {
		t.Errorf("Attach on 16384 PEs allocated %d bytes, want <= 1 MiB", wide)
	}
	if d := wide - narrow; d > 64<<10 || d < -64<<10 {
		t.Errorf("Attach allocated %d bytes at 16 PEs but %d at 16384; want them within 64 KiB", narrow, wide)
	}
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
