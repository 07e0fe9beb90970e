package projections

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pdes"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

// The observability acceptance gate: an identical app run on the
// sequential, the conservative parsim, and the optimistic optsim backend
// must produce byte-identical event logs — same events, same virtual
// timestamps, same monotone event IDs. The log serialization (WriteLog)
// is the comparison unit, so any divergence in hook-call order,
// timestamping, or ID assignment anywhere in the runtime shows up as a
// byte diff here. (Spec lifecycle events are opt-in precisely because
// they would break this identity; see TestSpecEventsRecorded.)

// tracedRun executes an app with a tracer attached (engine phase events
// included) and returns the serialized event log.
func tracedRun(t *testing.T, mk func() machine.Config, backend string, run func(rt *charm.Runtime)) []byte {
	t.Helper()
	cfg := mk()
	cfg.Backend = backend
	rt := charm.New(machine.New(cfg))
	tr := Attach(rt, Options{EngineEvents: true})
	run(rt)
	if tr.Dropped() != 0 {
		t.Fatalf("%s backend dropped %d events: the run outgrew the log, so the comparison is not total", backend, tr.Dropped())
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, tr.Events(), tr.Names()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertTraceCrossBackend(t *testing.T, name string, mk func() machine.Config, run func(rt *charm.Runtime)) {
	t.Helper()
	seq := tracedRun(t, mk, "sequential", run)
	if len(seq) == 0 {
		t.Fatalf("%s: sequential run produced an empty trace", name)
	}
	for _, backend := range []string{"parallel", "optimistic"} {
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/gomaxprocs=%d", backend, procs), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				par := tracedRun(t, mk, backend, run)
				if !bytes.Equal(seq, par) {
					t.Fatalf("%s: event log diverged on %s backend at GOMAXPROCS=%d (%d vs %d bytes); first diff at byte %d",
						name, backend, procs, len(seq), len(par), firstDiff(seq, par))
				}
			})
		}
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestLeanMDTraceCrossBackend(t *testing.T) {
	cfg := leanmd.Config{
		CellsX: 3, CellsY: 3, CellsZ: 3,
		AtomsPerCell: 20, Steps: 8, Seed: 42,
		LBPeriod: 3, Gaussian: 0.35, // imbalance: exercises migration + LB events
	}
	assertTraceCrossBackend(t, "leanmd",
		func() machine.Config { return machine.Testbed(8) },
		func(rt *charm.Runtime) {
			rt.SetBalancer(lb.Greedy{})
			if _, err := leanmd.Run(rt, cfg); err != nil {
				t.Fatal(err)
			}
		})
}

// TestSpecEventsRecorded exercises the opt-in speculation lifecycle
// trace: on the optimistic backend with SpecEvents on, the log must
// contain launch and commit events (and be internally consistent:
// commits + rollbacks never exceed launches), and two identical runs
// must produce byte-identical logs — speculation decisions are made by
// the driver, so the extra events are as deterministic as the rest.
func TestSpecEventsRecorded(t *testing.T) {
	cfg := pdes.Config{
		LPs: 32, EventsPerLP: 8, TargetEvents: 2000, Seed: 7,
	}
	specRun := func(opts Options) []byte {
		mcfg := machine.Testbed(8)
		mcfg.Backend = "optimistic"
		rt := charm.New(machine.New(mcfg))
		tr := Attach(rt, opts)
		if _, err := pdes.Run(rt, cfg); err != nil {
			t.Fatal(err)
		}
		if tr.Dropped() != 0 {
			t.Fatalf("dropped %d events", tr.Dropped())
		}
		var buf bytes.Buffer
		if err := WriteLog(&buf, tr.Events(), tr.Names()); err != nil {
			t.Fatal(err)
		}
		var launches, commits, rollbacks int
		for _, e := range tr.Events() {
			switch e.Kind {
			case charm.KSpecLaunch:
				launches++
			case charm.KSpecCommit:
				commits++
			case charm.KSpecRollback:
				rollbacks++
			}
		}
		if launches == 0 || commits == 0 {
			t.Fatalf("optimistic run recorded no speculation (launch=%d commit=%d)", launches, commits)
		}
		if commits+rollbacks > launches {
			t.Fatalf("spec accounting broken: %d launches but %d commits + %d rollbacks",
				launches, commits, rollbacks)
		}
		return buf.Bytes()
	}
	// SpecEvents alone implies EngineEvents, so the two runs also differ in
	// how they asked.
	a, b := specRun(Options{EngineEvents: true, SpecEvents: true}), specRun(Options{SpecEvents: true})
	if !bytes.Equal(a, b) {
		t.Fatalf("spec-event trace not reproducible (%d vs %d bytes); first diff at byte %d",
			len(a), len(b), firstDiff(a, b))
	}
}

func TestPDESTraceCrossBackend(t *testing.T) {
	cfg := pdes.Config{
		LPs: 64, EventsPerLP: 8, TargetEvents: 4000, Seed: 42,
		UseTram: true, LBPeriodWindows: 4, // exercises TRAM buffer/flush events
	}
	assertTraceCrossBackend(t, "pdes",
		func() machine.Config { return machine.Testbed(16) },
		func(rt *charm.Runtime) {
			rt.SetBalancer(lb.Greedy{})
			if _, err := pdes.Run(rt, cfg); err != nil {
				t.Fatal(err)
			}
		})
}
