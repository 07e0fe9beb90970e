package pdes

import (
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

func newRT(pes int) *charm.Runtime {
	return charm.New(machine.New(machine.Stampede(pes)))
}

// TestNewRejectsBadSizes: a negative population or target is an error, not
// a run that commits nothing (zero still means the default).
func TestNewRejectsBadSizes(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{LPs: 8, EventsPerLP: -1},
		{LPs: 8, TargetEvents: -5},
	} {
		if _, err := New(newRT(2), cfg); err == nil {
			t.Errorf("New(%+v) accepted it", cfg)
		}
	}
}

func TestPholdRuns(t *testing.T) {
	rt := newRT(16)
	res, err := Run(rt, Config{LPs: 64, EventsPerLP: 8, TargetEvents: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 2000 {
		t.Fatalf("committed %d", res.Committed)
	}
	if res.Windows == 0 || res.EventRate <= 0 {
		t.Fatalf("windows=%d rate=%v", res.Windows, res.EventRate)
	}
	if res.MaxVT <= 0 {
		t.Fatal("virtual time never advanced")
	}
}

func TestNoCausalityViolationEver(t *testing.T) {
	// The Run itself fails loudly on any in-window event arrival; run a
	// long, dense configuration to stress the conservative protocol.
	rt := newRT(16)
	if _, err := Run(rt, Config{LPs: 128, EventsPerLP: 16, TargetEvents: 10000,
		Lookahead: 0.5, MeanDelay: 1.5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestTramExactlyMatchesDirectCommitCount(t *testing.T) {
	run := func(useTram bool) (int, float64) {
		rt := newRT(16)
		res, err := Run(rt, Config{LPs: 64, EventsPerLP: 8, TargetEvents: 3000,
			UseTram: useTram, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Committed, res.MaxVT
	}
	cDirect, _ := run(false)
	cTram, _ := run(true)
	// Commit counts can differ slightly (the stop check runs per
	// window), but both must exceed the target and be close.
	if cTram < 3000 || cDirect < 3000 {
		t.Fatalf("targets missed: direct %d tram %d", cDirect, cTram)
	}
}

func TestOverdecompositionIncreasesEventRate(t *testing.T) {
	// Fig 15a: more LPs per PE (fixed initial events per LP) raises the
	// event rate, because idle LPs cost nothing and busy PEs always have
	// work.
	rate := func(lpsPerPE int) float64 {
		rt := newRT(16)
		res, err := Run(rt, Config{LPs: 16 * lpsPerPE, EventsPerLP: 8,
			TargetEvents: 16 * lpsPerPE * 8 * 2, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res.EventRate
	}
	r16 := rate(16)
	r64 := rate(64)
	if r64 <= r16 {
		t.Fatalf("over-decomposition did not raise event rate: %v vs %v", r16, r64)
	}
}

func TestTramCrossover(t *testing.T) {
	// Fig 15b: TRAM loses at low event volume (aggregation latency) and
	// wins at high volume (per-message overhead amortized).
	// Multi-node machine: aggregation only pays off when messages cross
	// the network (Stampede nodes hold 16 PEs).
	rate := func(eventsPerLP int, useTram bool) float64 {
		rt := newRT(64)
		res, err := Run(rt, Config{LPs: 64 * 32, EventsPerLP: eventsPerLP,
			TargetEvents: 64 * 32 * eventsPerLP * 2, UseTram: useTram, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.EventRate
	}
	loTram, loDirect := rate(1, true), rate(1, false)
	hiTram, hiDirect := rate(24, true), rate(24, false)
	if loTram >= loDirect {
		t.Fatalf("low volume: TRAM %.0f should lose to direct %.0f", loTram, loDirect)
	}
	if hiTram <= hiDirect {
		t.Fatalf("high volume: TRAM %.0f should beat direct %.0f", hiTram, hiDirect)
	}
}

func TestEventPopulationConserved(t *testing.T) {
	// PHOLD keeps a fixed event population: every executed event spawns
	// exactly one successor. Check queue totals after a run.
	rt := newRT(8)
	app, err := New(rt, Config{LPs: 32, EventsPerLP: 8, TargetEvents: 1000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, idx := range app.lps.Keys() {
		total += len(app.lps.Get(idx).(*lp).Q)
	}
	if total != 32*8 {
		t.Fatalf("event population drifted: %d, want %d", total, 32*8)
	}
}

func TestDeterministic(t *testing.T) {
	run := func(useTram bool) (float64, int) {
		rt := newRT(8)
		res, err := Run(rt, Config{LPs: 32, EventsPerLP: 8, TargetEvents: 1500,
			UseTram: useTram, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Elapsed), res.Committed
	}
	for _, ut := range []bool{false, true} {
		e1, c1 := run(ut)
		e2, c2 := run(ut)
		if e1 != e2 || c1 != c2 {
			t.Fatalf("tram=%v nondeterministic: (%v,%d) vs (%v,%d)", ut, e1, c1, e2, c2)
		}
	}
}

func TestLPMigrationBetweenWindows(t *testing.T) {
	// LPs are migratable chares: rebalancing them between YAWNS windows
	// must preserve correctness (no causality violations, event
	// population conserved) while in-flight events are forwarded by the
	// location manager.
	rt := newRT(8)
	rt.SetBalancer(lb.Greedy{})
	app, err := New(rt, Config{LPs: 64, EventsPerLP: 8, TargetEvents: 4000,
		LBPeriodWindows: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Migrations == 0 {
		t.Fatal("no LPs migrated despite periodic LB")
	}
	if res.Committed < 4000 {
		t.Fatalf("committed %d", res.Committed)
	}
	total := 0
	for _, idx := range app.lps.Keys() {
		total += len(app.lps.Get(idx).(*lp).Q)
	}
	if total != 64*8 {
		t.Fatalf("event population drifted under migration: %d", total)
	}
}

func TestLPMigrationWithTram(t *testing.T) {
	// TRAM routes by a location snapshot; when an LP migrates, items are
	// handed back to the regular path. Verify correctness holds with
	// both enabled.
	rt := newRT(8)
	rt.SetBalancer(lb.Greedy{})
	res, err := Run(rt, Config{LPs: 64, EventsPerLP: 8, TargetEvents: 3000,
		LBPeriodWindows: 4, UseTram: true, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed < 3000 {
		t.Fatalf("committed %d", res.Committed)
	}
}
