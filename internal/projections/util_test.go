package projections

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/machine"
	"charmgo/internal/malleable"
	"charmgo/internal/pup"
)

type worker struct{ Steps int }

func (w *worker) Pup(p *pup.Pup) { p.Int(&w.Steps) }

// imbalancedRun keeps PE 0 busy (twenty 50 ms entries back to back) and the
// rest idle for ~1s of virtual time, traced. setup, when non-nil, runs
// before the first send.
func imbalancedRun(t *testing.T, pes int, backend string, setup func(rt *charm.Runtime)) (*charm.Runtime, *Tracer) {
	t.Helper()
	cfg := machine.Testbed(pes)
	cfg.Backend = backend
	rt := charm.New(machine.New(cfg))
	var arr *charm.Array
	handlers := []charm.Handler{
		func(obj charm.Chare, ctx *charm.Ctx, msg any) {
			w := obj.(*worker)
			ctx.Charge(0.05)
			w.Steps--
			if w.Steps > 0 {
				ctx.Send(arr, ctx.Index(), 0, nil)
			} else {
				ctx.Exit()
			}
		},
	}
	arr = rt.DeclareArray("w", func() charm.Chare { return &worker{} }, handlers,
		charm.ArrayOpts{Migratable: true})
	arr.InsertOn(charm.Idx1(0), &worker{Steps: 20}, 0)
	tr := Attach(rt, Options{})
	if setup != nil {
		setup(rt)
	}
	arr.Send(charm.Idx1(0), 0, nil)
	rt.Run()
	return rt, tr
}

func TestUtilizationSamples(t *testing.T) {
	_, tr := imbalancedRun(t, 4, "", nil)
	u := tr.Utilization(0.1)
	if len(u.Samples) < 8 {
		t.Fatalf("only %d windows over ~1s at 0.1s", len(u.Samples))
	}
	for _, s := range u.Samples {
		if len(s.Util) != 4 {
			t.Fatalf("sample has %d PEs", len(s.Util))
		}
		for _, v := range s.Util {
			if v < 0 || v > 1+1e-9 {
				t.Fatalf("utilization %v out of range", v)
			}
		}
	}
	pe, util := u.HottestPE()
	if pe != 0 {
		t.Fatalf("hottest PE %d, want 0", pe)
	}
	if util < 0.8 {
		t.Fatalf("PE 0 utilization %v, expected near 1", util)
	}
	for p := 1; p < 4; p++ {
		for _, s := range u.Samples {
			if s.Util[p] != 0 {
				t.Fatalf("idle PE %d shows utilization %v", p, s.Util[p])
			}
		}
	}
}

// The analysis agrees with the machine's own meter: on a migration-free run
// (a migration charges PUP time to BusyTime outside any entry) every PE's
// Σ util×window is its BusyTime, and the table is the same on every backend.
func TestUtilizationMatchesBusyTime(t *testing.T) {
	const window = 0.02
	var seq Utilization
	for _, backend := range []string{"sequential", "parallel", "optimistic"} {
		rt, tr := imbalancedRun(t, 4, backend, nil)
		u := tr.Utilization(window)
		for p := 0; p < rt.MaxPEs(); p++ {
			sum := 0.0
			for _, s := range u.Samples {
				sum += s.Util[p] * window
			}
			busy := float64(rt.Machine().PE(p).BusyTime)
			if math.Abs(sum-busy) > 1e-9*busy {
				t.Errorf("%s: PE %d: Σ util×window = %v, BusyTime = %v", backend, p, sum, busy)
			}
		}
		if backend == "sequential" {
			seq = u
		} else if !reflect.DeepEqual(seq, u) {
			t.Errorf("%s: utilization table differs from the sequential backend's", backend)
		}
	}
}

func TestSummaryAndTimelineRender(t *testing.T) {
	_, tr := imbalancedRun(t, 4, "", nil)
	u := tr.Utilization(0.1)
	sum := u.Summary()
	if !strings.Contains(sum, "mean") || len(strings.Split(sum, "\n")) < 5 {
		t.Fatalf("summary too small:\n%s", sum)
	}
	tl := u.Timeline(0)
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 4 {
		t.Fatalf("timeline rows %d, want 4:\n%s", len(lines), tl)
	}
	// PE 0's row should be dense, PE 3's near-empty.
	if !strings.ContainsAny(lines[0], "#%@") {
		t.Fatalf("busy PE row has no dense glyphs: %q", lines[0])
	}
	if strings.ContainsAny(lines[3], "#%@") {
		t.Fatalf("idle PE row is dense: %q", lines[3])
	}
}

func TestTimelineAggregatesRows(t *testing.T) {
	_, tr := imbalancedRun(t, 16, "", nil)
	tl := tr.Utilization(0.1).Timeline(4)
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 4 {
		t.Fatalf("aggregated timeline rows %d, want 4:\n%s", len(lines), tl)
	}
}

func TestEmptyUtilization(t *testing.T) {
	u := Attach(testRuntime(t, 2), Options{}).Utilization(0.1)
	if pe, _ := u.HottestPE(); pe != -1 {
		t.Fatal("empty table should report no hottest PE")
	}
	if u.Timeline(0) == "" || len(u.Samples) != 0 {
		t.Fatal("empty table rendering broken")
	}
}

// Attaching a recorder schedules nothing on the engine, so a traced program
// that ends by draining (no Exit) terminates when the untraced one does.
func TestAttachSchedulesNothing(t *testing.T) {
	for _, backend := range []string{"sequential", "parallel", "optimistic"} {
		cfg := machine.Testbed(4)
		cfg.Backend = backend
		rt := charm.New(machine.New(cfg))
		arr := rt.DeclareArray("w", func() charm.Chare { return &worker{} },
			[]charm.Handler{func(obj charm.Chare, ctx *charm.Ctx, msg any) { ctx.Charge(1e-6) }},
			charm.ArrayOpts{})
		for i := 0; i < 4; i++ {
			arr.Insert(charm.Idx1(i), &worker{})
		}
		before := rt.Engine().Pending()
		tr := Attach(rt, Options{EngineEvents: true})
		if after := rt.Engine().Pending(); after != before {
			t.Fatalf("%s: Attach changed Pending from %d to %d", backend, before, after)
		}
		arr.Broadcast(0, nil)
		rt.Run() // returns only if the calendar drains
		if rt.Engine().Pending() != 0 || tr.Recorded() == 0 {
			t.Fatalf("%s: drained run left %d events pending, %d recorded", backend, rt.Engine().Pending(), tr.Recorded())
		}
	}
}

// A shrink mid-trace must not change the shape of the table: every window
// is MaxPEs wide before and after the reconfiguration, and the evacuated
// PEs read as idle.
func TestShrinkMidTrace(t *testing.T) {
	rt, tr := imbalancedRun(t, 8, "", func(rt *charm.Runtime) {
		malleable.NewManager(rt).RequestAt(0.42, 4)
	})
	if rt.NumPEs() != 4 {
		t.Fatalf("shrink did not take: %d active PEs", rt.NumPEs())
	}
	samples := tr.Utilization(0.1).Samples
	if len(samples) < 8 {
		t.Fatalf("only %d windows across the shrink", len(samples))
	}
	for i, s := range samples {
		if len(s.Util) != rt.MaxPEs() {
			t.Fatalf("window %d has %d PEs, want MaxPEs=%d (shape changed mid-trace)",
				i, len(s.Util), rt.MaxPEs())
		}
	}
	last := samples[len(samples)-1]
	for p := 4; p < 8; p++ {
		if last.Util[p] != 0 {
			t.Errorf("evacuated PE %d shows %v utilization after shrink", p, last.Util[p])
		}
	}
}

// Golden renders: Summary and Timeline are consumed by scripts and eyes
// alike, so their exact shape is locked here against a hand-built table.
func goldenUtilization() Utilization {
	return Utilization{
		Interval: 0.1, NumPEs: 2,
		Samples: []UtilSample{
			{At: 0.1, Util: []float64{1.0, 0.0}, Msgs: 7},
			{At: 0.2, Util: []float64{0.5, 0.25}, Msgs: 3},
			{At: 0.3, Util: []float64{0.0, 1.0}, Msgs: 0},
		},
	}
}

func TestSummaryGolden(t *testing.T) {
	got := goldenUtilization().Summary()
	want := "t(s)       mean     min      max      msgs\n" +
		"0.1000     0.50     0.00     1.00     7\n" +
		"0.2000     0.38     0.25     0.50     3\n" +
		"0.3000     0.50     0.00     1.00     0\n"
	if got != want {
		t.Fatalf("summary drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestTimelineGolden(t *testing.T) {
	got := goldenUtilization().Timeline(0)
	want := "PE   0      |@= |\n" +
		"PE   1      | :@|\n"
	if got != want {
		t.Fatalf("timeline drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// The `cmd/leanmd -trace` export keeps its shape.
func TestUtilizationJSON(t *testing.T) {
	_, tr := imbalancedRun(t, 4, "", nil)
	var buf strings.Builder
	if err := tr.Utilization(0.1).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		IntervalSeconds float64 `json:"interval_seconds"`
		NumPEs          int     `json:"num_pes"`
		Samples         []struct {
			At   float64   `json:"t"`
			Util []float64 `json:"util"`
			Msgs uint64    `json:"msgs"`
		} `json:"samples"`
	}
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.NumPEs != 4 || doc.IntervalSeconds != 0.1 {
		t.Fatalf("header: %+v", doc)
	}
	if len(doc.Samples) == 0 || len(doc.Samples[0].Util) != 4 || doc.Samples[0].Msgs == 0 {
		t.Fatalf("samples malformed: %+v", doc.Samples)
	}
}

// An entry is split across the windows it spans, not booked to the one it
// ends in; a log whose begin is older than it, or that stops
// mid-entry, books nothing for the unmatched half.
func TestUtilizationApportions(t *testing.T) {
	u := ComputeUtilization([]Event{
		{ID: 1, Kind: charm.KEntryEnd, At: 0.005, PE: 1},
		{ID: 2, Kind: charm.KEntryBegin, At: 0.01, PE: 0, Arr: "a"},
		{ID: 3, Kind: charm.KEntryEnd, At: 0.06, PE: 0, Arr: "a"},
		{ID: 4, Kind: charm.KEntryBegin, At: 0.07, PE: 1, Arr: "a"},
	}, 2, des.Time(0.02))
	if len(u.Samples) != 4 {
		t.Fatalf("%d windows, want 4: %+v", len(u.Samples), u)
	}
	for w, want := range []float64{0.5, 1, 1, 0} {
		if got := u.Samples[w].Util[0]; math.Abs(got-want) > 1e-12 {
			t.Errorf("window %d of PE 0 = %v, want %v", w, got, want)
		}
		if got := u.Samples[w].Util[1]; got != 0 {
			t.Errorf("window %d of PE 1 = %v from unmatched events", w, got)
		}
	}
	if u.Samples[0].Msgs != 1 || u.Samples[3].Msgs != 1 {
		t.Errorf("entries begun per window: %+v", u.Samples)
	}
}
