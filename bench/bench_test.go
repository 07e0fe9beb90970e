package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the driver's
// tables: the same workloads, metrics, units and bounds, every name
// well-formed and used once.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the driver %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the driver %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		name(m.Name)
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Bound != m.Bound || got.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the driver %s %s %g", i, got, m.Name, m.Unit, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the driver %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		name(m.Name)
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the driver %+v", i, got, m)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestSmokeSuite runs every workload at smoke size through both passes and
// checks what the driver will: all declared metrics present, finite, and,
// end to end, nonzero; no failed repetition, which also means the
// cross-backend and traced/untraced digests agreed; and a report compared
// with itself is all ok.
func TestSmokeSuite(t *testing.T) {
	b := readBenchmarkJSON(t)
	stderr = &bytes.Buffer{}
	defer func() { stderr = os.Stderr }()
	workers := workerCount()
	rep := newReport(1, 1, true, workers)
	digests := map[string]string{}
	for _, wl := range workloads {
		res, err := measure(wl, 1, true, workers, time.Second, 1)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if res.Runs != 1 || res.FailedRuns != 0 {
			t.Errorf("%s: runs=%d failed_runs=%d\n%s", wl.Name, res.Runs, res.FailedRuns, stderr)
		}
		digests[wl.Name] = res.Digest
		out := contractResult(res, false)
		if !out.Correct || len(out.Metrics) != len(b.EndToEnd) {
			t.Errorf("%s: correct=%v with %d end-to-end metrics, want %d", wl.Name, out.Correct, len(out.Metrics), len(b.EndToEnd))
		}
		for _, m := range b.EndToEnd {
			v, ok := out.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || !(v.Value > 0) || !finite(v.Value) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", wl.Name, m.Name, v, ok)
			}
		}
		rep.Workloads = append(rep.Workloads, res)

		traced, err := tracedPass(wl, 1, true, workers, time.Second, 1)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.Name, err)
		}
		if traced.FailedRuns != 0 || traced.Digest != res.Digest {
			t.Errorf("%s traced: failed_runs=%d digest %.12s, untraced %.12s\n%s",
				wl.Name, traced.FailedRuns, traced.Digest, res.Digest, stderr)
		}
		out = contractResult(traced, true)
		if len(out.Metrics) != len(b.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", wl.Name, len(out.Metrics), len(b.PerLayer))
		}
		var shares float64
		for _, m := range b.PerLayer {
			v, ok := out.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || !finite(v.Value) || v.Value < 0 {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", wl.Name, m.Name, v, ok)
			}
			if strings.HasSuffix(m.Name, ".cpu_share") {
				shares += v.Value
			}
		}
		// A smoke repetition may be too short for a single profile sample.
		if shares != 0 && math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %g", wl.Name, shares)
		}
		checkLayerUse(t, wl.Name, traced.PerLayer)
	}
	for _, wl := range workloads {
		if wl.Ref != "" && digests[wl.Name] != digests[wl.Ref] {
			t.Errorf("%s digest %.12s differs from %s digest %.12s", wl.Name, digests[wl.Name], wl.Ref, digests[wl.Ref])
		}
	}
	var table bytes.Buffer
	if code := compareReports(&table, rep, rep); code != 0 || strings.Contains(table.String(), "regressed") ||
		strings.Contains(table.String(), "unresolved") {
		t.Errorf("a report compared with itself: exit %d\n%s", code, &table)
	}
	if rows := strings.Count(table.String(), " ok\n"); rows != len(workloads)*len(endToEnd) {
		t.Errorf("self-compare printed %d ok rows, want %d\n%s", rows, len(workloads)*len(endToEnd), &table)
	}
}

// checkLayerUse asserts that a layer's counters move on the workload that
// exercises it and read zero on those that bypass it. The engines'
// counters come out of the metrics registry by name, so a renamed gauge
// would otherwise read as a silent zero.
func checkLayerUse(t *testing.T, name string, pl map[string]float64) {
	t.Helper()
	for metric, user := range map[string]string{
		"parsim.launched":      "phold_par",
		"optsim.launched":      "phold_opt",
		"charm.spec_snapshots": "phold_opt",
		"projections.recorded": "leanmd_traced",
	} {
		if used := pl[metric] > 0; used != (name == user) {
			t.Errorf("%s: %s = %g", name, metric, pl[metric])
		}
	}
	if strings.HasPrefix(name, "leanmd") && (pl["charm.migrations"] == 0 || pl["charm.lb_rounds"] == 0) {
		t.Errorf("%s: migrations %g, lb rounds %g", name, pl["charm.migrations"], pl["charm.lb_rounds"])
	}
}

// TestProfileAttribution decodes a real CPU profile of a known mix: the
// driver's own spin kernel and a charm ring. Shares must sum to one, and
// both bench and charm must have been charged.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		spinSink += spin(spinSink|1, 1<<20)
		newRing("sequential", 1, ringPEs, ringElems).circulate(64)
	}
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) < 10 {
		t.Fatalf("only %d samples in a 400 ms profile", len(p.stacks))
	}
	cpu := map[string]float64{}
	p.charge(cpu)
	var total float64
	for layer, ns := range cpu {
		known := false
		for _, l := range cpuLayers {
			known = known || l == layer
		}
		if !known {
			t.Errorf("sample charged to unknown layer %q", layer)
		}
		total += ns
	}
	if cpu["bench"] == 0 || cpu["charm"] == 0 {
		t.Errorf("bench %g ns, charm %g ns of %g: both ran", cpu["bench"], cpu["charm"], total)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"charmgo/internal/des.(*Sequential).Step":               "des",
		"charmgo/internal/apps/stencil.(*App).maybeCompute":     "apps",
		"charmgo/internal/projections/metrics.(*Counter).Inc":   "other",
		"charmgo/internal/projections.(*Tracer).record":         "projections",
		"charmgo/internal/pup.Slice[go.shape.float64]":          "pup",
		"charmgo/internal/charm.(*Runtime).send.func1":          "charm",
		"charmgo/internal/malleable.DefaultCostModel":           "other",
		"charmgo/bench.spin":                                    "bench",
		"main.spin":                                             "bench",
		"runtime.mallocgc":                                      "",
		"crypto/sha256.block":                                   "",
		"charmgo/internal/chaos.(*detector).tick":               "chaos",
		"charmgo/internal/optsim.(*Engine).launchEvent":         "optsim",
		"charmgo/internal/parsim.runPhase":                      "parsim",
		"charmgo/internal/machine.(*Machine).Transmit":          "machine",
		"charmgo/internal/tram.(*Client).route":                 "tram",
		"charmgo/internal/telemetry.(*Telemetry).EventExecuted": "telemetry",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
	if s := summarize([]float64{3, 1, 2}); s.Median != 2 || s.Min != 1 || s.Max != 3 || s.N != 3 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(wall, iqr float64, failed int) *report {
		m := map[string]stat{}
		for _, e := range endToEnd {
			m[e.Name] = stat{Median: 1, N: 5}
		}
		m["wall_s"] = stat{Median: wall, IQR: iqr, N: 5}
		return &report{Workloads: []*workloadResult{{Workload: "w", Runs: 5, FailedRuns: failed, Metrics: m}}}
	}
	for _, c := range []struct {
		name    string
		a, b    *report
		code    int
		verdict string
	}{
		{"same", mk(1, 0.01, 0), mk(1.05, 0.01, 0), 0, " ok\n"},
		{"slower", mk(1, 0.01, 0), mk(1.4, 0.01, 0), 1, "regressed"},
		{"noisy", mk(1, 0.3, 0), mk(1.4, 0.01, 0), 0, "unresolved"},
		{"failing", mk(1, 0.01, 0), mk(1, 0.01, 1), 1, "failed runs rose"},
	} {
		var out bytes.Buffer
		if code := compareReports(&out, c.a, c.b); code != c.code || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d and %q in\n%s", c.name, code, c.code, c.verdict, &out)
		}
	}
}
