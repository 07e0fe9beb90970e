package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a.count") != c {
		t.Fatal("Counter is not get-or-create")
	}
	r.GaugeFunc("a.gauge", func() float64 { return 2.5 })
	if snap := r.Snapshot(); len(snap) != 2 || snap[1] != (Sample{"a.gauge", 2.5}) {
		t.Fatalf("snapshot %+v, want a.count then a.gauge = 2.5", snap)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(3)
	r.GaugeFunc("m.mid", func() float64 { return 7 })
	r.GaugeFunc("a.first", func() float64 { return 1 })
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d samples, want 3", len(snap))
	}
	names := []string{snap[0].Name, snap[1].Name, snap[2].Name}
	if names[0] != "a.first" || names[1] != "m.mid" || names[2] != "z.last" {
		t.Fatalf("snapshot not sorted: %v", names)
	}
	if snap[0].Value != 1 || snap[1].Value != 7 || snap[2].Value != 3 {
		t.Fatalf("snapshot values wrong: %+v", snap)
	}
}

// TestSnapshotIsFlattenedExport holds one metric of each kind and pins the
// names, values and order Snapshot's readers (bench/trace.go,
// cmd/projections, WriteText) look up, and that Flatten keeps the export's
// order with each metric's samples adjacent.
func TestSnapshotIsFlattenedExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.GaugeFunc("g", func() float64 { return 2.5 })
	r.GaugeFunc("f", func() float64 { return 9 })
	r.Timer("t").ObserveNs(100)
	r.Timer("t").ObserveNs(300)
	r.Histogram("h").Observe(5)
	r.Histogram("h").Observe(7)

	equal := func(got, want []Sample) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	sorted := []Sample{
		{"c", 3}, {"f", 9}, {"g", 2.5},
		{"h.count", 2}, {"h.sum", 12},
		{"t.count", 2}, {"t.max_ns", 300}, {"t.sum_ns", 400},
	}
	if got := r.Snapshot(); !equal(got, sorted) {
		t.Errorf("Snapshot = %+v\nwant %+v", got, sorted)
	}
	exportOrder := []Sample{
		{"c", 3}, {"f", 9}, {"g", 2.5},
		{"h.count", 2}, {"h.sum", 12},
		{"t.count", 2}, {"t.sum_ns", 400}, {"t.max_ns", 300},
	}
	if got := Flatten(r.Export()); !equal(got, exportOrder) {
		t.Errorf("Flatten(Export) = %+v\nwant %+v", got, exportOrder)
	}
}

func TestGaugeFuncLastWins(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("x", func() float64 { return 1 })
	r.GaugeFunc("x", func() float64 { return 2 })
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 2 {
		t.Fatalf("last registration should win: %+v", snap)
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("wall.phase")
	tm.ObserveNs(100)
	tm.ObserveNs(300)
	tm.ObserveNs(200)
	if tm.Count() != 3 || tm.SumNs() != 600 || tm.MaxNs() != 300 {
		t.Fatalf("timer = count %d sum %d max %d, want 3/600/300", tm.Count(), tm.SumNs(), tm.MaxNs())
	}
	if r.Timer("wall.phase") != tm {
		t.Fatal("Timer is not get-or-create")
	}
	snap := r.Snapshot()
	want := map[string]float64{"wall.phase.count": 3, "wall.phase.sum_ns": 600, "wall.phase.max_ns": 300}
	for _, s := range snap {
		if v, ok := want[s.Name]; !ok || v != s.Value {
			t.Fatalf("unexpected sample %+v", s)
		}
		delete(want, s.Name)
	}
	if len(want) != 0 {
		t.Fatalf("missing samples: %v", want)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 1, 5, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1007 {
		t.Fatalf("hist = count %d sum %d, want 5/1007", h.Count(), h.Sum())
	}
	var m Metric
	for _, em := range r.Export() {
		if em.Name == "lat" {
			m = em
		}
	}
	if m.Kind != KindHistogram || len(m.Buckets) == 0 {
		t.Fatalf("histogram export missing buckets: %+v", m)
	}
	last := m.Buckets[len(m.Buckets)-1]
	if last.Count != 5 {
		t.Fatalf("final cumulative bucket = %d, want 5", last.Count)
	}
	for i := 1; i < len(m.Buckets); i++ {
		if m.Buckets[i].Count < m.Buckets[i-1].Count || m.Buckets[i].Le <= m.Buckets[i-1].Le {
			t.Fatalf("buckets not cumulative/increasing: %+v", m.Buckets)
		}
	}
}

func TestExportDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.z").Inc()
	r.GaugeFunc("b.g", func() float64 { return 1 })
	r.Timer("a.t").ObserveNs(1)
	r.Histogram("d.h").Observe(1)
	r.GaugeFunc("e.f", func() float64 { return 9 })
	first := r.Export()
	for i := 0; i < 10; i++ {
		again := r.Export()
		if len(again) != len(first) {
			t.Fatalf("export length changed: %d vs %d", len(again), len(first))
		}
		for j := range again {
			if again[j].Name != first[j].Name {
				t.Fatalf("export order changed at %d: %q vs %q", j, again[j].Name, first[j].Name)
			}
		}
	}
	for i := 1; i < len(first); i++ {
		if first[i].Name <= first[i-1].Name {
			t.Fatalf("export not sorted: %q before %q", first[i-1].Name, first[i].Name)
		}
	}
}

// TestConcurrentHammer drives every metric type, including get-or-create
// map resolution, from parallel workers; run under -race it proves the
// registry is safe for side-band (telemetry) mutation.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("hammer.count").Inc()
				r.Timer("hammer.timer").ObserveNs(int64(i))
				r.Histogram("hammer.hist").Observe(uint64(i))
				if i%100 == 0 {
					r.Snapshot()
					r.Export()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hammer.count").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Timer("hammer.timer").Count(); got != workers*perWorker {
		t.Fatalf("timer count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Timer("hammer.timer").MaxNs(); got != perWorker-1 {
		t.Fatalf("timer max = %d, want %d", got, perWorker-1)
	}
	if got := r.Histogram("hammer.hist").Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("rts.msgs_sent").Add(7)
	r.GaugeFunc("optsim.gvt", func() float64 { return 1.5 })
	r.Timer("wall.phase").ObserveNs(2e9)
	r.Histogram("wall.lat").Observe(3)
	var b strings.Builder
	if err := WritePrometheus(&b, r.Export()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rts_msgs_sent counter", "rts_msgs_sent 7",
		"# TYPE optsim_gvt gauge", "optsim_gvt 1.5",
		"wall_phase_seconds_count 1", "wall_phase_seconds_sum 2",
		"# TYPE wall_lat histogram", `wall_lat_bucket{le="+Inf"} 1`, "wall_lat_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs").Add(10)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "msgs") || !strings.Contains(b.String(), "10") {
		t.Fatalf("text render missing data:\n%s", b.String())
	}
}
