// Package metrics implements the runtime's named-metric registry: counters,
// gauges, wall-clock timers, and bounded log-scale histograms that
// subsystems (the charm RTS, TRAM, the checkpoint layer, load balancing,
// the engines, the telemetry layer, and applications) register into and
// that exporters — the projections tracer, the text summary, the CCS
// "trace" handler, the telemetry HTTP server — read uniformly. It replaces
// ad-hoc growth of charm.RuntimeStats with a flat, sorted, name-addressed
// table.
//
// The package is deliberately dependency-free so every layer of the system
// (including internal/parsim, which internal/charm imports) can use it
// without cycles.
//
// Concurrency discipline: every metric type is individually atomic, and the
// registry's get-or-create maps are lock-protected, so metrics may be
// mutated from any goroutine — the telemetry layer updates timers from
// engine probes while an HTTP server reads published snapshots. Metrics
// that feed *simulation-visible* output (figure tables, digests) must still
// be mutated only from driver or commit context, like all global simulation
// state; the atomics buy race-freedom, not ordering. GaugeFuncs typically
// read non-atomic runtime state, so Snapshot and Export — which evaluate
// them — must be called from driver, commit, or post-run context only.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64 metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Timer accumulates wall-clock durations in nanoseconds: count, total, and
// max. Callers read the clock themselves (the telemetry layer owns every
// wall-clock read in the tree) and feed the measured interval in.
type Timer struct {
	count atomic.Uint64
	sumNs atomic.Int64
	maxNs atomic.Int64
}

// ObserveNs records one interval of ns nanoseconds.
func (t *Timer) ObserveNs(ns int64) {
	t.count.Add(1)
	t.sumNs.Add(ns)
	for {
		m := t.maxNs.Load()
		if ns <= m || t.maxNs.CompareAndSwap(m, ns) {
			return
		}
	}
}

// Count returns the number of recorded intervals.
func (t *Timer) Count() uint64 { return t.count.Load() }

// SumNs returns the total recorded nanoseconds.
func (t *Timer) SumNs() int64 { return t.sumNs.Load() }

// MaxNs returns the largest recorded interval.
func (t *Timer) MaxNs() int64 { return t.maxNs.Load() }

// histBuckets bounds a Histogram: bucket i counts observations v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). 65 buckets cover the full
// uint64 range, so the memory cost is fixed regardless of value spread.
const histBuckets = 65

// Histogram is a bounded log2-scale histogram of uint64 observations
// (typically nanoseconds or bytes). The zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Sample is one (name, value) pair of a registry snapshot.
type Sample struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Kind classifies an exported metric.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindTimer     Kind = "timer"
	KindHistogram Kind = "histogram"
)

// Bucket is one cumulative histogram bucket: Count observations were <= Le.
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Metric is one exported metric with its full typed shape, the unit the
// Prometheus and JSON exporters work from. Scalar kinds carry Value;
// timers carry Count/Sum/Max (nanoseconds); histograms carry Count/Sum and
// cumulative Buckets.
type Metric struct {
	Name    string   `json:"name"`
	Kind    Kind     `json:"kind"`
	Value   float64  `json:"value,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Max     float64  `json:"max,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Registry is a flat name → metric table. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() float64{},
	}
}

// Counter returns the named counter, creating it on first use. The
// get-or-create contract lets call sites increment without a registration
// step: reg.Counter("ckpt.captures").Inc(). Hot paths should hold the
// returned pointer rather than re-resolving the name per event.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok = r.timers[name]; !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// GaugeFunc registers a derived gauge computed at snapshot time; the last
// registration under a name wins. Subsystems use it to expose existing
// stat structs without mirroring writes.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.counters) + len(r.gauges) + len(r.timers) + len(r.hists) + len(r.funcs)
}

// Export evaluates every metric into its typed form, sorted by name, so
// exports are deterministic regardless of registration order. Like
// Snapshot it evaluates GaugeFuncs, so call it from driver, commit, or
// post-run context.
func (r *Registry) Export() []Metric {
	r.mu.RLock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.timers)+len(r.hists)+len(r.funcs))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, fn := range r.funcs {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: fn()})
	}
	for name, t := range r.timers {
		out = append(out, Metric{Name: name, Kind: KindTimer,
			Count: t.Count(), Sum: float64(t.SumNs()), Max: float64(t.MaxNs())})
	}
	for name, h := range r.hists {
		out = append(out, Metric{Name: name, Kind: KindHistogram,
			Count: h.Count(), Sum: float64(h.Sum()), Buckets: h.cumulative()})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// cumulative renders the histogram's non-empty prefix as cumulative
// (le, count) buckets, Prometheus-style.
func (h *Histogram) cumulative() []Bucket {
	top := 0
	for i := histBuckets - 1; i >= 0; i-- {
		if h.buckets[i].Load() > 0 {
			top = i
			break
		}
	}
	var cum uint64
	out := make([]Bucket, 0, top+1)
	for i := 0; i <= top; i++ {
		cum += h.buckets[i].Load()
		// Bucket i holds values with bit length i: v <= 2^i - 1.
		le := math.MaxFloat64
		if i < 63 {
			le = float64(uint64(1)<<uint(i)) - 1
		}
		out = append(out, Bucket{Le: le, Count: cum})
	}
	return out
}

// Flatten turns an export into flat samples in the export's order: a timer
// becomes .count/.sum_ns/.max_ns and a histogram .count/.sum, so scalar
// consumers (the text summary, figure tables, /events deltas) need no
// bucket awareness.
func Flatten(ms []Metric) []Sample {
	out := make([]Sample, 0, len(ms)+8)
	for _, m := range ms {
		switch m.Kind {
		case KindTimer:
			out = append(out,
				Sample{Name: m.Name + ".count", Value: float64(m.Count)},
				Sample{Name: m.Name + ".sum_ns", Value: m.Sum},
				Sample{Name: m.Name + ".max_ns", Value: m.Max})
		case KindHistogram:
			out = append(out,
				Sample{Name: m.Name + ".count", Value: float64(m.Count)},
				Sample{Name: m.Name + ".sum", Value: m.Sum})
		default:
			out = append(out, Sample{Name: m.Name, Value: m.Value})
		}
	}
	return out
}

// Snapshot evaluates every metric and returns its flat samples sorted by
// name.
func (r *Registry) Snapshot() []Sample {
	out := Flatten(r.Export())
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText renders the snapshot as a two-column table.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%-40s %g\n", s.Name, s.Value); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (metric names sanitized to the Prometheus charset, timers as
// count/sum/max with sums converted to seconds, histograms with cumulative
// le-labeled buckets).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WritePrometheus(w, r.Export())
}

// WriteJSON renders the registry's typed export as a JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	return WriteJSON(w, r.Export())
}

// promName maps a registry name to the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders an exported metric set (as produced by
// Registry.Export, already sorted) in the Prometheus text format.
func WritePrometheus(w io.Writer, ms []Metric) error {
	for _, m := range ms {
		name := promName(m.Name)
		var err error
		switch m.Kind {
		case KindCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %g\n", name, name, m.Value)
		case KindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, m.Value)
		case KindTimer:
			// Summary-shaped: count, sum in seconds, plus max as a gauge.
			_, err = fmt.Fprintf(w, "# TYPE %s_seconds summary\n%s_seconds_count %d\n%s_seconds_sum %g\n# TYPE %s_seconds_max gauge\n%s_seconds_max %g\n",
				name, name, m.Count, name, m.Sum/1e9, name, name, m.Max/1e9)
		case KindHistogram:
			if _, err = fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			for _, b := range m.Buckets {
				le := "+Inf"
				if b.Le != math.MaxFloat64 {
					le = fmt.Sprintf("%g", b.Le)
				}
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, b.Count); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
				name, m.Count, name, m.Sum, name, m.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders an exported metric set as an indented JSON array.
func WriteJSON(w io.Writer, ms []Metric) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ms)
}
