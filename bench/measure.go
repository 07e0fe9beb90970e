package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// sample is one repetition's raw end-to-end values. Raw values are kept in
// every report so medians can be recomputed. SetupS and WallS are raw host
// seconds; CalS is the calibration kernel's time just before (calib.go).
type sample struct {
	CalS       float64 `json:"cal_s"`
	SetupS     float64 `json:"setup_s"`
	WallS      float64 `json:"wall_s"`
	LiveHeapMB float64 `json:"live_heap_mb"`
	AllocMB    float64 `json:"alloc_mb"`
	MallocsM   float64 `json:"mallocs_m"`
	Err        string  `json:"error,omitempty"`
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order, with the
// accessor into a sample.
var endToEnd = []struct {
	Name, Unit string
	Bound      float64 // share of the parent's median the metric may worsen by
	get        func(sample) float64
}{
	{"wall_s", "s", 0.25, func(s sample) float64 { return s.WallS * calNominalS / s.CalS }},
	{"setup_s", "s", 0.25, func(s sample) float64 { return s.SetupS * calNominalS / s.CalS }},
	{"live_heap_mb", "MB", 0.05, func(s sample) float64 { return s.LiveHeapMB }},
	{"alloc_mb", "MB", 0.05, func(s sample) float64 { return s.AllocMB }},
	{"mallocs_m", "M", 0.05, func(s sample) float64 { return s.MallocsM }},
}

// stat summarises one metric over the repetitions of a run.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	IQR    float64 `json:"iqr"`
	N      int     `json:"n"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// how the driver computes spread; fewer than two values have no spread.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	ld := len(sorted)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(vals []float64) stat {
	if len(vals) == 0 {
		return stat{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q1, q2, q3 := quartiles(s)
	return stat{Median: q2, Min: s[0], Max: s[len(s)-1], IQR: q3 - q1, N: len(s)}
}

func median(vals []float64) float64 { return summarize(vals).Median }

const mb = 1 << 20

// oneRep builds and runs sp once. It times set-up and Run separately,
// reads the allocator's counters around Run only, and measures the live
// heap after a collection while the finished world is still referenced.
// The traced pass hands in its instruments, which go on between set-up and
// Run and come off right after it; the untraced pass hands in nil. The
// world is returned so the traced pass can read its counters.
func oneRep(sp spec, workers int, in *instruments) (s sample, w *world, out outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		if err != nil {
			s.Err = err.Error()
		}
	}()
	runtime.GC()
	t0 := time.Now()
	w, err = setup(sp, workers)
	s.SetupS = time.Since(t0).Seconds()
	if err != nil {
		return s, nil, out, err
	}
	if in != nil {
		in.beforeRun(w)
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	out, err = w.run()
	s.WallS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)
	if in != nil {
		in.afterRun()
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	s.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	s.MallocsM = float64(m1.Mallocs-m0.Mallocs) / 1e6
	s.LiveHeapMB = float64(m2.HeapAlloc) / mb
	runtime.KeepAlive(w)
	return s, w, out, err
}

// workloadResult is one workload's end-to-end measurement.
type workloadResult struct {
	Workload   string          `json:"workload"`
	Config     spec            `json:"config"`
	Reference  string          `json:"reference"`
	Digest     string          `json:"digest"`
	VirtualS   float64         `json:"virtual_s"`
	Events     uint64          `json:"events"`
	Runs       int             `json:"runs"`
	FailedRuns int             `json:"failed_runs"`
	Metrics    map[string]stat `json:"metrics,omitempty"`
	Reps       []sample        `json:"reps,omitempty"`
	// SetupExtra are set-ups sampled after the repetitions, each with its
	// own calibration; setup_s summarises them together with the
	// repetitions' own. Only CalS and SetupS are set.
	SetupExtra []sample           `json:"setup_extra,omitempty"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
}

// begin opens a pass over wl: it runs the workload's reference once (the
// Ref workload's spec on the same seed, or the workload itself), which
// fixes the digest and simulated time every repetition must reproduce and
// warms the process-wide pools, and, when the reference was a different
// workload, one discarded repetition of the workload's own.
func begin(wl workload, seed int64, smoke bool, workers int) (*workloadResult, error) {
	ref := wl
	if wl.Ref != "" {
		ref, _ = findWorkload(wl.Ref)
	}
	res := &workloadResult{Workload: wl.Name, Config: wl.spec(seed, smoke), Reference: ref.Name}
	_, w, out, err := oneRep(ref.spec(seed, smoke), workers, nil)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", ref.Name, err)
	}
	res.Digest, res.VirtualS = w.digest(out), out.Virtual
	if wl.Ref != "" {
		oneRep(res.Config, workers, nil)
	}
	return res, nil
}

// rep runs one counted repetition of sp (the workload's spec or its
// reference's). It fails on an app error, a panic, a failed sanity check,
// or a digest other than the reference's.
func (res *workloadResult) rep(sp spec, workers int, in *instruments) (sample, *world, outcome, bool) {
	s, w, out, err := oneRep(sp, workers, in)
	if err == nil {
		if d := w.digest(out); d != res.Digest {
			err = fmt.Errorf("digest %.12s differs from %s reference %.12s", d, res.Reference, res.Digest)
			s.Err = err.Error()
		}
	}
	res.Runs++
	if err != nil {
		res.FailedRuns++
		fmt.Fprintf(stderr, "bench: %s repetition %d failed: %v\n", res.Workload, res.Runs, err)
	}
	return s, w, out, err == nil
}

// minReps is the fewest measured repetitions a run reports a median over,
// whatever the time budget. setupBatches is how many extra batches of
// set-up times a run collects, as far as a twentieth of the budget allows:
// set-up is the shortest and so the noisiest timing, and it costs little to
// repeat.
const (
	minReps      = 3
	setupBatches = 12
)

// measure is the untraced pass: begin, then measured repetitions, each
// after a collection and a pass of the calibration kernel, until budget is
// spent.
func measure(wl workload, seed int64, smoke bool, workers int, budget time.Duration, reps int) (*workloadResult, error) {
	start := time.Now()
	cal := newCalibrator()
	res, err := begin(wl, seed, smoke, workers)
	if err != nil {
		return nil, err
	}
	sp := res.Config
	for {
		if reps > 0 && len(res.Reps) >= reps {
			break
		}
		if reps <= 0 && len(res.Reps) >= minReps {
			perRep := time.Since(start) / time.Duration(len(res.Reps)+2)
			if time.Since(start)+perRep > budget {
				break
			}
		}
		runtime.GC() // the kernel must not share the machine with the collector
		calS := cal.run().Seconds()
		s, _, out, ok := res.rep(sp, workers, nil)
		s.CalS = calS
		if ok {
			res.Events = out.Events
		}
		res.Reps = append(res.Reps, s)
	}
	// Extra set-up samples: up to setupBatches calibrations, each followed by
	// as many set-ups as fit in 30 ms (at most 8), so a sub-millisecond
	// set-up gets many samples and a 50 ms one gets one per calibration.
	for extra, batches := time.Now(), 0; batches < setupBatches && time.Since(extra) < budget/20; batches++ {
		runtime.GC()
		calS := cal.run().Seconds()
		for k, batch := 0, time.Now(); k < 8 && (k == 0 || time.Since(batch) < 30*time.Millisecond); k++ {
			t0 := time.Now()
			if _, err := setup(sp, workers); err != nil {
				return nil, err
			}
			res.SetupExtra = append(res.SetupExtra, sample{CalS: calS, SetupS: time.Since(t0).Seconds()})
		}
	}
	runtime.KeepAlive(cal)
	if res.Runs == res.FailedRuns {
		return nil, fmt.Errorf("all %d repetitions failed", res.Runs)
	}
	res.Metrics = map[string]stat{}
	for _, m := range endToEnd {
		var vals []float64
		for _, s := range res.Reps {
			if s.Err == "" {
				vals = append(vals, m.get(s))
			}
		}
		if m.Name == "setup_s" {
			for _, s := range res.SetupExtra {
				vals = append(vals, m.get(s))
			}
		}
		res.Metrics[m.Name] = summarize(vals)
	}
	return res, nil
}
