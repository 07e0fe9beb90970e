// parsimbench runs one workload on several backends, refuses to report if
// their results differ, and prints one row per run. It is the hand-driven
// sweep beside the two things held to account: bench/ measures (seven
// workloads, calibrated seconds, per-layer attribution), and go test gates
// (the counter goldens and Alloc budgets in internal/apps/determinism pin
// what the rows here show, at the same inputs). What is left for a person to
// vary is the input size (-smoke), the backend set (-backend) and the
// state-saving interval (-snap-interval, -snap-sweep).
//
// A row's ns_per_op is one cold run on this host and repeats only to within
// a factor of about 1.5: read speed from bench/. Its engine and saves
// counters depend on calendar state and commit order alone, so they are the
// same at any -workers on any host; handoff (which goroutine ran a launched
// phase, the grain estimate) is timing-dependent by design.
//
// Usage:
//
//	go run ./cmd/parsimbench                      # Stencil2D, 256 PEs: sequential, parallel
//	go run ./cmd/parsimbench -smoke               # the same at 16 PEs
//	go run ./cmd/parsimbench -backend optimistic  # low-lookahead PHOLD: all three backends
//	go run ./cmd/parsimbench -backend optimistic -snap-interval 4
//	go run ./cmd/parsimbench -backend optimistic -snap-sweep  # K = 1, 4, 16, adaptive
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"charmgo/internal/apps/pdes"
	"charmgo/internal/apps/stencil"
	"charmgo/internal/charm"
	"charmgo/internal/machine"
	"charmgo/internal/parsim"
	"charmgo/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// row is one run of the workload. Before the run it carries only the request
// (Backend, SnapInterval); measure fills in the rest.
type row struct {
	Workload     string `json:"workload"`
	Backend      string `json:"backend"`
	SnapInterval int    `json:"snap_interval"` // optimistic only: 0 = adaptive, 1 = eager
	HostCPUs     int    `json:"host_cpus"`
	GOMAXPROCS   int    `json:"gomaxprocs"` // as the run had it, and the cap on engine workers
	// Summary is the run's result — event count and the application's
	// values — which every row must share with the first.
	Summary     string  `json:"summary"`
	Events      uint64  `json:"events"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsEvent float64 `json:"allocs_per_event"`
	BytesEvent  float64 `json:"bytes_per_event"`
	// Engine is nil on the sequential backend, Saves on all but optimistic.
	Engine  *parsim.Stats        `json:"engine,omitempty"`
	Saves   *charm.SpecSaveStats `json:"saves,omitempty"`
	Handoff *parsim.HandoffStats `json:"handoff,omitempty"`
}

// workload is an application input sized for a machine of pes PEs; run
// returns the application's results rendered for comparison.
type workload struct {
	name string
	pes  int
	run  func(rt *charm.Runtime) (string, error)
}

func stencilWorkload(smoke bool) workload {
	pes, cfg := 256, stencil.Config{GridN: 4096, Chares: 16, Iters: 20}
	if smoke {
		pes, cfg = 16, stencil.Config{GridN: 192, Chares: 4, Iters: 6}
	}
	return workload{
		name: fmt.Sprintf("Stencil2D/jacobi Testbed(%d) grid=%d chares=%dx%d iters=%d", pes, cfg.GridN, cfg.Chares, cfg.Chares, cfg.Iters),
		pes:  pes,
		run: func(rt *charm.Runtime) (string, error) {
			res, err := stencil.Run(rt, cfg)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("residuals=%v done=%v", res.Residuals, res.IterDone), nil
		},
	}
}

// pholdWorkload is PHOLD at low lookahead: the conservative window covers
// ~1% of the mean event gap (lookahead / (lookahead + mean delay) = 0.012),
// so YAWNS commits nearly everything inline and only speculation runs ahead.
func pholdWorkload(smoke bool) workload {
	pes, cfg := 16, pdes.Config{LPs: 256, EventsPerLP: 8, TargetEvents: 200000, Seed: 42, Lookahead: 0.05, MeanDelay: 4.0}
	if smoke {
		pes, cfg.LPs, cfg.TargetEvents = 8, 64, 8000
	}
	return workload{
		name: fmt.Sprintf("PDES/phold-low-alpha Testbed(%d) lps=%d target=%d lookahead=%v mean_delay=%v", pes, cfg.LPs, cfg.TargetEvents, cfg.Lookahead, cfg.MeanDelay),
		pes:  pes,
		run: func(rt *charm.Runtime) (string, error) {
			res, err := pdes.Run(rt, cfg)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("committed=%d windows=%d elapsed=%v maxvt=%v", res.Committed, res.Windows, res.Elapsed, res.MaxVT), nil
		},
	}
}

// measure runs w on r's backend and fills r in: the one place that builds a
// runtime, times Run and reads the allocator's counters around it.
func measure(w workload, r *row, telemetryAddr string, stderr io.Writer) error {
	mc := machine.Testbed(w.pes)
	mc.Backend, mc.SnapInterval = r.Backend, r.SnapInterval
	rt := charm.New(machine.New(mc))
	if telemetryAddr != "" {
		// Rebound per run, so the address shows the run in progress.
		srv, err := telemetry.Serve(telemetryAddr, telemetry.Attach(rt, telemetry.Options{}))
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "parsimbench: telemetry on http://%s\n", srv.Addr())
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	result, err := w.run(rt)
	r.NsPerOp = time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("%s run: %w", r.Backend, err)
	}

	r.Workload, r.HostCPUs, r.GOMAXPROCS = w.name, runtime.NumCPU(), runtime.GOMAXPROCS(0)
	r.Events = rt.Engine().Executed()
	r.Summary = fmt.Sprintf("events=%d %s", r.Events, result)
	r.AllocsEvent = float64(after.Mallocs-before.Mallocs) / float64(r.Events)
	r.BytesEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(r.Events)
	if eng, ok := rt.Engine().(*parsim.Engine); ok {
		st, hand := eng.EngineStats(), eng.HandoffStats()
		r.Engine, r.Handoff = &st, &hand
	}
	if r.Backend == "optimistic" {
		saves := rt.SpecSaveStats()
		r.Saves = &saves
	}
	return nil
}

// emit prints the rows, unless one of them disagrees with the first about
// what the run computed: a comparison of diverging runs reports nothing.
func emit(rows []row, stdout, stderr io.Writer) int {
	for _, r := range rows[1:] {
		if r.Summary != rows[0].Summary {
			fmt.Fprintf(stderr, "parsimbench: backend divergence!\n  %s: %s\n  %s (snap interval %d): %s\n",
				rows[0].Backend, rows[0].Summary, r.Backend, r.SnapInterval, r.Summary)
			return 1
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "parsimbench:", err)
	return 1
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("parsimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	smoke := fs.Bool("smoke", false, "small input: seconds become milliseconds")
	workers := fs.Int("workers", 8, "GOMAXPROCS for the runs, and so the cap on parsim worker goroutines (0 = leave GOMAXPROCS as it is)")
	backend := fs.String("backend", "", "'optimistic': compare all three backends on low-lookahead PHOLD instead of sequential and parallel on Stencil2D (names: "+machine.BackendNames()+")")
	snapInterval := fs.Int("snap-interval", 0, "optimistic backend state-saving interval: image a chare every K-th speculated execution and replay between (0 = adaptive, 1 = eager per-execution snapshots)")
	snapSweep := fs.Bool("snap-sweep", false, "run the optimistic backend at snap intervals 1, 4, 16 and adaptive, each against sequential")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the runs to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file after the runs")
	telemetryAddr := fs.String("telemetry", "", "serve live introspection (/status, /metrics, /events, pprof) on this address during each run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	be, err := machine.ParseBackend(*backend)
	if err == nil {
		err = machine.Config{SnapInterval: *snapInterval}.ValidateSpeculation()
	}
	switch {
	case err != nil:
	case *workers < 0:
		err = fmt.Errorf("-workers %d out of range (want 0 = GOMAXPROCS as it is, or N >= 1)", *workers)
	case *backend != "" && be != "optimistic":
		err = fmt.Errorf("-backend %s has no comparison of its own: the default run already covers sequential and parallel", be)
	case (*snapSweep || *snapInterval != 0) && be != "optimistic":
		err = errors.New("-snap-interval and -snap-sweep apply to -backend optimistic only")
	}
	if err != nil {
		fmt.Fprintln(stderr, "parsimbench:", err)
		return 2
	}

	w := stencilWorkload(*smoke)
	rows := []row{{Backend: "sequential"}, {Backend: "parallel"}}
	switch {
	case *snapSweep:
		w, rows = pholdWorkload(*smoke), []row{{Backend: "sequential"}}
		for _, k := range []int{1, 4, 16, 0} {
			rows = append(rows, row{Backend: "optimistic", SnapInterval: k})
		}
	case be == "optimistic":
		w = pholdWorkload(*smoke)
		rows = append(rows, row{Backend: "optimistic", SnapInterval: *snapInterval})
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(*workers))
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(stderr, err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && code == 0 {
				code = fail(stderr, err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(stderr, err)
		}
	}
	for i := range rows {
		if err := measure(w, &rows[i], *telemetryAddr, stderr); err != nil {
			return fail(stderr, err)
		}
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			return fail(stderr, err)
		}
	}
	return emit(rows, stdout, stderr)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
