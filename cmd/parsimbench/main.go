// parsimbench measures the event core. Two modes:
//
//   - default: the parallel (parsim) backend against the sequential engine
//     on a large Stencil2D run, emitting BENCH_parsim.json. The two
//     backends are required to produce identical results — the benchmark
//     refuses to report a speedup on diverging runs.
//   - -scale: Stencil2D at 1k/8k/64k virtual PEs, recording events/sec,
//     bytes/event, allocs/event, steady-state allocs/event, and live heap,
//     emitting BENCH_scale.json (the budget file scripts/bench.sh gates
//     against).
//
// Wall-clock speedup depends on the host: with fewer physical CPUs than
// workers the parallel backend degrades gracefully toward sequential
// speed. The report therefore also includes host_cpus and the engine's
// own scheduling counters — phase_parallel_fraction says how much of the
// event stream the engine proved independent and handed to workers, which
// is a host-independent measure of the parallelism exposed.
//
// Usage:
//
//	go run ./cmd/parsimbench -out BENCH_parsim.json   # full benchmark
//	go run ./cmd/parsimbench -smoke                   # small config for CI
//	go run ./cmd/parsimbench -scale -out BENCH_scale.json
//	go run ./cmd/parsimbench -gate BENCH_scale.json   # fail on >20% regression
//	go run ./cmd/parsimbench -backend optimistic -snap-interval K  # state-saving interval
//	go run ./cmd/parsimbench -backend optimistic -snap-sweep       # K=1/4/16 vs adaptive
//	go run ./cmd/parsimbench -gate-optsim BENCH_optsim.json  # fail on snapshot-churn or heap-traffic regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"charmgo/internal/apps/pdes"
	"charmgo/internal/apps/stencil"
	"charmgo/internal/charm"
	"charmgo/internal/machine"
	"charmgo/internal/parsim"
	"charmgo/internal/pup"
	"charmgo/internal/telemetry"
)

type result struct {
	Benchmark        string  `json:"benchmark"`
	Machine          string  `json:"machine"`
	VirtualPEs       int     `json:"virtual_pes"`
	GridN            int     `json:"grid_n"`
	Chares           int     `json:"chares"` // per dimension
	Iters            int     `json:"iters"`
	HostCPUs         int     `json:"host_cpus"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	Workers          int     `json:"workers"`
	SequentialNsOp   int64   `json:"sequential_ns_per_op"`
	ParallelNsOp     int64   `json:"parallel_ns_per_op"`
	Speedup          float64 `json:"speedup"`
	EventsExecuted   uint64  `json:"events_executed"`
	PhasesLaunched   uint64  `json:"phases_launched"`
	PhasesInline     uint64  `json:"phases_inline"`
	GlobalEvents     uint64  `json:"global_events"`
	MaxInFlight      int     `json:"max_in_flight"`
	ParallelFraction float64 `json:"phase_parallel_fraction"`
	DigestsIdentical bool    `json:"digests_identical"`
	// Handoff is where the launched phases ran — timing-dependent, unlike
	// every counter above.
	Handoff parsim.HandoffStats `json:"handoff"`
}

func main() {
	smoke := flag.Bool("smoke", false, "small configuration for CI: validates the harness, not the speedup")
	out := flag.String("out", "", "write the JSON report to this file (default: stdout only)")
	workers := flag.Int("workers", 8, "parsim worker goroutines (and GOMAXPROCS) for the parallel run")
	backend := flag.String("backend", "", "'optimistic': benchmark Time Warp against sequential and conservative-parallel on a low-lookahead PDES run (names: "+machine.BackendNames()+")")
	scale := flag.Bool("scale", false, "run the 1k/8k/64k virtual-PE scale benchmark")
	gate := flag.String("gate", "", "re-run the scale benchmark and fail on >20% regression against this budget file")
	snapInterval := flag.Int("snap-interval", 0, "optimistic backend state-saving interval: image a chare every K-th speculated execution and replay between (0 = adaptive, 1 = eager per-execution snapshots; negative is a usage error)")
	snapSweep := flag.Bool("snap-sweep", false, "sweep the optimistic backend over fixed snap intervals and the adaptive policy (requires -backend optimistic)")
	gateOptsim := flag.String("gate-optsim", "", "re-run the optimistic PHOLD benchmark and fail on snapshot-churn or allocs/bytes-per-event regression against this budget file (BENCH_optsim.json)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	telemetryAddr := flag.String("telemetry", "", "serve live introspection (/status, /metrics, /events, pprof) on this address during benchmark runs")
	flag.Parse()
	telemetryServeAddr = *telemetryAddr

	be, err := machine.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := (machine.Config{SnapInterval: *snapInterval}).ValidateSpeculation(); err != nil {
		fmt.Fprintln(os.Stderr, "-snap-interval:", err)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}
	}()

	switch {
	case *gate != "":
		runGate(*gate)
	case *gateOptsim != "":
		runOptsimGate(*gateOptsim, *workers)
	case *scale:
		emit(runScale(*smoke), *out)
	case be == "optimistic" && *snapSweep:
		emit(runSnapSweep(*smoke, *workers), *out)
	case be == "optimistic":
		emit(runOptsim(*smoke, *workers, *snapInterval), *out)
	case *backend != "":
		fmt.Fprintf(os.Stderr, "-backend %s has no comparison of its own: the default run already covers sequential and parallel\n", be)
		os.Exit(2)
	default:
		emit(runParsim(*smoke, *workers), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "parsimbench:", err)
	os.Exit(1)
}

func emit(v any, out string) {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	os.Stdout.Write(enc)
	if out != "" {
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			fatal(err)
		}
	}
}

// ---- default mode: parsim vs sequential ----

func runParsim(smoke bool, workers int) result {
	pes, grid, chares, iters := 256, 4096, 16, 20
	if smoke {
		pes, grid, chares, iters = 16, 192, 4, 6
	}
	cfg := stencil.Config{GridN: grid, Chares: chares, Iters: iters}

	runtime.GOMAXPROCS(workers)

	seqNs, seqSummary, _ := run(pes, "sequential", 0, cfg)
	parNs, parSummary, eng := run(pes, "parallel", workers, cfg)
	st := eng.(*parsim.Engine).EngineStats()

	r := result{
		Benchmark:        "Stencil2D/jacobi",
		Machine:          fmt.Sprintf("Testbed(%d)", pes),
		VirtualPEs:       pes,
		GridN:            grid,
		Chares:           chares,
		Iters:            iters,
		HostCPUs:         runtime.NumCPU(),
		GOMAXPROCS:       workers,
		Workers:          workers,
		SequentialNsOp:   seqNs,
		ParallelNsOp:     parNs,
		Speedup:          float64(seqNs) / float64(parNs),
		EventsExecuted:   st.Launched + st.Inline + st.Global,
		PhasesLaunched:   st.Launched,
		PhasesInline:     st.Inline,
		GlobalEvents:     st.Global,
		MaxInFlight:      st.MaxInFlight,
		ParallelFraction: float64(st.Launched) / float64(st.Launched+st.Inline+st.Global),
		DigestsIdentical: seqSummary == parSummary,
		Handoff:          eng.(*parsim.Engine).HandoffStats(),
	}
	if !r.DigestsIdentical {
		fmt.Fprintf(os.Stderr, "parsimbench: backend divergence!\n  sequential: %s\n  parallel:   %s\n", seqSummary, parSummary)
		os.Exit(1)
	}
	return r
}

// telemetryServeAddr, when set via -telemetry, serves live introspection
// during each benchmark run (the server is rebound per run so the address
// always shows the run in progress).
var telemetryServeAddr string

// telemetrySession pairs an attached probe with its HTTP server so the
// cleanup is a plain method rather than a func() literal — charmvet's
// indirect-call resolution is signature-keyed, and a func() closure here
// would alias unrelated func() callbacks (e.g. chaos Restart hooks) in
// the call graph.
type telemetrySession struct {
	tel *telemetry.Telemetry
	srv *telemetry.Server
}

// finish publishes the final snapshot and closes the server; nil-safe so
// callers can defer it unconditionally.
func (s *telemetrySession) finish() {
	if s == nil {
		return
	}
	s.tel.Final()
	s.srv.Close()
}

// serveTelemetry attaches telemetry (and the HTTP endpoint) to a bench
// runtime when -telemetry is set; it returns nil when the flag is off.
func serveTelemetry(rt *charm.Runtime) *telemetrySession {
	if telemetryServeAddr == "" {
		return nil
	}
	tel := telemetry.Attach(rt, telemetry.Options{})
	srv, err := telemetry.Serve(telemetryServeAddr, tel)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "parsimbench: telemetry on http://%s\n", srv.Addr())
	return &telemetrySession{tel: tel, srv: srv}
}

// run executes one Stencil2D simulation and returns wall-clock ns, a
// result summary for the cross-backend identity check, and the engine.
func run(pes int, backend string, workers int, cfg stencil.Config) (int64, string, interface{ Executed() uint64 }) {
	mc := machine.Testbed(pes)
	mc.Backend = backend
	mc.ParallelWorkers = workers
	rt := charm.New(machine.New(mc))
	defer serveTelemetry(rt).finish()
	start := time.Now()
	res, err := stencil.Run(rt, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parsimbench: %s run: %v\n", backend, err)
		os.Exit(1)
	}
	ns := time.Since(start).Nanoseconds()
	summary := fmt.Sprintf("events=%d residuals=%v done=%v", rt.Engine().Executed(), res.Residuals, res.IterDone)
	return ns, summary, rt.Engine()
}

// ---- -backend optimistic: Time Warp vs conservative vs sequential ----

// optsimResult is the BENCH_optsim.json payload: the same low-lookahead
// PDES/PHOLD run on all three backends, with the Time Warp engine's
// speculation accounting. The workload is deliberately low-α (lookahead
// tiny relative to the mean event spacing), the regime where conservative
// windows contain almost nothing runnable and optimism is the only source
// of parallelism.
type optsimResult struct {
	Benchmark    string `json:"benchmark"`
	Machine      string `json:"machine"`
	LPs          int    `json:"lps"`
	EventsPerLP  int    `json:"events_per_lp"`
	TargetEvents int    `json:"target_events"`
	// Alpha = lookahead / (lookahead + mean extra delay): the fraction of
	// an average event gap the conservative scheduler can prove safe.
	Lookahead float64 `json:"lookahead"`
	MeanDelay float64 `json:"mean_delay"`
	Alpha     float64 `json:"alpha"`

	HostCPUs   int `json:"host_cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`
	Workers    int `json:"workers"`

	SequentialNsOp      int64   `json:"sequential_ns_per_op"`
	ParallelNsOp        int64   `json:"parallel_ns_per_op"`
	OptimisticNsOp      int64   `json:"optimistic_ns_per_op"`
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
	SpeedupVsParallel   float64 `json:"speedup_vs_parallel"`

	// Speculation accounting (see internal/parsim's Stats).
	Launched           uint64  `json:"spec_launched"`
	Committed          uint64  `json:"spec_committed"`
	RolledBack         uint64  `json:"spec_rolled_back"`
	Inline             uint64  `json:"inline_events"`
	GlobalEvents       uint64  `json:"global_events"`
	MaxInFlight        int     `json:"max_in_flight"`
	MaxGVTLagSec       float64 `json:"max_gvt_lag_sec"`
	RollbackRatio      float64 `json:"rollback_ratio"`
	WastedWorkFraction float64 `json:"wasted_work_fraction"`

	// State-saving accounting (see charm.SpecSaveStats). SnapInterval is
	// the configured interval (0 = adaptive); FinalSnapInterval and
	// FinalWindowSec are the adaptive policy's last values. All counters
	// are deterministic: re-running the benchmark reproduces them exactly.
	// Retired + Invalidations is how many images' intervals ended: on
	// schedule, and early (migration, load balancing, multi-element runs).
	SnapshotCount     uint64  `json:"snapshots"`
	SnapshotBytes     uint64  `json:"snapshot_bytes"`
	SnapshotsAvoided  uint64  `json:"snapshots_avoided"`
	Restores          uint64  `json:"snapshot_restores"`
	Replays           uint64  `json:"replays"`
	LoggedDeliveries  uint64  `json:"logged_deliveries"`
	Retired           uint64  `json:"save_retired"`
	Invalidations     uint64  `json:"save_invalidations"`
	SnapInterval      int     `json:"snap_interval"`
	FinalSnapInterval int     `json:"final_snap_interval"`
	FinalWindowSec    float64 `json:"final_window_sec"`

	// The optimistic run's heap traffic per engine event: properties of the
	// code, not the host (up to what a collection empties out of the message
	// pool), so -gate-optsim budgets them like the snapshot counters.
	AllocsEvent float64 `json:"optimistic_allocs_per_event"`
	BytesEvent  float64 `json:"optimistic_bytes_per_event"`

	DigestsIdentical bool `json:"digests_identical"`
	// Handoff is where the speculated phases ran — timing-dependent, unlike
	// the counters above.
	Handoff parsim.HandoffStats `json:"handoff"`
}

func runOptsim(smoke bool, workers, snapInterval int) optsimResult {
	pes, lps, target := 16, 256, 200000
	if smoke {
		pes, lps, target = 8, 64, 8000
	}
	cfg := pdes.Config{
		LPs: lps, EventsPerLP: 8, TargetEvents: target, Seed: 42,
		// Low α: the conservative window covers ~1% of the mean event gap,
		// so YAWNS commits nearly everything inline while Time Warp can
		// still speculate shard-by-shard past the frontier.
		Lookahead: 0.05, MeanDelay: 4.0,
	}

	runtime.GOMAXPROCS(workers)

	seq := runPDESBench(pes, "sequential", 0, 0, cfg)
	par := runPDESBench(pes, "parallel", workers, 0, cfg)
	opt := runPDESBench(pes, "optimistic", workers, snapInterval, cfg)
	eng := opt.rt.Engine().(*parsim.Engine)
	st := eng.EngineStats()
	saves := opt.rt.SpecSaveStats()
	events := float64(eng.Executed())

	r := optsimResult{
		Benchmark:    "PDES/phold-low-alpha",
		Machine:      fmt.Sprintf("Testbed(%d)", pes),
		LPs:          lps,
		EventsPerLP:  cfg.EventsPerLP,
		TargetEvents: target,
		Lookahead:    cfg.Lookahead,
		MeanDelay:    cfg.MeanDelay,
		Alpha:        cfg.Lookahead / (cfg.Lookahead + cfg.MeanDelay),

		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: workers,
		Workers:    workers,

		SequentialNsOp:      seq.ns,
		ParallelNsOp:        par.ns,
		OptimisticNsOp:      opt.ns,
		SpeedupVsSequential: float64(seq.ns) / float64(opt.ns),
		SpeedupVsParallel:   float64(par.ns) / float64(opt.ns),

		Launched:           st.Launched,
		Committed:          st.Committed,
		RolledBack:         st.RolledBack,
		Inline:             st.Inline,
		GlobalEvents:       st.Global,
		MaxInFlight:        st.MaxInFlight,
		MaxGVTLagSec:       float64(st.MaxGVTLag),
		RollbackRatio:      st.RollbackRatio(),
		WastedWorkFraction: st.WastedFraction(),

		SnapshotCount:     saves.Snapshots,
		SnapshotBytes:     saves.SnapshotBytes,
		SnapshotsAvoided:  saves.SnapshotsAvoided,
		Restores:          saves.Restores,
		Replays:           saves.Replays,
		LoggedDeliveries:  saves.LoggedDeliveries,
		Retired:           saves.Retired,
		Invalidations:     saves.Invalidations,
		SnapInterval:      snapInterval,
		FinalSnapInterval: saves.SnapInterval,
		FinalWindowSec:    saves.Window,

		AllocsEvent: float64(opt.allocs) / events,
		BytesEvent:  float64(opt.bytes) / events,

		DigestsIdentical: seq.summary == par.summary && seq.summary == opt.summary,
		Handoff:          eng.HandoffStats(),
	}
	if !r.DigestsIdentical {
		fmt.Fprintf(os.Stderr, "parsimbench: backend divergence!\n  sequential: %s\n  parallel:   %s\n  optimistic: %s\n",
			seq.summary, par.summary, opt.summary)
		os.Exit(1)
	}
	return r
}

// ---- -snap-sweep mode: adaptive vs fixed state-saving intervals ----

// snapSweepPoint is one interval's cell in the adaptive-vs-fixed sweep.
type snapSweepPoint struct {
	// SnapInterval is the configured interval; 0 is the adaptive policy.
	SnapInterval     int     `json:"snap_interval"`
	OptimisticNsOp   int64   `json:"optimistic_ns_per_op"`
	Snapshots        uint64  `json:"snapshots"`
	SnapshotBytes    uint64  `json:"snapshot_bytes"`
	SnapshotsAvoided uint64  `json:"snapshots_avoided"`
	Replays          uint64  `json:"replays"`
	RolledBack       uint64  `json:"spec_rolled_back"`
	FinalInterval    int     `json:"final_snap_interval"`
	BytesVsEagerX    float64 `json:"bytes_reduction_vs_eager"`
	DigestsIdentical bool    `json:"digests_identical"`
}

// snapSweepResult is the BENCH payload of the adaptive-vs-fixed sweep: the
// same low-α PHOLD run at eager (K=1), fixed K, and the adaptive policy,
// digest-checked against sequential at every point.
type snapSweepResult struct {
	Benchmark  string           `json:"benchmark"`
	Machine    string           `json:"machine"`
	LPs        int              `json:"lps"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Points     []snapSweepPoint `json:"points"`
}

func runSnapSweep(smoke bool, workers int) snapSweepResult {
	pes, lps, target := 16, 256, 200000
	if smoke {
		pes, lps, target = 8, 64, 8000
	}
	cfg := pdes.Config{
		LPs: lps, EventsPerLP: 8, TargetEvents: target, Seed: 42,
		Lookahead: 0.05, MeanDelay: 4.0,
	}
	runtime.GOMAXPROCS(workers)
	seqSummary := runPDESBench(pes, "sequential", 0, 0, cfg).summary

	r := snapSweepResult{
		Benchmark:  "PDES/phold-low-alpha snap-interval sweep",
		Machine:    fmt.Sprintf("Testbed(%d)", pes),
		LPs:        lps,
		GOMAXPROCS: workers,
	}
	var eagerBytes uint64
	for _, k := range []int{1, 4, 16, 0} {
		run := runPDESBench(pes, "optimistic", workers, k, cfg)
		ns, summary := run.ns, run.summary
		st := run.rt.Engine().(*parsim.Engine).EngineStats()
		saves := run.rt.SpecSaveStats()
		p := snapSweepPoint{
			SnapInterval:     k,
			OptimisticNsOp:   ns,
			Snapshots:        saves.Snapshots,
			SnapshotBytes:    saves.SnapshotBytes,
			SnapshotsAvoided: saves.SnapshotsAvoided,
			Replays:          saves.Replays,
			RolledBack:       st.RolledBack,
			FinalInterval:    saves.SnapInterval,
			DigestsIdentical: summary == seqSummary,
		}
		if k == 1 {
			eagerBytes = saves.SnapshotBytes
		}
		if eagerBytes > 0 && saves.SnapshotBytes > 0 {
			p.BytesVsEagerX = float64(eagerBytes) / float64(saves.SnapshotBytes)
		}
		if !p.DigestsIdentical {
			fmt.Fprintf(os.Stderr, "parsimbench: snap-interval %d diverged from sequential!\n  sequential: %s\n  optimistic: %s\n",
				k, seqSummary, summary)
			os.Exit(1)
		}
		r.Points = append(r.Points, p)
	}
	return r
}

// pdesRun is one PDES run: wall-clock ns, a result summary for the
// cross-backend identity check, the heap objects and bytes allocated while it
// ran, and the runtime.
type pdesRun struct {
	ns            int64
	summary       string
	allocs, bytes uint64
	rt            *charm.Runtime
}

func runPDESBench(pes int, backend string, workers, snapInterval int, cfg pdes.Config) pdesRun {
	mc := machine.Testbed(pes)
	mc.Backend = backend
	mc.ParallelWorkers = workers
	mc.SnapInterval = snapInterval
	rt := charm.New(machine.New(mc))
	defer serveTelemetry(rt).finish()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := pdes.Run(rt, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parsimbench: %s run: %v\n", backend, err)
		os.Exit(1)
	}
	ns := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return pdesRun{
		ns: ns,
		summary: fmt.Sprintf("events=%d committed=%d windows=%d elapsed=%v maxvt=%v",
			rt.Engine().Executed(), res.Committed, res.Windows, res.Elapsed, res.MaxVT),
		allocs: after.Mallocs - before.Mallocs,
		bytes:  after.TotalAlloc - before.TotalAlloc,
		rt:     rt,
	}
}

// ---- -scale mode: virtual-PE scaling with memory accounting ----

type scalePoint struct {
	VirtualPEs  int     `json:"virtual_pes"`
	Chares      int     `json:"chares"`
	GridN       int     `json:"grid_n"`
	Iters       int     `json:"iters"`
	Events      uint64  `json:"events"`
	EventsSec   float64 `json:"events_per_sec"`
	BytesEvent  float64 `json:"bytes_per_event"`
	AllocsEvent float64 `json:"allocs_per_event"`
	// SteadyAllocsEvent isolates the per-event steady state (send +
	// execute) from setup: allocations between an N-iteration and a
	// 3N-iteration run of the same configuration, divided by the extra
	// events.
	SteadyAllocsEvent float64 `json:"steady_allocs_per_event"`
	LiveHeapMB        float64 `json:"live_heap_mb"`
}

type scaleReport struct {
	Benchmark string       `json:"benchmark"`
	HostCPUs  int          `json:"host_cpus"`
	Points    []scalePoint `json:"points"`
	// RuntimeAllocsEvent is allocations per engine event on a nil-payload
	// element ping — the pure runtime send/execute path with no application
	// payload. The budget is ≤2: one Ctx and one commit closure per
	// delivery, amortized over the delivery's events.
	RuntimeAllocsEvent float64 `json:"runtime_allocs_per_event"`
}

func scaleRun(pes, chares, grid, iters int) (ns int64, events, allocs, bytes uint64, liveMB float64) {
	mc := machine.Testbed(pes)
	rt := charm.New(machine.New(mc))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if _, err := stencil.Run(rt, stencil.Config{GridN: grid, Chares: chares, Iters: iters}); err != nil {
		fatal(err)
	}
	ns = time.Since(start).Nanoseconds()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return ns, rt.Engine().Executed(),
		after.Mallocs - before.Mallocs,
		after.TotalAlloc - before.TotalAlloc,
		float64(after.HeapAlloc) / (1 << 20)
}

// pingObj is a two-element ping chare: each delivery sends one nil-payload
// message to the peer element until Left reaches zero.
type pingObj struct {
	Peer int
	Left int
}

func (p *pingObj) Pup(pp *pup.Pup) {
	pp.Int(&p.Peer)
	pp.Int(&p.Left)
}

func runtimePingAllocs() float64 {
	rt := charm.New(machine.New(machine.Testbed(2)))
	var arr *charm.Array
	handlers := []charm.Handler{
		func(obj charm.Chare, ctx *charm.Ctx, msg any) {
			o := obj.(*pingObj)
			o.Left--
			if o.Left <= 0 {
				ctx.Exit()
				return
			}
			ctx.Send(arr, charm.Idx1(o.Peer), 0, nil)
		},
	}
	arr = rt.DeclareArray("ping", func() charm.Chare { return &pingObj{} },
		handlers, charm.ArrayOpts{})
	const rounds = 100000
	arr.InsertOn(charm.Idx1(0), &pingObj{Peer: 1, Left: rounds}, 0)
	arr.InsertOn(charm.Idx1(1), &pingObj{Peer: 0, Left: rounds}, 1)
	arr.Broadcast(0, nil)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt.Run()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(rt.Engine().Executed())
}

// runGate re-runs the full scale configurations and compares each point's
// memory metrics against the committed budget file. Allocation counts,
// bytes, and live heap are properties of the code (fixed Go version), not
// the host, so they gate hard at +20%; events/sec depends on the machine
// running the check and only warns.
func runGate(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var budget scaleReport
	if err := json.Unmarshal(data, &budget); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", path, err))
	}
	cur := runScale(false)

	const tol = 1.2
	failed := false
	check := func(label string, got, want float64) {
		// Small absolute slack keeps near-zero budgets (runtime allocs
		// ~0.001/event) from failing on measurement noise.
		if got > want*tol+0.05 {
			fmt.Fprintf(os.Stderr, "parsimbench: REGRESSION %s: %.4g exceeds budget %.4g by >20%%\n", label, got, want)
			failed = true
		}
	}
	byPEs := map[int]scalePoint{}
	for _, p := range budget.Points {
		byPEs[p.VirtualPEs] = p
	}
	for _, p := range cur.Points {
		b, ok := byPEs[p.VirtualPEs]
		if !ok {
			fmt.Fprintf(os.Stderr, "parsimbench: no budget for %d virtual PEs in %s; regenerate with -scale -out %s\n", p.VirtualPEs, path, path)
			failed = true
			continue
		}
		if b.GridN != p.GridN || b.Iters != p.Iters || b.Chares != p.Chares {
			fmt.Fprintf(os.Stderr, "parsimbench: budget config for %d PEs is stale (grid/chares/iters changed); regenerate with -scale -out %s\n", p.VirtualPEs, path)
			failed = true
			continue
		}
		pre := fmt.Sprintf("%d PEs ", p.VirtualPEs)
		check(pre+"allocs/event", p.AllocsEvent, b.AllocsEvent)
		check(pre+"steady allocs/event", p.SteadyAllocsEvent, b.SteadyAllocsEvent)
		check(pre+"bytes/event", p.BytesEvent, b.BytesEvent)
		check(pre+"live heap MB", p.LiveHeapMB, b.LiveHeapMB)
		if p.EventsSec < b.EventsSec/tol {
			fmt.Fprintf(os.Stderr, "parsimbench: note: %sevents/sec %.0f below budget %.0f (host-dependent, not gating)\n", pre, p.EventsSec, b.EventsSec)
		}
	}
	check("runtime allocs/event", cur.RuntimeAllocsEvent, budget.RuntimeAllocsEvent)
	if failed {
		os.Exit(1)
	}
	fmt.Printf("parsimbench: scale metrics within 20%% of %s budgets (%d points)\n", path, len(cur.Points))
}

// runOptsimGate re-runs the optimistic PHOLD benchmark and gates the
// snapshot churn and the run's heap traffic against the committed
// BENCH_optsim.json. Snapshot counts and bytes are deterministic
// (driver-ordered state saving on a fixed seed), so any growth is a code
// change, not noise; allocations and bytes per event are properties of the
// code like BENCH_scale.json's memory budget. All four gate hard at +20%.
// Wall-clock speeds are host-dependent and never gate.
func runOptsimGate(path string, workers int) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var budget optsimResult
	if err := json.Unmarshal(data, &budget); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", path, err))
	}
	cur := runOptsim(false, workers, budget.SnapInterval)
	if cur.LPs != budget.LPs || cur.TargetEvents != budget.TargetEvents ||
		cur.Lookahead != budget.Lookahead || cur.MeanDelay != budget.MeanDelay {
		fatal(fmt.Errorf("budget config in %s is stale (LPs/events/lookahead changed); regenerate with scripts/bench.sh --optsim", path))
	}

	if budget.AllocsEvent == 0 || budget.BytesEvent == 0 {
		fatal(fmt.Errorf("%s has no allocation budget; regenerate with scripts/bench.sh --optsim", path))
	}

	const tol = 1.2
	failed := false
	check := func(label string, got, want float64) {
		if got > want*tol+0.05 {
			fmt.Fprintf(os.Stderr, "parsimbench: REGRESSION %s: %.4g exceeds budget %.4g by >20%%\n", label, got, want)
			failed = true
		}
	}
	check("snapshots", float64(cur.SnapshotCount), float64(budget.SnapshotCount))
	check("snapshot bytes", float64(cur.SnapshotBytes), float64(budget.SnapshotBytes))
	check("optimistic allocs/event", cur.AllocsEvent, budget.AllocsEvent)
	check("optimistic bytes/event", cur.BytesEvent, budget.BytesEvent)
	// The divergence check already ran inside runOptsim (it exits nonzero
	// on any backend mismatch), so reaching here means digests held.
	if failed {
		os.Exit(1)
	}
	fmt.Printf("parsimbench: optsim snapshot churn and heap traffic within 20%% of %s budgets (%d snapshots, %d bytes, %.3f allocs/event, %.1f bytes/event)\n",
		path, cur.SnapshotCount, cur.SnapshotBytes, cur.AllocsEvent, cur.BytesEvent)
}

func runScale(smoke bool) scaleReport {
	type cfg struct{ pes, chares, grid, iters int }
	var cfgs []cfg
	if smoke {
		cfgs = []cfg{
			{1024, 64, 512, 4},
			{8192, 128, 512, 2},
		}
	} else {
		cfgs = []cfg{
			{1024, 64, 1024, 8},
			{8192, 128, 1024, 4},
			{65536, 256, 1024, 2},
		}
	}
	rep := scaleReport{
		Benchmark:          "Stencil2D/scale",
		HostCPUs:           runtime.NumCPU(),
		RuntimeAllocsEvent: runtimePingAllocs(),
	}
	for _, c := range cfgs {
		// Warm pools (and the allocator) with a short run of the same shape.
		scaleRun(c.pes, c.chares, c.grid, c.iters)
		ns, ev, allocs, bytes, live := scaleRun(c.pes, c.chares, c.grid, c.iters)
		_, ev3, allocs3, _, _ := scaleRun(c.pes, c.chares, c.grid, 3*c.iters)
		rep.Points = append(rep.Points, scalePoint{
			VirtualPEs:        c.pes,
			Chares:            c.chares * c.chares,
			GridN:             c.grid,
			Iters:             c.iters,
			Events:            ev,
			EventsSec:         float64(ev) / (float64(ns) / 1e9),
			BytesEvent:        float64(bytes) / float64(ev),
			AllocsEvent:       float64(allocs) / float64(ev),
			SteadyAllocsEvent: float64(allocs3-allocs) / float64(ev3-ev),
			LiveHeapMB:        live,
		})
	}
	return rep
}
