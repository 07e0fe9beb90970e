package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"charmgo/internal/des"
)

// metricDef declares one per-layer metric of BENCHMARK.json.
type metricDef struct{ Name, Unit, Better string }

// perLayer lists every per-layer metric in report order: the CPU shares of
// the traced workload, the engines' wall-clock probe, the counters read at
// the layer boundaries, the derived ratios, and the layer probes that time
// direct calls into each layer (probes.go). Every traced run emits all of
// them; a metric of a layer the workload does not use reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		better := "lower"
		if l == "apps" {
			better = "higher" // the share left to the application kernel
		}
		defs = append(defs, metricDef{l + ".cpu_share", "ratio", better})
	}
	defs = append(defs,
		metricDef{"parsim.phase_wall_s", "s", "lower"},
		metricDef{"parsim.stall_s", "s", "lower"},
		metricDef{"parsim.window_stalls", "count", "lower"},
		metricDef{"optsim.phase_wall_s", "s", "lower"},
		metricDef{"optsim.stall_s", "s", "lower"},
		metricDef{"optsim.rollback_wait_s", "s", "lower"},

		metricDef{"des.events", "count", "lower"},
		metricDef{"charm.msgs_sent", "count", "lower"},
		metricDef{"charm.bytes_sent", "bytes", "lower"},
		metricDef{"charm.msgs_forwarded", "count", "lower"},
		metricDef{"charm.forward_ratio", "ratio", "lower"},
		metricDef{"charm.migrations", "count", "lower"},
		metricDef{"charm.lb_rounds", "count", "lower"},
		metricDef{"parsim.launched", "count", "higher"},
		metricDef{"parsim.inline", "count", "lower"},
		metricDef{"parsim.parallel_fraction", "ratio", "higher"},
		metricDef{"parsim.max_in_flight", "count", "higher"},
		metricDef{"optsim.launched", "count", "higher"},
		metricDef{"optsim.rolled_back", "count", "lower"},
		metricDef{"optsim.rollback_ratio", "ratio", "lower"},
		metricDef{"optsim.wasted_fraction", "ratio", "lower"},
		metricDef{"optsim.max_in_flight", "count", "higher"},
		metricDef{"charm.spec_snapshots", "count", "lower"},
		metricDef{"charm.spec_snapshot_mb", "MB", "lower"},
		metricDef{"charm.spec_replays", "count", "lower"},
		metricDef{"projections.recorded", "count", "lower"},
		metricDef{"projections.dropped", "count", "lower"},

		metricDef{"sim.virtual_time", "sim_s", "lower"},
		metricDef{"des.ns_per_event", "ns", "lower"},
		metricDef{"apps.stencil_ns_per_point", "ns", "lower"},
		metricDef{"go_runtime.allocs_per_event", "1/event", "lower"},
		metricDef{"parsim.overhead_x", "x", "lower"},
		metricDef{"optsim.overhead_x", "x", "lower"},
		metricDef{"projections.overhead_x", "x", "lower"},
		metricDef{"bench.trace_overhead_x", "x", "lower"},
	)
	return append(defs, probeDefs...)
}

// instruments is the traced pass's side-band equipment for one repetition:
// a CPU profile around Run only, and, on the parallel backends, a
// wall-clock probe on the engine. Neither may change the digest.
type instruments struct {
	prof  bytes.Buffer
	cpu   map[string]float64 // CPU nanoseconds by layer, summed over traced reps
	probe *wallProbe
	err   error
}

func (in *instruments) beforeRun(w *world) {
	in.probe = nil
	if w.sp.Backend != "sequential" {
		if ps, ok := w.rt.Engine().(des.ProbeSetter); ok {
			in.probe = &wallProbe{t0: time.Now()}
			ps.SetProbe(in.probe)
		}
	}
	in.prof.Reset()
	if err := pprof.StartCPUProfile(&in.prof); err != nil {
		in.err = err
	}
}

func (in *instruments) afterRun() {
	pprof.StopCPUProfile()
	if in.err != nil {
		return
	}
	p, err := decodeProfile(in.prof.Bytes())
	if err != nil {
		in.err = err
		return
	}
	p.charge(in.cpu)
}

// wallProbe is the bench-side des.Probe: it sums what the parallel engines
// report about launch-to-commit latency, driver stalls and rollback waits.
// It holds the only wall clock the engines can reach and feeds nothing
// back, so the digest must stay identical with it installed.
type wallProbe struct {
	t0             time.Time
	phaseWallNs    int64
	stallNs        int64
	windowStalls   int64
	rollbackWaitNs int64
}

func (p *wallProbe) WallNow() int64 {
	//charmvet:wallclock (side-band stamp for the traced pass; never enters simulation state)
	return int64(time.Since(p.t0))
}
func (p *wallProbe) EventExecuted(shard int, at des.Time, pending int) {}
func (p *wallProbe) PhaseWall(shard int, at des.Time, wallNs, stallNs int64, speculative bool) {
	p.phaseWallNs += wallNs
	p.stallNs += stallNs
}
func (p *wallProbe) WindowStall(at des.Time)                           { p.windowStalls++ }
func (p *wallProbe) SpecLaunched(shard int, at des.Time, lag des.Time) {}
func (p *wallProbe) SpecRolledBack(shard int, at des.Time, waitNs int64) {
	p.rollbackWaitNs += waitNs
}

// minRounds is the fewest untraced/traced pairs the traced pass compares.
const minRounds = 2

// tracedPass yields the per-layer metrics. After a warm-up it alternates
// untraced and traced repetitions of the workload (and of its reference
// workload, when it has one, for the cross-workload overhead ratios), so
// the tracing overhead is an in-process ratio; it never feeds the
// end-to-end numbers. Whatever time is left goes to the layer probes.
func tracedPass(wl workload, seed int64, smoke bool, workers int, budget time.Duration, reps int) (*workloadResult, error) {
	start := time.Now()
	res, err := begin(wl, seed, smoke, workers)
	if err != nil {
		return nil, err
	}
	sp := res.Config
	var refSpec *spec
	if wl.Ref != "" {
		ref, _ := findWorkload(wl.Ref)
		s := ref.spec(seed, smoke)
		refSpec = &s
	}

	rounds := minRounds
	if reps > 0 {
		rounds = reps
	}
	in := &instruments{cpu: map[string]float64{}}
	var refWall, baseWall, tracedWall, mallocs []float64
	var traced outcome
	pl := map[string]float64{}
	for _, m := range perLayer {
		pl[m.Name] = 0 // a layer the workload does not use reports 0, not nothing
	}
	// rep runs one repetition and files its wall time. A traced repetition
	// also leaves its counters in pl: reading them here, rather than
	// keeping the finished world, holds the memory high-water mark at one
	// world, which matters where first-touched pages are slow.
	rep := func(s spec, in *instruments, walls *[]float64) {
		smp, w, out, ok := res.rep(s, workers, in)
		if !ok {
			return
		}
		*walls = append(*walls, smp.WallS)
		if in != nil {
			traced = out
			mallocs = append(mallocs, smp.MallocsM*1e6)
			boundaryCounters(w, out, pl)
		}
	}
	for r := 0; ; r++ {
		// Past the minimum, another round runs only while, at the pace so
		// far, it still leaves 40% of the budget to the layer probes.
		if r >= rounds && (reps > 0 || time.Since(start)/time.Duration(r)*time.Duration(r+1) > budget*6/10) {
			break
		}
		if refSpec != nil {
			rep(*refSpec, nil, &refWall)
		}
		// Alternate which of the pair follows the reference's smaller heap.
		if r%2 == 0 {
			rep(sp, nil, &baseWall)
			rep(sp, in, &tracedWall)
		} else {
			rep(sp, in, &tracedWall)
			rep(sp, nil, &baseWall)
		}
	}
	if in.err != nil {
		return nil, fmt.Errorf("cpu profile: %w", in.err)
	}
	if len(tracedWall) == 0 || len(baseWall) == 0 {
		return nil, fmt.Errorf("no pair of untraced and traced repetitions succeeded")
	}
	res.Events = traced.Events

	var total float64
	for _, ns := range in.cpu {
		total += ns
	}
	for _, l := range cpuLayers {
		if total > 0 {
			pl[l+".cpu_share"] = in.cpu[l] / total
		}
	}
	if p := in.probe; p != nil {
		layer := "parsim"
		if sp.Backend == "optimistic" {
			layer = "optsim"
		}
		pl[layer+".phase_wall_s"] = float64(p.phaseWallNs) / 1e9
		pl[layer+".stall_s"] = float64(p.stallNs) / 1e9
		pl["parsim.window_stalls"] = float64(p.windowStalls)
		pl["optsim.rollback_wait_s"] = float64(p.rollbackWaitNs) / 1e9
	}

	base := median(baseWall)
	events := float64(traced.Events)
	pl["sim.virtual_time"] = traced.Virtual
	pl["des.ns_per_event"] = base * 1e9 / events
	if sp.App == "stencil" {
		pl["apps.stencil_ns_per_point"] = base * 1e9 / (float64(sp.GridN) * float64(sp.GridN) * float64(sp.Iters))
	}
	pl["go_runtime.allocs_per_event"] = median(mallocs) / events
	if len(refWall) > 0 {
		pl[wl.RefLayer+".overhead_x"] = base / median(refWall)
	}
	pl["bench.trace_overhead_x"] = median(tracedWall) / base

	left := budget - time.Since(start)
	if err := layerProbes(pl, seed, smoke, workers, left); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	res.PerLayer = pl
	return res, nil
}

// boundaryCounters reads the public counters of a finished world.
func boundaryCounters(w *world, out outcome, pl map[string]float64) {
	st := w.rt.Stats
	pl["des.events"] = float64(out.Events)
	pl["charm.msgs_sent"] = float64(st.MsgsSent)
	pl["charm.bytes_sent"] = float64(st.BytesSent)
	pl["charm.msgs_forwarded"] = float64(st.MsgsForwarded)
	if st.MsgsSent > 0 {
		pl["charm.forward_ratio"] = float64(st.MsgsForwarded) / float64(st.MsgsSent)
	}
	pl["charm.migrations"] = float64(st.Migrations)
	pl["charm.lb_rounds"] = float64(w.rt.LBRounds())

	// The engines publish their scheduling counters as gauges in the
	// runtime's metrics registry; reading them there keeps this driver off
	// the engines' concrete types.
	g := map[string]float64{}
	for _, s := range w.rt.Metrics().Snapshot() {
		g[s.Name] = s.Value
	}
	pl["parsim.launched"] = g["parsim.phases_launched"]
	pl["parsim.inline"] = g["parsim.phases_inline"]
	if n := g["parsim.phases_launched"] + g["parsim.phases_inline"] + g["parsim.global_events"]; n > 0 {
		pl["parsim.parallel_fraction"] = g["parsim.phases_launched"] / n
	}
	pl["parsim.max_in_flight"] = g["parsim.max_in_flight"]
	pl["optsim.launched"] = g["optsim.spec_launched"]
	pl["optsim.rolled_back"] = g["optsim.spec_rolled_back"]
	pl["optsim.rollback_ratio"] = g["optsim.rollback_ratio"]
	pl["optsim.wasted_fraction"] = g["optsim.wasted_work_fraction"]
	pl["optsim.max_in_flight"] = g["optsim.max_in_flight"]

	saves := w.rt.SpecSaveStats()
	pl["charm.spec_snapshots"] = float64(saves.Snapshots)
	pl["charm.spec_snapshot_mb"] = float64(saves.SnapshotBytes) / mb
	pl["charm.spec_replays"] = float64(saves.Replays)
	if w.tracer != nil {
		pl["projections.recorded"] = float64(w.tracer.Recorded())
		pl["projections.dropped"] = float64(w.tracer.Dropped())
	}
}
