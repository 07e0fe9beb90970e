// Command projections traces a mini-app run and renders Projections-style
// analyses: the per-entry usage profile, message-latency histogram,
// critical path, and phase-parallelism timeline, with optional Chrome
// trace-event (Perfetto) and raw event-log exports.
//
// Modes:
//
//	projections -app leanmd -perfetto out.json     trace a run, export
//	projections -in run.log                        analyze a saved log
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pdes"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/projections"
)

func main() {
	app := flag.String("app", "leanmd", "app to trace: leanmd, pdes")
	pes := flag.Int("pes", 16, "processing elements")
	backend := flag.String("backend", "sequential", "engine backend: "+machine.BackendNames())
	scale := flag.Int("scale", 1, "problem-size multiplier")
	top := flag.Int("top", 10, "profile rows to print")
	perfetto := flag.String("perfetto", "", "write Chrome trace-event JSON here (load at ui.perfetto.dev)")
	logOut := flag.String("log", "", "write the raw event log (JSON lines) here")
	in := flag.String("in", "", "analyze a saved event log instead of running an app")
	flag.Parse()
	if _, err := machine.ParseBackend(*backend); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *in != "" {
		analyzeFile(*in, *top, *perfetto)
	} else {
		traceRun(*app, *pes, *backend, *scale, *top, *perfetto, *logOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// runApp executes the selected app, traced, on a fresh runtime. The two
// default runs' logs are pinned by internal/projections' TestLogPinCrossBackend.
func runApp(app string, pes, scale int, backend string) (*charm.Runtime, *projections.Tracer) {
	mcfg := machine.Testbed(pes)
	mcfg.Backend = backend
	rt := charm.New(machine.New(mcfg))
	tr := projections.Attach(rt, projections.Options{EngineEvents: true})
	rt.SetBalancer(lb.Greedy{})
	switch app {
	case "leanmd":
		cfg := leanmd.Config{
			CellsX: 3 * scale, CellsY: 3, CellsZ: 3,
			AtomsPerCell: 20, Steps: 8, Seed: 42,
			LBPeriod: 3, Gaussian: 0.35,
		}
		if _, err := leanmd.Run(rt, cfg); err != nil {
			fatal(err)
		}
	case "pdes":
		cfg := pdes.Config{
			LPs: 64 * scale, EventsPerLP: 8, TargetEvents: 4000 * scale,
			Seed: 42, UseTram: true, LBPeriodWindows: 4,
		}
		if _, err := pdes.Run(rt, cfg); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q (want leanmd or pdes)\n", app)
		os.Exit(2)
	}
	return rt, tr
}

func traceRun(app string, pes int, backend string, scale, top int, perfetto, logOut string) {
	rt, tr := runApp(app, pes, scale, backend)
	if err := tr.WriteSummary(os.Stdout, top); err != nil {
		fatal(err)
	}
	writeSpecSummary(os.Stdout, rt)
	events := tr.Events()
	if perfetto != "" {
		writeTo(perfetto, func(f *os.File) error { return projections.WritePerfetto(f, events) })
		fmt.Printf("\nperfetto trace: %d events to %s\n", len(events), perfetto)
	}
	if logOut != "" {
		writeTo(logOut, func(f *os.File) error { return projections.WriteLog(f, events) })
		fmt.Printf("event log: %d events to %s\n", len(events), logOut)
	}
}

// writeSpecSummary appends the Time Warp section to the text summary: the
// optsim.* gauges the optimistic engine and the runtime's snapshot
// controller export into the metric registry at run end. Self-suppressing
// on backends that never speculate (the gauges are absent or zero).
func writeSpecSummary(w io.Writer, rt *charm.Runtime) {
	vals := map[string]float64{}
	for _, s := range rt.Metrics().Snapshot() {
		vals[s.Name] = s.Value
	}
	if vals["optsim.spec_launched"] == 0 && vals["optsim.spec_rolled_back"] == 0 &&
		vals["optsim.inline_events"] == 0 {
		return
	}
	fmt.Fprintf(w, "\n== Speculation (Time Warp) ==\n")
	fmt.Fprintf(w, "  launched %.0f  committed %.0f  rolled back %.0f  inline %.0f\n",
		vals["optsim.spec_launched"], vals["optsim.spec_committed"],
		vals["optsim.spec_rolled_back"], vals["optsim.inline_events"])
	fmt.Fprintf(w, "  rollback ratio %.4f  wasted work %.1f%%  max in flight %.0f\n",
		vals["optsim.rollback_ratio"], 100*vals["optsim.wasted_work_fraction"],
		vals["optsim.max_in_flight"])
	fmt.Fprintf(w, "  max GVT lag %.3g vs  snapshots %.0f (%.1f KB, %.0f restored)\n",
		vals["optsim.max_gvt_lag"], vals["optsim.snapshots"],
		vals["optsim.snapshot_bytes"]/1024, vals["optsim.snapshot_restores"])
	fmt.Fprintf(w, "  snapshots avoided %.0f  replayed deliveries %.0f  saves retired %.0f, invalidated %.0f\n",
		vals["optsim.snapshots_avoided"], vals["optsim.replays"],
		vals["optsim.save_retired"], vals["optsim.save_invalidations"])
	fmt.Fprintf(w, "  snap interval K=%.0f  optimism window %.3g vs\n",
		vals["optsim.snap_interval"], vals["optsim.window"])
}

func analyzeFile(path string, top int, perfetto string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	events, err := projections.ReadLog(f)
	if err != nil {
		fatal(err)
	}
	if err := projections.WriteSummaryEvents(os.Stdout, events, top); err != nil {
		fatal(err)
	}
	if perfetto != "" {
		writeTo(perfetto, func(f *os.File) error { return projections.WritePerfetto(f, events) })
		fmt.Printf("\nperfetto trace: %d events to %s\n", len(events), perfetto)
	}
}

func writeTo(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := fn(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}
