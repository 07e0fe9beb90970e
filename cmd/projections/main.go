// Command projections traces a mini-app run and renders Projections-style
// analyses: the per-entry usage profile, message-latency histogram,
// critical path, and phase-parallelism timeline, with optional Chrome
// trace-event (Perfetto) and raw event-log exports.
//
// Modes:
//
//	projections -app leanmd -perfetto out.json     trace a run, export
//	projections -in run.log                        analyze a saved log
//
// It exits 2 on a usage error, before running anything, and 1 when a run
// or a file fails.
package main

import (
	"errors"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// apps are the runs -app names, each scaled by -scale. The two default runs'
// logs are pinned by internal/projections' TestLogPinCrossBackend.
var apps = map[string]func(rt *charm.Runtime, scale int) error{
	"leanmd": func(rt *charm.Runtime, scale int) error {
		_, err := leanmd.Run(rt, leanmd.Config{
			CellsX: 3 * scale, CellsY: 3, CellsZ: 3,
			AtomsPerCell: 20, Steps: 8, Seed: 42,
			LBPeriod: 3, Gaussian: 0.35,
		})
		return err
	},
	"pdes": func(rt *charm.Runtime, scale int) error {
		_, err := pdes.Run(rt, pdes.Config{
			LPs: 64 * scale, EventsPerLP: 8, TargetEvents: 4000 * scale,
			Seed: 42, UseTram: true, LBPeriodWindows: 4,
		})
		return err
	},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("projections", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "leanmd", "app to trace: leanmd, pdes")
	pes := fs.Int("pes", 16, "processing elements")
	backend := fs.String("backend", "sequential", "engine backend: "+machine.BackendNames())
	scale := fs.Int("scale", 1, "problem-size multiplier")
	top := fs.Int("top", 10, "profile rows to print")
	perfetto := fs.String("perfetto", "", "write Chrome trace-event JSON here (load at ui.perfetto.dev)")
	logOut := fs.String("log", "", "write the raw event log (JSON lines) here")
	in := fs.String("in", "", "analyze a saved event log instead of running an app")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	_, err := machine.ParseBackend(*backend)
	switch {
	case err != nil:
	case apps[*app] == nil:
		err = fmt.Errorf("unknown app %q (want leanmd or pdes)", *app)
	case *pes < 1:
		err = fmt.Errorf("-pes %d out of range (want >= 1)", *pes)
	case *scale < 1:
		err = fmt.Errorf("-scale %d out of range (want >= 1)", *scale)
	case *top < 1:
		err = fmt.Errorf("-top %d out of range (want >= 1)", *top)
	}
	if err != nil {
		fmt.Fprintln(stderr, "projections:", err)
		return 2
	}

	if *in != "" {
		err = analyzeFile(stdout, *in, *top, *perfetto)
	} else {
		err = traceRun(stdout, *app, *pes, *backend, *scale, *top, *perfetto, *logOut)
	}
	if err != nil {
		fmt.Fprintln(stderr, "projections:", err)
		return 1
	}
	return 0
}

func traceRun(stdout io.Writer, app string, pes int, backend string, scale, top int, perfetto, logOut string) error {
	mcfg := machine.Testbed(pes)
	mcfg.Backend = backend
	rt := charm.New(machine.New(mcfg))
	tr := projections.Attach(rt, projections.Options{EngineEvents: true})
	rt.SetBalancer(lb.Greedy{})
	if err := apps[app](rt, scale); err != nil {
		return err
	}
	if err := tr.WriteSummary(stdout, top); err != nil {
		return err
	}
	writeSpecSummary(stdout, rt)
	events, names := tr.Events(), tr.Names()
	if perfetto != "" {
		if err := writeTo(perfetto, func(w io.Writer) error { return projections.WritePerfetto(w, events, names) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nperfetto trace: %d events to %s\n", len(events), perfetto)
	}
	if logOut != "" {
		if err := writeTo(logOut, func(w io.Writer) error { return projections.WriteLog(w, events, names) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "event log: %d events to %s\n", len(events), logOut)
	}
	return nil
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
	fmt.Fprintf(w, "  snap interval K=%.0f\n", vals["optsim.snap_interval"])
}

func analyzeFile(stdout io.Writer, path string, top int, perfetto string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, names, err := projections.ReadLog(f)
	if err != nil {
		return err
	}
	if err := projections.WriteSummaryEvents(stdout, events, names, top); err != nil {
		return err
	}
	if perfetto != "" {
		if err := writeTo(perfetto, func(w io.Writer) error { return projections.WritePerfetto(w, events, names) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nperfetto trace: %d events to %s\n", len(events), perfetto)
	}
	return nil
}

func writeTo(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
