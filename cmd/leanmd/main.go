// Command leanmd runs the LeanMD molecular-dynamics mini-app on a chosen
// virtual machine, optionally with load balancing, in-memory
// checkpointing, a simulated PE failure, or a mid-run shrink/expand.
//
// It exits 2 on a usage error, before running anything, and 1 when the run
// or a file fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/des"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/malleable"
	"charmgo/internal/projections"
	"charmgo/internal/telemetry"

	"charmgo/internal/apps/leanmd"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in: it returns 2 on a
// usage error, before running anything, and 1 when the run or a file fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leanmd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pes := fs.Int("pes", 64, "processing elements")
	cells := fs.Int("cells", 6, "cells per dimension")
	atoms := fs.Int("atoms", 27, "atoms per cell (capped at the safe density)")
	steps := fs.Int("steps", 20, "simulation steps")
	gaussian := fs.Float64("gaussian", 0, "atom concentration (0 = uniform)")
	balancer := fs.String("lb", "", "load balancer: greedy, refine, hybrid, distributed, orb")
	lbPeriod := fs.Int("lb-period", 5, "AtSync period in steps")
	memCkpt := fs.Int("ckpt-step", 0, "take an in-memory checkpoint at this load-balancing step (0 = off)")
	failStep := fs.Int("fail-step", 0, "kill PE 1 after this step and recover from the checkpoint (0 = off)")
	shrinkTo := fs.Int("shrink-to", 0, "shrink to this PE count at the midpoint (0 = off)")
	mach := fs.String("machine", "vesta", "machine: vesta, bluewaters, stampede, hopper, cloud")
	multicast := fs.Bool("multicast", false, "send cell positions via section multicast")
	traceOut := fs.String("trace", "", "write a utilization trace (JSON) to this file")
	perfetto := fs.String("perfetto", "", "record an event trace and write Chrome trace-event JSON here")
	eventsOut := fs.String("events", "", "record an event trace and write the raw event log here")
	profile := fs.Bool("profile", false, "record an event trace and print the projections summary")
	telemetryAddr := fs.String("telemetry", "", "serve live introspection (/status, /metrics, /events, pprof) on this address, e.g. :8080")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{{"pes", *pes, 1}, {"cells", *cells, 3}, {"atoms", *atoms, 1}, {"steps", *steps, 1}, {"lb-period", *lbPeriod, 1},
		{"ckpt-step", *memCkpt, 0}, {"fail-step", *failStep, 0}, {"shrink-to", *shrinkTo, 0}} {
		if f.v < f.min {
			fmt.Fprintf(stderr, "leanmd: -%s %d out of range (want >= %d)\n", f.name, f.v, f.min)
			return 2
		}
	}
	newMachine := machines[*mach]
	strategy, knownLB := strategies[*balancer]
	var err error
	switch {
	case newMachine == nil:
		err = fmt.Errorf("unknown machine %q", *mach)
	case !knownLB:
		err = fmt.Errorf("unknown balancer %q", *balancer)
	case *failStep > 0 && (*memCkpt == 0 || *memCkpt >= *failStep):
		err = fmt.Errorf("-fail-step %d needs a -ckpt-step before it", *failStep)
	case *failStep > 0 && *pes < 2:
		err = errors.New("-fail-step fails PE 1, so it needs -pes >= 2")
	case *failStep > 0 && *shrinkTo > 0:
		err = errors.New("-fail-step and -shrink-to do not combine: a reconfiguration invalidates the checkpoint")
	case *memCkpt > 0 && (strategy == nil || *memCkpt%*lbPeriod != 0):
		// The load-balancing resume is the quiescent cut a checkpoint needs.
		err = fmt.Errorf("-ckpt-step %d is not a load-balancing step (needs -lb and a multiple of -lb-period %d)", *memCkpt, *lbPeriod)
	}
	if err != nil {
		fmt.Fprintln(stderr, "leanmd:", err)
		return 2
	}

	rt := charm.New(machine.New(newMachine(*pes)))
	if *telemetryAddr != "" {
		tel := telemetry.Attach(rt, telemetry.Options{})
		defer tel.DumpOnPanic()
		srv, err := telemetry.Serve(*telemetryAddr, tel)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "telemetry: http://%s\n", srv.Addr())
	}
	cfg := leanmd.Config{
		CellsX: *cells, CellsY: *cells, CellsZ: *cells,
		AtomsPerCell: *atoms, Gaussian: *gaussian, Steps: *steps, Seed: 1,
		UseMulticast: *multicast,
	}
	var events *projections.Tracer
	if engine := *perfetto != "" || *eventsOut != "" || *profile; engine || *traceOut != "" {
		events = projections.Attach(rt, projections.Options{EngineEvents: engine})
	}
	if strategy != nil {
		rt.SetBalancer(strategy)
		cfg.LBPeriod = *lbPeriod
	}
	mgr := malleable.NewManager(rt)
	ft := &recovery{rt: rt, stdout: stdout}
	// StepHook cannot return an error: keep them and report them after the
	// run.
	var hookErr error
	cfg.StepHook = func(step int) {
		// Once only: the replay after the rollback reaches the step again.
		if *failStep > 0 && step == *failStep && !ft.failed {
			ft.failed = true
			// A crash lands in a global event (charm.Runtime.CrashPE).
			rt.Engine().At(rt.Now(), func() {
				if err := ft.failAndRecover(step); err != nil {
					hookErr = errors.Join(hookErr, err)
					rt.Engine().Stop()
				}
			})
		}
		if *shrinkTo > 0 && step == *steps/2 {
			if err := mgr.Reconfigure(*shrinkTo); err != nil {
				hookErr = errors.Join(hookErr, err)
				return
			}
			fmt.Fprintf(stdout, "step %d: shrunk to %d PEs\n", step, *shrinkTo)
		}
	}

	app, err := leanmd.New(rt, cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ft.app = app
	if *memCkpt > 0 {
		ft.mem = ckpt.NewMem(rt)
		rt.SetLBResumeHook(func(int) des.Time {
			if app.Steps() != *memCkpt {
				return 0
			}
			return ft.checkpoint()
		})
	}
	res, err := app.Run()
	if err = errors.Join(err, hookErr); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ts := res.StepTimes()
	fmt.Fprintf(stdout, "atoms=%d steps=%d PEs=%d machine=%s\n", res.Atoms, len(ts), rt.NumPEs(), *mach)
	for i, t := range ts {
		fmt.Fprintf(stdout, "step %3d  %.4f s  energy %.3f\n", i, t, res.Energy[i])
	}
	fmt.Fprintf(stdout, "total virtual time: %.4f s; migrations: %d; LB rounds: %d\n",
		float64(res.Elapsed), rt.Stats.Migrations, rt.LBRounds())
	if events == nil {
		return 0
	}
	if *profile {
		fmt.Fprintln(stdout)
		if err := events.WriteSummary(stdout, 10); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	for _, out := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{*traceOut, "utilization trace", func(w io.Writer) error { return events.Utilization(1e-4).WriteJSON(w) }},
		{*perfetto, "perfetto trace", func(w io.Writer) error { return projections.WritePerfetto(w, events.Events(), events.Names()) }},
		{*eventsOut, "event log", func(w io.Writer) error { return projections.WriteLog(w, events.Events(), events.Names()) }},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %d events to %s\n", out.what, events.Recorded(), out.path)
	}
	return 0
}

// recovery is this command's half of the in-memory checkpoint scheme: a
// checkpoint at a load-balancing resume (a quiescent cut), paired with the
// step count and location caches of that cut, and a rollback to it when PE 1
// fails.
type recovery struct {
	rt     *charm.Runtime
	app    *leanmd.App
	stdout io.Writer
	mem    *ckpt.Mem
	locs   *charm.LocCacheSnapshot
	steps  int // steps completed at the cut
	failed bool
}

// checkpoint takes the checkpoint and returns its modeled duration, for
// which the resume stalls every PE.
func (r *recovery) checkpoint() des.Time {
	d := r.mem.Checkpoint()
	r.locs = r.rt.SnapshotLocCaches(r.locs)
	r.steps = r.app.Steps()
	fmt.Fprintf(r.stdout, "step %d: in-memory checkpoint took %.1f ms (virtual)\n", r.steps, float64(d)*1e3)
	return d
}

// failAndRecover kills PE 1 and rolls every element, the location caches
// and the step count back to the checkpoint, then replays the cut's resume
// once the modeled restart has passed. It runs in a global event.
func (r *recovery) failAndRecover(step int) error {
	rt := r.rt
	rt.CrashPE(1)
	r.mem.NoteFailure(1)
	rt.RecoverReset()
	d, err := r.mem.FailAndRecover(1)
	if err != nil {
		return err
	}
	rt.RestoreLocCaches(r.locs)
	r.app.TruncateResult(r.steps)
	kick := rt.MaxBusy() + d
	rt.StallActivePEs(kick)
	rt.Engine().At(kick, rt.ResumeRestoredElements)
	fmt.Fprintf(r.stdout, "step %d: PE 1 failed; recovery took %.1f ms (virtual)\n", step, float64(d)*1e3)
	return nil
}

// writeFile creates path and writes it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}

// machines and strategies are the -machine and -lb names.
var (
	machines = map[string]func(pes int) machine.Config{
		"vesta": machine.Vesta, "bluewaters": machine.BlueWaters, "stampede": machine.Stampede,
		"hopper": machine.Hopper, "cloud": machine.Cloud,
	}
	strategies = map[string]charm.Strategy{
		"": nil, "greedy": lb.Greedy{}, "refine": lb.Refine{}, "hybrid": lb.Hybrid{},
		"distributed": lb.Distributed{Seed: 1}, "orb": lb.ORB{},
	}
)
