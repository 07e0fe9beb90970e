// Command leanmd runs the LeanMD molecular-dynamics mini-app on a chosen
// virtual machine, optionally with load balancing, in-memory
// checkpointing, a simulated PE failure, or a mid-run shrink/expand.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/malleable"
	"charmgo/internal/projections"
	"charmgo/internal/telemetry"

	"charmgo/internal/apps/leanmd"
)

func main() {
	pes := flag.Int("pes", 64, "processing elements")
	cells := flag.Int("cells", 6, "cells per dimension")
	atoms := flag.Int("atoms", 27, "atoms per cell (capped at the safe density)")
	steps := flag.Int("steps", 20, "simulation steps")
	gaussian := flag.Float64("gaussian", 0, "atom concentration (0 = uniform)")
	balancer := flag.String("lb", "", "load balancer: greedy, refine, hybrid, distributed, orb")
	lbPeriod := flag.Int("lb-period", 5, "AtSync period in steps")
	memCkpt := flag.Int("ckpt-step", 0, "take an in-memory checkpoint at this step (0 = off)")
	failStep := flag.Int("fail-step", 0, "kill PE 1 at this step and recover (0 = off)")
	shrinkTo := flag.Int("shrink-to", 0, "shrink to this PE count at the midpoint (0 = off)")
	mach := flag.String("machine", "vesta", "machine: vesta, bluewaters, stampede, hopper, cloud")
	multicast := flag.Bool("multicast", false, "send cell positions via section multicast")
	traceOut := flag.String("trace", "", "write a utilization trace (JSON) to this file")
	perfetto := flag.String("perfetto", "", "record an event trace and write Chrome trace-event JSON here")
	eventsOut := flag.String("events", "", "record an event trace and write the raw event log here")
	profile := flag.Bool("profile", false, "record an event trace and print the projections summary")
	telemetryAddr := flag.String("telemetry", "", "serve live introspection (/status, /metrics, /events, pprof) on this address, e.g. :8080")
	flag.Parse()

	rt := charm.New(machine.New(pickMachine(*mach, *pes)))
	if *telemetryAddr != "" {
		tel := telemetry.Attach(rt, telemetry.Options{})
		defer tel.DumpOnPanic()
		srv, err := telemetry.Serve(*telemetryAddr, tel)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s\n", srv.Addr())
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
	if s := pickStrategy(*balancer); s != nil {
		rt.SetBalancer(s)
		cfg.LBPeriod = *lbPeriod
	}
	var mem *ckpt.Mem
	mgr := malleable.NewManager(rt)
	cfg.StepHook = func(step int) {
		if *memCkpt > 0 && step == *memCkpt {
			mem = ckpt.NewMem(rt)
			d := mem.Checkpoint()
			fmt.Printf("step %d: in-memory checkpoint took %.1f ms (virtual)\n", step, float64(d)*1e3)
		}
		if *failStep > 0 && step == *failStep {
			if mem == nil {
				fmt.Fprintln(os.Stderr, "fail-step needs an earlier ckpt-step")
				os.Exit(2)
			}
			d, err := mem.FailAndRecover(1)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("step %d: PE 1 failed; recovery took %.1f ms (virtual)\n", step, float64(d)*1e3)
		}
		if *shrinkTo > 0 && step == *steps/2 {
			if err := mgr.Reconfigure(*shrinkTo); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("step %d: shrunk to %d PEs\n", step, *shrinkTo)
		}
	}

	res, err := leanmd.Run(rt, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ts := res.StepTimes()
	fmt.Printf("atoms=%d steps=%d PEs=%d machine=%s\n", res.Atoms, len(ts), rt.NumPEs(), *mach)
	for i, t := range ts {
		fmt.Printf("step %3d  %.4f s  energy %.3f\n", i, t, res.Energy[i])
	}
	fmt.Printf("total virtual time: %.4f s; migrations: %d; LB rounds: %d\n",
		float64(res.Elapsed), rt.Stats.Migrations, rt.LBRounds())
	if events != nil {
		if *profile {
			fmt.Println()
			if err := events.WriteSummary(os.Stdout, 10); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		writeEvents := func(path string, fn func(io.Writer) error, what string) {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if err := fn(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("%s: %d events to %s\n", what, events.Recorded(), path)
		}
		if *traceOut != "" {
			writeEvents(*traceOut, events.Utilization(1e-4).WriteJSON, "utilization trace")
		}
		if *perfetto != "" {
			writeEvents(*perfetto, func(w io.Writer) error {
				return projections.WritePerfetto(w, events.Events(), events.Names())
			}, "perfetto trace")
		}
		if *eventsOut != "" {
			writeEvents(*eventsOut, func(w io.Writer) error {
				return projections.WriteLog(w, events.Events(), events.Names())
			}, "event log")
		}
	}
}

func pickMachine(name string, pes int) machine.Config {
	switch name {
	case "vesta":
		return machine.Vesta(pes)
	case "bluewaters":
		return machine.BlueWaters(pes)
	case "stampede":
		return machine.Stampede(pes)
	case "hopper":
		return machine.Hopper(pes)
	case "cloud":
		return machine.Cloud(pes)
	}
	fmt.Fprintf(os.Stderr, "unknown machine %q\n", name)
	os.Exit(2)
	return machine.Config{}
}

func pickStrategy(name string) charm.Strategy {
	switch name {
	case "":
		return nil
	case "greedy":
		return lb.Greedy{}
	case "refine":
		return lb.Refine{}
	case "hybrid":
		return lb.Hybrid{}
	case "distributed":
		return lb.Distributed{Seed: 1}
	case "orb":
		return lb.ORB{}
	}
	fmt.Fprintf(os.Stderr, "unknown balancer %q\n", name)
	os.Exit(2)
	return nil
}
