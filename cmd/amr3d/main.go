// Command amr3d runs the AMR3D adaptive-mesh advection mini-app: an
// oct-tree of blocks refining around a moving pulse, with optional
// distributed load balancing and checkpointing.
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
	"charmgo/internal/lb"
	"charmgo/internal/machine"

	"charmgo/internal/apps/amr"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amr3d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pes := fs.Int("pes", 64, "processing elements")
	minD := fs.Int("min-depth", 2, "minimum oct-tree depth")
	maxD := fs.Int("max-depth", 5, "maximum oct-tree depth")
	startD := fs.Int("start-depth", 3, "initial uniform depth")
	blockSize := fs.Int("block", 8, "cells per block edge")
	steps := fs.Int("steps", 24, "advection steps")
	remesh := fs.Int("remesh", 4, "remesh period (0 = static mesh)")
	balance := fs.Bool("lb", true, "distributed load balancing after each remesh")
	ckptPath := fs.String("ckpt", "", "write a disk checkpoint here at the end")
	restart := fs.String("restart", "", "+restart: resume from this checkpoint file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{{"pes", *pes, 1}, {"block", *blockSize, 1}, {"steps", *steps, 1}, {"remesh", *remesh, 0}} {
		if f.v < f.min {
			fmt.Fprintf(stderr, "amr3d: -%s %d out of range (want >= %d)\n", f.name, f.v, f.min)
			return 2
		}
	}

	rt := charm.New(machine.New(machine.Vesta(*pes)))
	if *balance {
		rt.SetBalancer(lb.Distributed{Seed: 2})
	}
	cfg := amr.Config{
		MinDepth: *minD, MaxDepth: *maxD, StartDepth: *startD,
		BlockSize: *blockSize, Steps: *steps, RemeshPeriod: *remesh,
		Rebalance: *balance,
	}
	var app *amr.App
	var err error
	if *restart != "" {
		snap, lerr := ckpt.Load(*restart)
		if lerr != nil {
			fmt.Fprintln(stderr, lerr)
			return 1
		}
		app, err = amr.RestoreInto(rt, cfg, snap)
		if err == nil {
			fmt.Fprintf(stdout, "restarted %d blocks from %s (originally %d PEs) on %d PEs\n",
				app.Blocks().Len(), *restart, snap.NumPEs, rt.NumPEs())
		}
	} else {
		app, err = amr.New(rt, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	res, err := app.Run()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ts := res.StepTimes()
	for i := range ts {
		fmt.Fprintf(stdout, "step %3d  %.5f s  blocks %5d  mass %.6f\n", i, ts[i], res.Blocks[i], res.Mass[i])
	}
	fmt.Fprintf(stdout, "remeshes: %d; migrations: %d; total virtual time %.4f s\n",
		res.Remeshes, rt.Stats.Migrations, float64(res.Elapsed))

	if *ckptPath != "" {
		snap := ckpt.Capture(rt)
		if err := snap.Save(*ckptPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		tm := ckpt.DefaultModel(rt.NumPEs())
		fmt.Fprintf(stdout, "checkpoint: %d bytes to %s (modeled %.1f ms on %d PEs)\n",
			snap.TotalBytes(), *ckptPath,
			float64(ckpt.DiskCheckpointTime(snap, rt.NumPEs(), tm))*1e3, rt.NumPEs())
	}
	return 0
}
