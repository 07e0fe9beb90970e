// Command ckptinfo inspects a checkpoint file written by the disk
// checkpoint layer (Snapshot.Save / cmd/amr3d -ckpt / ccsjob's ckpt
// handler): the job-level metadata, per-array element counts and sizes,
// and optionally the per-PE data distribution at capture time.
//
// With -buddies it prints the in-memory scheme's replica map at degree -R
// (default 1, the classic buddy ring) — each PE's holder set, the bytes it
// keeps resident for others, and the bytes streamed back if it fails —
// plus a degree-sweep table of the R-vs-memory tradeoff; with
// -plan <file> it reads a chaos fault plan (a "plan" object of cmd/chaos's
// report — internal/chaos/testdata/campaign.json holds three — or a
// hand-written one) and prints the blast radius of every planned crash —
// which PE dies, who can restore it, how many of its holders are themselves
// under fire elsewhere in the plan, and how many checkpoint bytes that
// restore streams — so an operator can judge a campaign (and pick a
// replication degree) before running it.
//
// It exits 2 on a usage error, before reading anything, and 1 when a file
// cannot be read or does not fit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"charmgo/internal/chaos"
	"charmgo/internal/ckpt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ckptinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	perPE := fs.Bool("pe", false, "show the per-PE byte distribution")
	buddies := fs.Bool("buddies", false, "show the in-memory checkpoint replica map and restore volumes")
	degree := fs.Int("R", 1, "replication degree for -buddies and -plan views")
	planFile := fs.String("plan", "", "chaos plan JSON: show each planned crash's blast radius")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ckptinfo [-pe] [-buddies] [-R degree] [-plan plan.json] <checkpoint-file>")
		return 2
	}
	if *degree < 1 {
		fmt.Fprintf(stderr, "ckptinfo: -R %d out of range (want >= 1)\n", *degree)
		return 2
	}
	snap, err := ckpt.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "checkpoint of a %d-PE run taken at t=%.4fs (virtual)\n", snap.NumPEs, snap.TakenAt)
	fmt.Fprintf(stdout, "total payload: %d bytes across %d arrays\n\n", snap.TotalBytes(), len(snap.Arrays))

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "array\telements\tbytes\tavg_bytes/elem")
	for _, a := range snap.Arrays {
		var bytes int
		for _, e := range a.Elems {
			bytes += len(e.Data)
		}
		avg := 0
		if len(a.Elems) > 0 {
			avg = bytes / len(a.Elems)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", a.Name, len(a.Elems), bytes, avg)
	}
	tw.Flush()

	if *buddies || *planFile != "" {
		per := snap.PerPEBytes(snap.NumPEs)
		if *buddies {
			// Resident bytes per PE at the chosen degree: own shard plus
			// every shard held for a ring predecessor.
			resident := make([]int64, snap.NumPEs)
			for pe := 0; pe < snap.NumPEs; pe++ {
				resident[pe] += per[pe]
				for _, h := range ckpt.ReplicasOf(pe, snap.NumPEs, *degree) {
					resident[h] += per[pe]
				}
			}
			fmt.Fprintf(stdout, "\nin-memory replica map at degree R=%d\n", *degree)
			tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "PE\tholders\tbytes_resident\tbytes_restored_on_failure")
			for pe := 0; pe < snap.NumPEs; pe++ {
				fmt.Fprintf(tw, "%d\t%v\t%d\t%d\n",
					pe, ckpt.ReplicasOf(pe, snap.NumPEs, *degree), resident[pe], per[pe])
			}
			tw.Flush()

			// The R-vs-memory tradeoff: what raising the degree costs in
			// resident bytes and checkpoint time, and what it buys — the
			// number of simultaneous failures every PE provably survives.
			tm := ckpt.DefaultModel(snap.NumPEs)
			fmt.Fprintln(stdout, "\ndegree sweep (survives = simultaneous ring-neighbor failures tolerated):")
			tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "R\tworst_pe_bytes\ttotal_bytes\tckpt_time_s\tsurvives")
			for r := 1; r <= 3; r++ {
				worst, total := ckpt.ReplicaMemoryBytes(snap, snap.NumPEs, r)
				fmt.Fprintf(tw, "%d\t%d\t%d\t%.6f\t%d\n",
					r, worst, total, float64(ckpt.MemCheckpointTime(snap, snap.NumPEs, r, tm)), r)
			}
			tw.Flush()
		}
		if *planFile != "" {
			data, err := os.ReadFile(*planFile)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			var plan chaos.Plan
			if err := json.Unmarshal(data, &plan); err != nil {
				fmt.Fprintf(stderr, "ckptinfo: parsing %s: %v\n", *planFile, err)
				return 1
			}
			if err := plan.Validate(snap.NumPEs); err != nil {
				fmt.Fprintf(stderr, "ckptinfo: plan does not fit this %d-PE checkpoint: %v\n", snap.NumPEs, err)
				return 1
			}
			// A crash is only unrecoverable when the failed PE AND all R of
			// its holders are down in the same recovery window, so the
			// quantity an operator cares about is how many of each crash
			// PE's holders are themselves crash targets elsewhere in the
			// plan ("holders under fire"): the degree must exceed that
			// count for the worst-case overlap to stay survivable.
			crashed := map[int]bool{}
			for _, f := range plan.Faults {
				if f.Kind == chaos.FaultCrash {
					crashed[f.PE] = true
				}
			}
			fmt.Fprintf(stdout, "\nplan seed %d: %d faults, %d crashes, %d warns; replica degree R=%d\n",
				plan.Seed, len(plan.Faults), plan.Crashes(), plan.Warns(), *degree)
			tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "t_virtual\tkind\tpe\tholders\tholders_under_fire\tbytes_streamed")
			worstOverlap := 0
			for _, f := range plan.Faults {
				if f.Kind != chaos.FaultCrash && f.Kind != chaos.FaultWarn {
					continue
				}
				holders := ckpt.ReplicasOf(f.PE, snap.NumPEs, *degree)
				fire := 0
				for _, h := range holders {
					if crashed[h] {
						fire++
					}
				}
				if f.Kind == chaos.FaultCrash && fire > worstOverlap {
					worstOverlap = fire
				}
				fmt.Fprintf(tw, "%.6f\t%s\t%d\t%v\t%d\t%d\n",
					f.At, f.Kind, f.PE, holders, fire, per[f.PE])
			}
			tw.Flush()
			if worstOverlap >= *degree {
				fmt.Fprintf(stdout, "WARNING: a crash PE has all %d holders under fire; if those failures overlap one recovery window the checkpoint is lost — consider -R %d or higher\n",
					*degree, worstOverlap+1)
			} else {
				fmt.Fprintf(stdout, "every crash keeps at least %d live holder(s) even under full plan overlap\n",
					*degree-worstOverlap)
			}
		}
	}

	if *perPE {
		counts := make(map[int]int)
		bytes := make(map[int]int)
		maxPE := 0
		for _, a := range snap.Arrays {
			for _, e := range a.Elems {
				counts[e.PE]++
				bytes[e.PE] += len(e.Data)
				if e.PE > maxPE {
					maxPE = e.PE
				}
			}
		}
		fmt.Fprintln(stdout)
		tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "PE\telements\tbytes")
		for pe := 0; pe <= maxPE; pe++ {
			if counts[pe] == 0 {
				continue
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\n", pe, counts[pe], bytes[pe])
		}
		tw.Flush()
	}
	return 0
}
