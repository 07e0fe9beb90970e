// Command figures regenerates the data series behind every figure in the
// paper's evaluation section (Figs 4–17) on the virtual machine.
//
// Usage:
//
//	figures            # run every figure
//	figures -fig 9     # run one figure
//	figures -list      # list figure ids and titles
//	figures -workers 8 # run up to 8 sweep points per figure concurrently
//
// It exits 2 on a usage error, before running anything, and 1 when a figure
// fails.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"charmgo/internal/figures"
	"charmgo/internal/machine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figID := fs.String("fig", "", "run only the figure with this id (e.g. 9, 8L, 15b)")
	list := fs.Bool("list", false, "list available figures")
	backend := fs.String("backend", "sequential", "engine backend: "+machine.BackendNames())
	workers := fs.Int("workers", 1, "concurrent sweep points per figure (0 = GOMAXPROCS); output is identical at any value")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "figures: unexpected argument %q; usage: figures [-fig id] [-list] [-backend name] [-workers n]\n", fs.Arg(0))
		return 2
	}
	chosen, err := machine.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "figures: -workers %d out of range (want >= 1, or 0 = GOMAXPROCS)\n", *workers)
		return 2
	}
	figs := figures.All()
	if *figID != "" {
		f, ok := figures.ByID(*figID)
		if !ok {
			fmt.Fprintf(stderr, "unknown figure %q; use -list\n", *figID)
			return 2
		}
		figs = []figures.Fig{f}
	}

	if *list {
		for _, f := range figures.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", f.ID, f.Title)
		}
		return 0
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	figures.SetWorkers(*workers)

	// A failing figure (or a failing sweep point within one) is reported
	// with its label and the run continues, so one broken configuration
	// does not hide the state of every later figure.
	failed := 0
	for _, f := range figs {
		be := chosen
		if f.SeqOnly && (be == "parallel" || be == "optimistic") {
			fmt.Fprintf(stdout, "(figure %s drives AMPI rank threads; running on the sequential engine)\n", f.ID)
			be = "sequential"
		}
		figures.SetBackend(be)
		fmt.Fprintf(stdout, "== Figure %s: %s ==\n", f.ID, f.Title)
		start := time.Now()
		if err := f.Run(stdout); err != nil {
			fmt.Fprintf(stderr, "figure %s failed: %v\n", f.ID, err)
			failed++
			continue
		}
		fmt.Fprintf(stdout, "-- figure %s done in %.1fs (wall)\n\n", f.ID, time.Since(start).Seconds())
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d figure(s) failed\n", failed)
		return 1
	}
	return 0
}
