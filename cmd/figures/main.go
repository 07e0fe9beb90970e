// Command figures regenerates the data series behind every figure in the
// paper's evaluation section (Figs 4–17) on the virtual machine.
//
// Usage:
//
//	figures            # run every figure
//	figures -fig 9     # run one figure
//	figures -list      # list figure ids and titles
//	figures -workers 8 # run up to 8 sweep points per figure concurrently
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"charmgo/internal/figures"
	"charmgo/internal/machine"
)

func main() {
	figID := flag.String("fig", "", "run only the figure with this id (e.g. 9, 8L, 15b)")
	list := flag.Bool("list", false, "list available figures")
	backend := flag.String("backend", "sequential", "engine backend: "+machine.BackendNames())
	workers := flag.Int("workers", 1, "concurrent sweep points per figure (0 = GOMAXPROCS); output is identical at any value")
	flag.Parse()

	chosen, err := machine.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	figures.SetWorkers(*workers)

	if *list {
		for _, f := range figures.All() {
			fmt.Printf("%-4s %s\n", f.ID, f.Title)
		}
		return
	}

	// A failing figure (or a failing sweep point within one) is reported
	// with its label and the run continues, so one broken configuration
	// does not hide the state of every later figure.
	failed := 0
	run := func(f figures.Fig) {
		be := chosen
		if f.SeqOnly && (be == "parallel" || be == "optimistic") {
			fmt.Printf("(figure %s drives AMPI rank threads; running on the sequential engine)\n", f.ID)
			be = "sequential"
		}
		figures.SetBackend(be)
		fmt.Printf("== Figure %s: %s ==\n", f.ID, f.Title)
		start := time.Now()
		if err := f.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s failed: %v\n", f.ID, err)
			failed++
			return
		}
		fmt.Printf("-- figure %s done in %.1fs (wall)\n\n", f.ID, time.Since(start).Seconds())
	}

	if *figID != "" {
		f, ok := figures.ByID(*figID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q; use -list\n", *figID)
			os.Exit(2)
		}
		run(f)
	} else {
		for _, f := range figures.All() {
			run(f)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d figure(s) failed\n", failed)
		os.Exit(1)
	}
}
