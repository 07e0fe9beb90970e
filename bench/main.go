// Command bench is charmgo's benchmark: seven workloads, five end-to-end
// metrics measured from outside through the layers' public functions, and
// a separate traced pass that attributes the run to layers. See README.md.
//
// The driver's contract (BENCHMARK.json) is one workload per process:
//
//	bash bench/run.sh --workload phold_seq --seed 1 --seconds 16 --trace 0
//
// which prints one JSON result object as the last line of standard output.
// Without --workload every workload is run in turn and a full report is
// written; -compare a.json b.json compares two such reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

var stderr io.Writer = os.Stderr

// workerCount is GOMAXPROCS and the parallel engines' worker count.
func workerCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func main() {
	name := flag.String("workload", "", "run this one workload (default: all seven)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 16, "time budget of one workload's run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
	reps := flag.Int("reps", 0, "measured repetitions per workload (0: as many as fit in -seconds, at least 3)")
	smoke := flag.Bool("smoke", false, "tiny sizes and one repetition: checks the harness, measures nothing")
	out := flag.String("out", "", "also write the full report to this file")
	compare := flag.Bool("compare", false, "compare two reports: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *smoke && *reps == 0 {
		*reps = 1
	}
	workers := workerCount()
	runtime.GOMAXPROCS(workers)
	budget := time.Duration(*seconds * float64(time.Second))

	var todo []workload
	if *name == "" {
		todo = workloads
	} else {
		wl, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		todo = []workload{wl}
	}
	rep := newReport(*seed, *reps, *smoke, workers)
	for _, wl := range todo {
		var res *workloadResult
		var err error
		if *trace != 0 {
			res, err = tracedPass(wl, *seed, *smoke, workers, budget, *reps)
		} else {
			res, err = measure(wl, *seed, *smoke, workers, budget, *reps)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", wl.Name, err))
		}
		rep.Workloads = append(rep.Workloads, res)
		printSummary(os.Stdout, res)
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fatal(err)
		}
	}
	if *name == "" {
		if rep.failedRuns() > 0 {
			os.Exit(1)
		}
		return
	}
	// One workload: the last line is the driver's result object.
	line, err := json.Marshal(contractResult(rep.Workloads[0], *trace != 0))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
