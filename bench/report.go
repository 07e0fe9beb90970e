package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// host records where and from what a report was measured.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"` // git rev-parse HEAD, or "unknown"
}

// report is the full output of one invocation: provenance, each workload's
// config echo, per-repetition raw values and their summaries.
type report struct {
	Schema    int               `json:"schema"`
	Host      host              `json:"host"`
	Seed      int64             `json:"seed"`
	Reps      int               `json:"reps"` // 0: as many as fit in the time budget
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
}

// commit is the revision run.sh read with git rev-parse HEAD; the driver's
// checkout is not a repository, and neither is a bare binary's directory.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func newReport(seed int64, reps int, smoke bool, workers int) *report {
	return &report{Schema: 1, Seed: seed, Reps: reps, Smoke: smoke, Host: host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit(),
	}}
}

func (r *report) failedRuns() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.FailedRuns
	}
	return n
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// printSummary prints every metric of one workload by name with its unit.
func printSummary(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "%s: runs=%d failed_runs=%d events=%d virtual=%.9g sim_s digest=%.12s (reference %s)\n",
		res.Workload, res.Runs, res.FailedRuns, res.Events, res.VirtualS, res.Digest, res.Reference)
	if res.PerLayer == nil {
		for _, m := range endToEnd {
			st := res.Metrics[m.Name]
			fmt.Fprintf(w, "  %-14s %12.6g %-3s min %.6g max %.6g iqr %.3g n %d\n",
				m.Name, st.Median, m.Unit, st.Min, st.Max, st.IQR, st.N)
		}
		return
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, res.PerLayer[m.Name], m.Unit)
	}
}

// metricValue is one metric in the driver's result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractOut is the object the driver reads from the last line of output.
type contractOut struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func contractResult(res *workloadResult, traced bool) contractOut {
	out := contractOut{Correct: res.FailedRuns == 0 && res.Runs > 0, Attempted: res.Runs,
		Failed: res.FailedRuns, Metrics: map[string]metricValue{}}
	if traced {
		for _, m := range perLayer {
			out.Metrics[m.Name] = metricValue{res.PerLayer[m.Name], m.Unit}
		}
		return out
	}
	for _, m := range endToEnd {
		out.Metrics[m.Name] = metricValue{res.Metrics[m.Name].Median, m.Unit}
	}
	return out
}

// setupSlackS is the absolute slack on setup_s: a set-up of a few
// milliseconds moves by more than any relative bound from scheduling noise
// alone, so it regresses only beyond max(bound, 20 ms).
const setupSlackS = 0.020

// runCompare prints, for every workload × end-to-end metric of two
// reports, both medians, the relative change, the bound and a verdict.
// All metrics are lower-is-better. A row is unresolved when either side's
// IQR exceeds the bound, so noise is never reported as "unchanged". It
// returns the process exit code: 1 on any regressed row or a higher share
// of failed runs.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		fatal(err)
	}
	return compareReports(w, a, b)
}

func compareReports(w io.Writer, a, b *report) int {
	byName := map[string]*workloadResult{}
	for _, wr := range a.Workloads {
		byName[wr.Workload] = wr
	}
	code := 0
	fmt.Fprintf(w, "%-15s %-13s %13s %13s %8s %6s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	for _, wb := range b.Workloads {
		wa, ok := byName[wb.Workload]
		if !ok || wa.Metrics == nil || wb.Metrics == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			delta := (sb.Median - sa.Median) / sa.Median
			verdict := "ok"
			switch {
			case m.Name == "setup_s" && sb.Median-sa.Median <= setupSlackS:
			case sa.IQR > m.Bound*sa.Median || sb.IQR > m.Bound*sb.Median:
				verdict = "unresolved"
			case delta > m.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(w, "%-15s %-13s %13.6g %13.6g %+7.2f%% %5.0f%%  %s\n",
				wb.Workload, m.Name, sa.Median, sb.Median, 100*delta, 100*m.Bound, verdict)
		}
		if wa.VirtualS != wb.VirtualS && a.Seed == b.Seed {
			fmt.Fprintf(w, "%-15s %-13s %13.9g %13.9g  simulated time differs: the model or an RTS policy changed\n",
				wb.Workload, "virtual_s", wa.VirtualS, wb.VirtualS)
		}
		if wb.FailedRuns*wa.Runs > wa.FailedRuns*wb.Runs {
			fmt.Fprintf(w, "%-15s failed runs rose: %d/%d -> %d/%d\n", wb.Workload, wa.FailedRuns, wa.Runs, wb.FailedRuns, wb.Runs)
			code = 1
		}
	}
	return code
}
