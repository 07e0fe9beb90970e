// chaos runs deterministic fault-injection campaigns: for each app it
// probes a failure-free run, derives a seeded crash plan spread over the
// mid-run, and re-executes under injected crashes on all three backends
// (sequential, conservative-parallel, optimistic),
// asserting that the surviving run's final application results and full
// state digest are byte-identical to the failure-free run's. The report
// carries detection latency, recovery time, and the modeled buddy-restore
// cost set against restarting from scratch.
//
// The same -seed and -crashes always produce the same plan, the same
// virtual-time fault schedule, and a byte-identical report — determinism
// of the injector itself is part of the contract (and is what makes a
// failing campaign replayable). The default report and the -ft report are
// committed under internal/chaos/testdata/ and the package's tests compare
// theirs with them byte for byte; -out is how they are regenerated.
//
// With -warns the plan also carries predicted failures (the fault-
// prediction scenario: the controller evacuates the doomed PE before the
// crash lands, absorbing it with zero rollback), and -R sets the
// checkpoint replication degree — at R>=2 a crash may take a replica
// holder down with it mid-recovery and the run must still converge.
//
// -ft runs the fault-tolerance benchmark instead: a replication-degree
// sweep plus an evacuation-vs-rollback cost comparison per app.
//
// Exit status: 0 when every run survived with identical digests, 1 when one
// did not or a run failed, 2 when an argument is out of range (nothing is
// run or written).
//
// Usage:
//
//	go run ./cmd/chaos -out internal/chaos/testdata/campaign.json  # all apps, 3 crashes
//	go run ./cmd/chaos -app stencil -crashes 5
//	go run ./cmd/chaos -app pdes -crashes 2 -warns 1 -R 2
//	go run ./cmd/chaos -ft -out internal/chaos/testdata/ft.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"charmgo/internal/chaos"
)

func main() {
	app := flag.String("app", "all", "campaign app: leanmd, stencil, pdes, or all")
	crashes := flag.Int("crashes", 3, "number of PE crashes to inject per run")
	warns := flag.Int("warns", 0, "number of predicted failures (warn faults) to inject per run")
	degree := flag.Int("R", 0, "checkpoint replication degree (0 = layer default of 1)")
	ft := flag.Bool("ft", false, "run the fault-tolerance benchmark (replication sweep + evacuation vs rollback) instead of a single campaign")
	seed := flag.Int64("seed", 42, "plan seed: same seed, same faults, same report")
	out := flag.String("out", "", "write the JSON report to this file (default: stdout only)")
	flag.Parse()

	var report any
	var ok bool
	var err error
	if *ft {
		report, ok, err = runFT(*seed)
	} else {
		report, ok, err = runCampaigns(*app, *crashes, *warns, *seed, *degree)
	}
	if err == nil {
		err = emit(report, *out)
	}
	var usage *chaos.UsageError
	switch {
	case errors.As(err, &usage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	case !ok:
		os.Exit(1)
	}
}

// emit writes the report to out, or to stdout when out is empty.
func emit(report any, out string) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

func status(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// runCampaigns runs one campaign per app and prints a line per backend; ok
// reports whether every run survived every fault with matching digests.
func runCampaigns(app string, crashes, warns int, seed int64, degree int) ([]*chaos.Bench, bool, error) {
	apps := chaos.Apps()
	if app != "all" {
		apps = []string{app}
	}
	var report []*chaos.Bench
	ok := true
	for _, a := range apps {
		b, err := chaos.RunCampaignOpts(a, crashes, warns, seed, degree)
		if err != nil {
			return nil, false, err
		}
		report = append(report, b)
		for _, r := range b.Results {
			survived := r.ValuesMatch && r.DigestMatch && r.Survived == crashes+warns
			ok = ok && survived
			fmt.Printf("%-8s %-10s survived %d/%d (absorbed %d)  values_match=%-5v digest_match=%-5v  det %.0fµs  rec %.0fµs  restore %.0fµs vs scratch %.0fµs  [%s]\n",
				a, r.Backend, r.Survived, crashes+warns, r.Absorbed, r.ValuesMatch, r.DigestMatch,
				r.MeanDetectionLatency*1e6, r.MeanRecoveryTime*1e6,
				r.TotalRestartCost*1e6, r.RestartFromScratch*1e6, status(survived))
		}
		if !b.CrossBackendMatch {
			fmt.Printf("%-8s cross-backend digests DIVERGE\n", a)
			ok = false
		}
	}
	return report, ok, nil
}

// runFT runs the replication sweep and prints a line per cell; ok reports
// whether every cell's digests matched the failure-free run.
func runFT(seed int64) (*chaos.FTReport, bool, error) {
	rep, err := chaos.RunFTBench(seed)
	if err != nil {
		return nil, false, fmt.Errorf("-ft: %w", err)
	}
	ok := true
	for _, a := range rep.Apps {
		for _, p := range a.Points {
			ok = ok && p.DigestsIdentical
			fmt.Printf("%-8s R=%d  elapsed %.0fµs (clean %.0fµs, overhead %.1f%%)  det %.0fµs  rec %.0fµs  fallbacks %d  digests_identical=%-5v [%s]\n",
				a.App, p.Replication, p.ChaosElapsed*1e6, a.CleanElapsed*1e6,
				p.CheckpointOverhead*100, p.MeanDetectionLatency*1e6,
				p.MeanRecoveryTime*1e6, p.Fallbacks, p.DigestsIdentical, status(p.DigestsIdentical))
		}
		fmt.Printf("%-8s evacuation (R=%d): absorbed %d/%d predicted, evac cost %.0fµs vs rollback %.0fµs\n",
			a.App, a.BaselineR, a.Absorbed, a.Warns, a.EvacCost*1e6, a.RollbackCost*1e6)
	}
	return rep, ok, nil
}
