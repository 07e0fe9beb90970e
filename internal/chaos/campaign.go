package chaos

import (
	"fmt"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pdes"
	"charmgo/internal/apps/stencil"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

// runResult is one application run under (optionally) a fault plan.
type runResult struct {
	values  []float64 // app-defined final values (energies/residuals/counters)
	digest  string    // StateDigest at end of run
	elapsed float64   // virtual seconds
	ctrl    *Controller
	rt      *charm.Runtime
}

// runOpts carries campaign-level knobs into each runner.
type runOpts struct {
	// replication is the checkpoint replication degree R (0: default 1).
	replication int
}

// appSpec binds a campaign app name to its machine size and runner.
type appSpec struct {
	numPEs int
	run    func(backend string, plan *Plan, seed int64, ro runOpts) (*runResult, error)
}

// Apps lists the campaign's application names.
func Apps() []string { return []string{"leanmd", "stencil", "pdes"} }

// Campaign detector cadence: the mini-apps run for tens of milliseconds
// of virtual time, so the campaign heartbeats much faster than the
// defaults — a ping round-trip is ~10 µs on these machines, so a 150 µs
// deadline is still an order of magnitude of slack. Worst-case detection
// latency is one period plus one timeout (350 µs), which CrashPlan's
// minimum crash spacing must exceed for each crash to be individually
// detected (crashes closer together than one detection window are healed
// by a single rollback).
const (
	campaignPeriod  = 2e-4
	campaignTimeout = 1.5e-4
)

func specFor(app string) (appSpec, error) {
	switch app {
	case "leanmd":
		return appSpec{numPEs: 8, run: runLeanMD}, nil
	case "stencil":
		return appSpec{numPEs: 8, run: runStencil}, nil
	case "pdes":
		return appSpec{numPEs: 32, run: runPDES}, nil
	}
	return appSpec{}, &UsageError{fmt.Sprintf("unknown app %q (want leanmd, stencil, or pdes)", app)}
}

// UsageError reports a campaign argument outside its accepted range. A
// report must not describe a run that did not happen (ckpt.Mem clamps an
// oversized replication degree silently), so RunCampaignOpts refuses such
// arguments before running anything and cmd/chaos exits 2 on them.
type UsageError struct{ msg string }

func (e *UsageError) Error() string { return "chaos: " + e.msg }

func newRuntime(cfg machine.Config, backend string) *charm.Runtime {
	cfg.Backend = backend
	return charm.New(machine.New(cfg))
}

// finish applies the common tail of every runner: controller errors win
// over the app's stall diagnosis (the stall is the symptom, the failed
// recovery the cause).
func finish(rt *charm.Runtime, ctrl *Controller, values []float64, elapsed float64, appErr error) (*runResult, error) {
	if ctrl != nil && ctrl.Err() != nil {
		return nil, ctrl.Err()
	}
	if appErr != nil {
		return nil, appErr
	}
	return &runResult{values: values, digest: StateDigest(rt),
		elapsed: elapsed, ctrl: ctrl, rt: rt}, nil
}

func runLeanMD(backend string, plan *Plan, seed int64, ro runOpts) (*runResult, error) {
	rt := newRuntime(machine.Testbed(8), backend)
	rt.SetBalancer(lb.Greedy{})
	app, err := leanmd.New(rt, leanmd.Config{
		CellsX: 3, CellsY: 3, CellsZ: 3,
		AtomsPerCell: 20, Steps: 18, LBPeriod: 3,
		Gaussian: 0.35, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	var ctrl *Controller
	if plan != nil {
		saved := 0
		ctrl, err = Enable(rt, *plan, Options{
			CheckpointEveryRounds: 1,
			HeartbeatPeriod:       campaignPeriod,
			HeartbeatTimeout:      campaignTimeout,
			Replication:           ro.replication,
			OnCheckpoint:          func() { saved = app.Steps() },
			OnRollback:            func() { app.TruncateResult(saved) },
		})
		if err != nil {
			return nil, err
		}
	}
	res, appErr := app.Run()
	var values []float64
	var elapsed float64
	if res != nil {
		values, elapsed = res.Energy, float64(res.Elapsed)
	}
	return finish(rt, ctrl, values, elapsed, appErr)
}

func runStencil(backend string, plan *Plan, seed int64, ro runOpts) (*runResult, error) {
	rt := newRuntime(machine.Testbed(8), backend)
	rt.SetBalancer(lb.Greedy{})
	// Sized so the run spans ~22 ms of virtual time with a small grid
	// (small checkpoints restore in ~1.6 ms): CrashPlan's minimum crash
	// spacing (~6.7% of the span) must exceed one detection window plus
	// the recovery stall, or two crashes heal under one rollback.
	app, err := stencil.New(rt, stencil.Config{
		GridN: 96, Chares: 8, Iters: 256, LBPeriod: 8,
	})
	if err != nil {
		return nil, err
	}
	var ctrl *Controller
	if plan != nil {
		saved := 0
		ctrl, err = Enable(rt, *plan, Options{
			CheckpointEveryRounds: 1,
			HeartbeatPeriod:       campaignPeriod,
			HeartbeatTimeout:      campaignTimeout,
			Replication:           ro.replication,
			OnCheckpoint:          func() { saved = app.Iters() },
			OnRollback:            func() { app.TruncateResult(saved) },
		})
		if err != nil {
			return nil, err
		}
	}
	res, appErr := app.Run()
	var values []float64
	var elapsed float64
	if res != nil {
		values, elapsed = res.Residuals, float64(res.Elapsed)
	}
	return finish(rt, ctrl, values, elapsed, appErr)
}

func runPDES(backend string, plan *Plan, seed int64, ro runOpts) (*runResult, error) {
	rt := newRuntime(machine.Stampede(32), backend)
	// TRAM stays off under chaos: aggregation buffers are not rolled
	// back; and windows (not LB rounds) are the checkpoint cuts.
	cfg := pdes.Config{
		LPs: 64, EventsPerLP: 8, TargetEvents: 12000, Seed: seed,
	}
	var ctrl *Controller
	var app *pdes.App
	if plan != nil {
		var saved pdes.DriverState
		cfg.WindowHook = func(w int) {
			if ctrl != nil && w%2 == 0 {
				ctrl.CheckpointNow()
			}
		}
		a, err := pdes.New(rt, cfg)
		if err != nil {
			return nil, err
		}
		app = a
		ctrl, err = Enable(rt, *plan, Options{
			HeartbeatPeriod:  campaignPeriod,
			HeartbeatTimeout: campaignTimeout,
			Replication:      ro.replication,
			OnCheckpoint:     func() { saved = app.DriverState() },
			OnRollback:       func() { app.RestoreDriverState(saved) },
			Restart:          func() { app.AskMin() },
		})
		if err != nil {
			return nil, err
		}
	} else {
		a, err := pdes.New(rt, cfg)
		if err != nil {
			return nil, err
		}
		app = a
	}
	res, appErr := app.Run()
	var values []float64
	var elapsed float64
	if res != nil {
		values = []float64{float64(res.Committed), float64(res.Windows), res.MaxVT}
		elapsed = float64(res.Elapsed)
	}
	return finish(rt, ctrl, values, elapsed, appErr)
}

// BenchBackend reports one backend's clean-vs-chaos comparison.
type BenchBackend struct {
	Backend      string  `json:"backend"`
	CleanElapsed float64 `json:"clean_elapsed"`
	ChaosElapsed float64 `json:"chaos_elapsed"`
	CleanDigest  string  `json:"clean_digest"`
	ChaosDigest  string  `json:"chaos_digest"`
	// ValuesMatch: the chaos run's application results (energies,
	// residuals, committed counts) equal the failure-free run's, bit for
	// bit — the headline invariant.
	ValuesMatch bool `json:"values_match"`
	// DigestMatch: full final state (every chare, PUP-serialized, with
	// placement) is identical too.
	DigestMatch bool `json:"digest_match"`
	// Survived counts failures healed: PEs restored by rollbacks plus
	// predicted crashes absorbed by proactive evacuation.
	Survived int            `json:"survived"`
	Records  []RecoveryStat `json:"records"`
	// Evacs records every resolved fault prediction; Absorbed counts the
	// ones whose crash cost zero rollback.
	Evacs    []EvacRecord `json:"evacs,omitempty"`
	Absorbed int          `json:"absorbed,omitempty"`
	// MeanDetectionLatency and MeanRecoveryTime summarize the records,
	// virtual seconds.
	MeanDetectionLatency float64 `json:"mean_detection_latency"`
	MeanRecoveryTime     float64 `json:"mean_recovery_time"`
	// TotalRestartCost is the summed modeled buddy-restore cost, to set
	// against RestartFromScratch — rerunning the whole job, the
	// alternative without in-memory checkpoints.
	TotalRestartCost   float64 `json:"total_restart_cost"`
	RestartFromScratch float64 `json:"restart_from_scratch"`
}

// Bench is one application's entry in the campaign report that cmd/chaos
// writes. The default report (every app, 3 crashes, seed 42) is committed
// as testdata/campaign.json, and the SurvivesCrashes tests compare theirs
// with it byte for byte.
type Bench struct {
	App     string `json:"app"`
	Seed    int64  `json:"seed"`
	Crashes int    `json:"crashes"`
	// Warns is the number of predicted failures injected; Replication the
	// checkpoint replication degree R the campaign ran with.
	Warns       int            `json:"warns,omitempty"`
	Replication int            `json:"replication,omitempty"`
	Plan        Plan           `json:"plan"`
	Probe       float64        `json:"probe_elapsed"` // failure-free duration used to place crashes
	Results     []BenchBackend `json:"results"`
	// CrossBackendMatch: every backend's chaos run (sequential,
	// conservative-parallel, optimistic) converged to the same final state
	// digest — fault detection, checkpoint rollback, and Time Warp
	// speculation all collapse to one execution.
	CrossBackendMatch bool `json:"cross_backend_match"`
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunCampaignOpts probes an app's failure-free duration, derives a seeded
// crash plan spread over its mid-run, and runs clean and chaos executions
// on all three backends, asserting value and state identity. Warns
// predicted failures ride along with the crashes (delivered early enough that a
// checkpoint cut falls inside the prediction window, so they are
// absorbed by evacuation), and replication sets the checkpoint
// replication degree R (0: the default, 1). An unknown app, a negative
// count or a degree the machine cannot hold is a *UsageError.
func RunCampaignOpts(app string, crashes, warns int, seed int64, replication int) (*Bench, error) {
	spec, err := specFor(app)
	if err != nil {
		return nil, err
	}
	// ckpt.Mem keeps at most one copy on every other PE.
	maxR := spec.numPEs - 1
	switch {
	case crashes < 0:
		return nil, &UsageError{fmt.Sprintf("%d crashes out of range (want >= 0)", crashes)}
	case warns < 0:
		return nil, &UsageError{fmt.Sprintf("%d warns out of range (want >= 0)", warns)}
	case replication < 0 || replication > maxR:
		return nil, &UsageError{fmt.Sprintf("replication degree %d out of range (want 0 = the default of 1, or 1..%d on %s's %d PEs)",
			replication, maxR, app, spec.numPEs)}
	}
	ro := runOpts{replication: replication}
	probe, err := spec.run("sequential", nil, seed, ro)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s probe run: %w", app, err)
	}
	plan := CrashPlan(seed, crashes, spec.numPEs, 0.45*probe.elapsed, 0.95*probe.elapsed)
	if warns > 0 {
		// Predictions are delivered in the run's first third with a lead
		// of a quarter of the run: at least one checkpoint cut falls in
		// every prediction window, and the landing leaves cuts to heal
		// placement before the finish line.
		wp := WarnPlan(seed, warns, spec.numPEs,
			0.10*probe.elapsed, 0.30*probe.elapsed, 0.25*probe.elapsed)
		plan.Faults = append(plan.Faults, wp.Faults...)
	}
	b := &Bench{App: app, Seed: seed, Crashes: crashes, Warns: warns,
		Replication: replication, Plan: plan, Probe: probe.elapsed}

	for _, backend := range []string{"sequential", "parallel", "optimistic"} {
		clean := probe
		if backend != "sequential" {
			if clean, err = spec.run(backend, nil, seed, ro); err != nil {
				return nil, fmt.Errorf("chaos: %s clean %s run: %w", app, backend, err)
			}
		}
		chaos, err := spec.run(backend, &plan, seed, ro)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s chaos %s run: %w", app, backend, err)
		}
		bb := BenchBackend{
			Backend:            backend,
			CleanElapsed:       clean.elapsed,
			ChaosElapsed:       chaos.elapsed,
			CleanDigest:        clean.digest,
			ChaosDigest:        chaos.digest,
			ValuesMatch:        floatsEqual(clean.values, chaos.values),
			DigestMatch:        clean.digest == chaos.digest,
			Survived:           chaos.ctrl.Survived(),
			Records:            chaos.ctrl.Records,
			Evacs:              chaos.ctrl.Evacs,
			RestartFromScratch: clean.elapsed,
		}
		for _, e := range chaos.ctrl.Evacs {
			if e.Absorbed {
				bb.Absorbed++
			}
		}
		for _, r := range chaos.ctrl.Records {
			bb.MeanDetectionLatency += r.DetectionLatency()
			bb.MeanRecoveryTime += r.RecoveryTime()
			bb.TotalRestartCost += r.RestartCost
		}
		if n := len(chaos.ctrl.Records); n > 0 {
			bb.MeanDetectionLatency /= float64(n)
			bb.MeanRecoveryTime /= float64(n)
		}
		b.Results = append(b.Results, bb)
	}
	b.CrossBackendMatch = len(b.Results) > 1
	for _, r := range b.Results[1:] {
		if r.ChaosDigest != b.Results[0].ChaosDigest || r.CleanDigest != b.Results[0].CleanDigest {
			b.CrossBackendMatch = false
		}
	}
	return b, nil
}
