package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"charmgo/internal/ckpt"
)

// probeApp runs an app failure-free on the sequential backend.
func probeApp(t *testing.T, app string, seed int64, ro runOpts) *runResult {
	t.Helper()
	spec, err := specFor(app)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.run("sequential", nil, seed, ro)
	if err != nil {
		t.Fatalf("%s probe: %v", app, err)
	}
	return res
}

// overlapPlan builds, for one app, a correlated double-crash plan: PE 2
// dies mid-run, and PE 3 — the nearest replica holder of PE 2's shard —
// dies while PE 2's restore is still in flight. The timing comes from a
// probe run with only the first crash, so the second lands inside the
// observed detection→resume window on every backend (the window is
// virtual time, identical across backends).
func overlapPlan(t *testing.T, app string, seed int64) Plan {
	t.Helper()
	spec, err := specFor(app)
	if err != nil {
		t.Fatal(err)
	}
	probe := probeApp(t, app, seed, runOpts{})
	first := 0.6 * probe.elapsed
	single := Plan{Seed: seed, Faults: []Fault{{Kind: FaultCrash, At: first, PE: 2}}}
	res, err := spec.run("sequential", &single, seed, runOpts{replication: 2})
	if err != nil {
		t.Fatalf("%s single-crash probe: %v", app, err)
	}
	if len(res.ctrl.Records) != 1 {
		t.Fatalf("%s single-crash probe: %d recoveries, want 1", app, len(res.ctrl.Records))
	}
	rec := res.ctrl.Records[0]
	// Aim a third of the way into the recovery window: late enough that
	// the first restore has been planned, early enough that heartbeat
	// rounds still have time to notice before the replay kick.
	second := rec.DetectedAt + 0.3*(rec.ResumedAt-rec.DetectedAt)
	if second <= rec.DetectedAt {
		t.Fatalf("%s: degenerate recovery window [%v,%v]", app, rec.DetectedAt, rec.ResumedAt)
	}
	return Plan{Seed: seed, Faults: []Fault{
		{Kind: FaultCrash, At: first, PE: 2},
		{Kind: FaultCrash, At: second, PE: 3},
	}}
}

// TestOverlappingCrashesReplicated is the headline degree-R invariant:
// with R=2, a PE and one of its replica holders crashing back to back —
// the second landing during the first's recovery — are both healed
// (restore restarted against the surviving replica set) and the run
// finishes byte-identical to the failure-free execution on all three
// backends. With R=1 the same plan is unsurvivable and must fail with
// the typed ErrAllReplicasLost, not hang or panic.
func TestOverlappingCrashesReplicated(t *testing.T) {
	for _, app := range Apps() {
		app := app
		t.Run(app, func(t *testing.T) {
			seed := int64(42)
			spec, err := specFor(app)
			if err != nil {
				t.Fatal(err)
			}
			plan := overlapPlan(t, app, seed)
			clean := probeApp(t, app, seed, runOpts{})
			for _, backend := range []string{"sequential", "parallel", "optimistic"} {
				res, err := spec.run(backend, &plan, seed, runOpts{replication: 2})
				if err != nil {
					t.Fatalf("%s/%s: R=2 overlap run failed: %v", app, backend, err)
				}
				if !floatsEqual(res.values, clean.values) {
					t.Errorf("%s/%s: values differ from failure-free run", app, backend)
				}
				if res.digest != clean.digest {
					t.Errorf("%s/%s: final digest differs from failure-free run", app, backend)
				}
				if got := res.ctrl.Survived(); got != 2 {
					t.Errorf("%s/%s: survived %d of 2 overlapping crashes", app, backend, got)
				}
				var restarts, fallbacks int
				for _, r := range res.ctrl.Records {
					restarts += r.Restarts
					fallbacks += r.Fallbacks
					if !r.DigestOK {
						t.Errorf("%s/%s: post-restore digest mismatch", app, backend)
					}
				}
				if restarts < 1 {
					t.Errorf("%s/%s: second crash did not restart the in-flight restore (restarts=0); plan %+v", app, backend, plan)
				}
				if fallbacks < 1 {
					t.Errorf("%s/%s: restore never fell back past a dead holder (fallbacks=0)", app, backend)
				}
			}
			// R=1: PE 3 was PE 2's only remote copy. Typed failure.
			if _, err := spec.run("sequential", &plan, seed, runOpts{replication: 1}); !errors.Is(err, ckpt.ErrAllReplicasLost) {
				t.Errorf("%s: R=1 overlap: want ErrAllReplicasLost, got %v", app, err)
			}
		})
	}
}

// TestWarnedCrashCostsZeroRollback: a fault prediction delivered with a
// checkpoint cut inside its window is absorbed by proactive evacuation —
// the crash lands on an empty PE, a standby takes its slot, and the run
// performs ZERO rollbacks (no recovery records, hence no epoch fences)
// while still finishing byte-identical to the failure-free run.
func TestWarnedCrashCostsZeroRollback(t *testing.T) {
	for _, app := range []string{"leanmd", "stencil", "pdes"} {
		app := app
		t.Run(app, func(t *testing.T) {
			b, err := RunCampaignOpts(app, 0, 1, 42, 0)
			if err != nil {
				t.Fatalf("%s warn campaign: %v", app, err)
			}
			for _, r := range b.Results {
				if r.Absorbed != 1 {
					t.Errorf("%s/%s: absorbed %d of 1 predicted crash; evacs %+v",
						app, r.Backend, r.Absorbed, r.Evacs)
				}
				if len(r.Records) != 0 {
					t.Errorf("%s/%s: %d rollback recoveries for a warned crash, want 0",
						app, r.Backend, len(r.Records))
				}
				if !r.ValuesMatch {
					t.Errorf("%s/%s: values differ from failure-free run", app, r.Backend)
				}
				if !r.DigestMatch {
					t.Errorf("%s/%s: final digest differs from failure-free run", app, r.Backend)
				}
				if r.Survived != 1 {
					t.Errorf("%s/%s: survived %d, want 1", app, r.Backend, r.Survived)
				}
				// On apps with a balancer (leanmd, stencil) the LB round at
				// the cut re-places the doomed PE's objects itself — LBView
				// filters evacuating PEs — so the controller's explicit
				// migration finds nothing left and Moved is 0. PDES has no
				// balancer: there the PUP evacuation must do the moving.
				if app == "pdes" {
					for _, e := range r.Evacs {
						if e.Moved == 0 || e.Bytes == 0 {
							t.Errorf("%s/%s: evacuation moved nothing: %+v", app, r.Backend, e)
						}
					}
				}
				if r.ChaosElapsed <= r.CleanElapsed {
					t.Errorf("%s/%s: evacuation and standby boot cost nothing (%v <= %v)",
						app, r.Backend, r.ChaosElapsed, r.CleanElapsed)
				}
			}
			if !b.CrossBackendMatch {
				t.Errorf("%s: backends disagree under a warned crash", app)
			}
		})
	}
}

// TestWarnDegradesToCrash: a prediction whose window contains no
// checkpoint cut cannot evacuate; the crash lands on a populated PE and
// is healed by the ordinary detect-and-rollback path. Values still match
// the failure-free run.
func TestWarnDegradesToCrash(t *testing.T) {
	spec, err := specFor("leanmd")
	if err != nil {
		t.Fatal(err)
	}
	clean := probeApp(t, "leanmd", 42, runOpts{})
	at := 0.6 * clean.elapsed
	// 20 µs of lead: far less than the gap between checkpoint cuts.
	plan := Plan{Seed: 42, Faults: []Fault{
		{Kind: FaultWarn, At: at, PE: 2, Until: at + 2e-5},
	}}
	res, err := spec.run("sequential", &plan, 42, runOpts{})
	if err != nil {
		t.Fatalf("degraded warn run: %v", err)
	}
	if len(res.ctrl.Records) != 1 {
		t.Fatalf("want 1 rollback recovery for the degraded warn, got %d", len(res.ctrl.Records))
	}
	if len(res.ctrl.Evacs) != 1 || res.ctrl.Evacs[0].Absorbed {
		t.Fatalf("want one non-absorbed evac record, got %+v", res.ctrl.Evacs)
	}
	if !floatsEqual(res.values, clean.values) {
		t.Error("values differ from failure-free run after degraded warn")
	}
}

// TestReplicationDegreeInvariant: the replication degree R changes cost,
// never outcome — the same crash plan at R=1,2,3 produces identical
// final values and digests, and checkpoints get strictly more expensive
// with each extra copy.
func TestReplicationDegreeInvariant(t *testing.T) {
	spec, err := specFor("stencil")
	if err != nil {
		t.Fatal(err)
	}
	probe := probeApp(t, "stencil", 7, runOpts{})
	plan := CrashPlan(7, 2, 8, 0.45*probe.elapsed, 0.95*probe.elapsed)
	var prev *runResult
	var prevR int
	for _, r := range []int{1, 2, 3} {
		res, err := spec.run("sequential", &plan, 7, runOpts{replication: r})
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		if !floatsEqual(res.values, probe.values) {
			t.Errorf("R=%d: values differ from failure-free run", r)
		}
		if res.digest != probe.digest {
			t.Errorf("R=%d: digest differs from failure-free run", r)
		}
		if prev != nil && res.elapsed <= prev.elapsed {
			t.Errorf("R=%d elapsed %v not above R=%d elapsed %v: extra replica streams cost nothing",
				r, res.elapsed, prevR, prev.elapsed)
		}
		prev, prevR = res, r
	}
}

// fuzzSoak is the seeded-campaign soak shared by the test below and the
// native fuzz harness: run one adversarial plan and check the invariant
// that every outcome is either byte-identical success or a typed error.
func fuzzSoak(t *testing.T, app string, seed int64, crossBackend bool) {
	t.Helper()
	spec, err := specFor(app)
	if err != nil {
		t.Fatal(err)
	}
	clean := probeApp(t, app, seed, runOpts{})
	plan := fuzzPlan(seed, spec.numPEs, 0.3*clean.elapsed, 0.9*clean.elapsed)
	if len(plan.Faults) == 0 {
		return
	}
	if err := plan.Validate(spec.numPEs); err != nil {
		t.Fatalf("seed %d: generated invalid plan: %v", seed, err)
	}
	// R=2 so correlated pairs are survivable in principle; tight pairs
	// may still exhaust replicas, which must surface as a typed error.
	ro := runOpts{replication: 2}
	res, err := spec.run("sequential", &plan, seed, ro)
	if err != nil {
		if !errors.Is(err, ckpt.ErrAllReplicasLost) &&
			!errors.Is(err, ckpt.ErrNoCheckpoint) &&
			!errors.Is(err, ErrRetryBudgetExhausted) {
			t.Fatalf("seed %d: untyped campaign failure: %v\nplan: %+v", seed, err, plan)
		}
		return // unrecoverable, but honestly so
	}
	if !floatsEqual(res.values, clean.values) {
		t.Errorf("seed %d: survived but values differ from failure-free run\nplan: %+v", seed, plan)
	}
	// Placement (and so the digest) is only required to re-converge when
	// no warn perturbed it: a prediction landing near the finish line may
	// leave evacuees legally displaced (values above still matched).
	if plan.Warns() == 0 && res.digest != clean.digest {
		t.Errorf("seed %d: survived but digest differs from failure-free run\nplan: %+v", seed, plan)
	}
	if !crossBackend {
		return
	}
	for _, backend := range []string{"parallel", "optimistic"} {
		other, err := spec.run(backend, &plan, seed, ro)
		if err != nil {
			t.Fatalf("seed %d: sequential survived but %s failed: %v\nplan: %+v", seed, backend, err, plan)
		}
		if other.digest != res.digest {
			t.Errorf("seed %d: %s digest differs from sequential\nplan: %+v", seed, backend, plan)
		}
	}
}

// FuzzPlanDigest is the go-fuzz entry point over the same invariant:
// `go test -fuzz=FuzzPlanDigest ./internal/chaos/` explores seeds beyond
// the soak batch; every mutated seed must either finish byte-identical
// to the failure-free run or fail with a typed recovery error.
func FuzzPlanDigest(f *testing.F) {
	for _, s := range []int64{1, 42, 1337} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		apps := Apps()
		fuzzSoak(t, apps[int(uint64(seed)%uint64(len(apps)))], seed, false)
	})
}

// TestFuzzCampaignSoak replays a batch of seeded adversarial plans —
// crashes, predictions, and correlated crash pairs in every interleaving
// the generator can reach — against all three apps. CHARMGO_CHAOS_SOAK
// overrides the batch size (scripts/check.sh runs a large soak).
func TestFuzzCampaignSoak(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	if env := os.Getenv("CHARMGO_CHAOS_SOAK"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v <= 0 {
			t.Fatalf("bad CHARMGO_CHAOS_SOAK %q", env)
		}
		n = v
	}
	apps := Apps()
	for i := 0; i < n; i++ {
		seed := int64(1000 + i)
		app := apps[i%len(apps)]
		t.Run(fmt.Sprintf("%s/seed%d", app, seed), func(t *testing.T) {
			// Every 4th plan also cross-checks the parallel backends.
			fuzzSoak(t, app, seed, i%4 == 0)
		})
	}
}

// fuzzPlan builds a seeded adversarial plan mixing plain crashes,
// predicted failures (warns), and deliberately correlated crash pairs —
// a PE and one of its ring successors (a likely replica holder) killed
// back to back, the second timed to land inside the first's
// detection-plus-restore window. Every draw comes from the seed, so a
// plan is fully reproducible from (seed, numPEs, start, end) and a
// failing seed can be replayed verbatim.
func fuzzPlan(seed int64, numPEs int, start, end float64) Plan {
	rng := rand.New(rand.NewSource(seed*104729 + 7))
	p := Plan{Seed: seed}
	if numPEs < 3 || end <= start {
		return p
	}
	n := 1 + rng.Intn(3) // 1-3 fault groups
	span := (end - start) / float64(n)
	for i := 0; i < n; i++ {
		base := start + span*(float64(i)+0.1+0.5*rng.Float64())
		pe := 1 + rng.Intn(numPEs-1)
		switch rng.Intn(3) {
		case 0: // plain crash
			p.Faults = append(p.Faults, Fault{Kind: FaultCrash, At: base, PE: pe})
		case 1: // predicted failure; lead time may or may not span a cut
			lead := span * (0.1 + 0.8*rng.Float64())
			p.Faults = append(p.Faults,
				Fault{Kind: FaultWarn, At: base, PE: pe, Until: base + lead})
		case 2: // correlated pair: a PE and a ring successor, overlapping
			succ := 1 + (pe+rng.Intn(2))%(numPEs-1) // stay off PE 0
			if succ == pe {
				succ = 1 + pe%(numPEs-1)
			}
			dt := 1e-4 + 2e-3*rng.Float64()
			p.Faults = append(p.Faults,
				Fault{Kind: FaultCrash, At: base, PE: pe},
				Fault{Kind: FaultCrash, At: base + dt, PE: succ})
		}
	}
	return p
}
