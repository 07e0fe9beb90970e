// Package chaos implements deterministic fault injection with mid-run
// detection and recovery: the robustness half of the paper's fault-tolerance
// story (§III-B), exercised end to end. A seeded, fully reproducible fault
// plan schedules hard PE crashes at arbitrary virtual-time instants (not
// barrier-aligned), message drops, delay spikes, and straggler PEs; a
// virtual-time heartbeat detector notices dead PEs without consulting any
// wall clock; and a rollback controller restores chare state from the
// double in-memory checkpoint via PUP, fences pre-rollback messages by
// epoch, and replays the run from the last quiescent cut.
//
// Everything is deterministic: the same plan and seed produce byte-identical
// runs — and byte-identical campaign reports — on both the sequential and
// the parallel backend, and a run with K injected crashes finishes with the
// same application results as the failure-free run (crash faults only;
// drops are lossy and stragglers legally reorder floating-point reductions,
// so those assert reproducibility rather than identity).
package chaos

import (
	"fmt"
	"math/rand"
)

// FaultKind classifies one planned fault.
type FaultKind string

const (
	// FaultCrash kills a PE at an instant; recovery revives it from the
	// last double in-memory checkpoint.
	FaultCrash FaultKind = "crash"
	// FaultDrop loses messages with probability Prob inside [At, Until).
	FaultDrop FaultKind = "drop"
	// FaultDelay adds Delay seconds to matching transmits inside the window.
	FaultDelay FaultKind = "delay"
	// FaultStraggler steals Factor of a PE's cycles inside the window
	// (external interference, the cloud model).
	FaultStraggler FaultKind = "straggler"
	// FaultWarn is a predicted failure: a fault prediction (the paper's
	// proactive fault-tolerance scenario — an ECC error burst, a fan
	// alarm) is delivered at At and the PE actually dies at Until. If a
	// quiescent cut falls in between, the controller evacuates every
	// chare off the doomed PE and a standby absorbs the crash with zero
	// rollback; otherwise the warn degrades to an ordinary crash.
	FaultWarn FaultKind = "warn"
)

// Fault is one planned fault. Times are virtual seconds.
type Fault struct {
	Kind FaultKind `json:"kind"`
	// At is when the fault strikes (crash) or the window opens (others).
	At float64 `json:"at"`
	// PE is the crash/straggler target; for drop/delay it filters the
	// destination PE (-1 matches any).
	PE int `json:"pe"`
	// SrcPE filters the source PE for drop/delay (-1 matches any).
	SrcPE int `json:"srcpe"`
	// Until closes the window for drop/delay/straggler faults.
	Until float64 `json:"until,omitempty"`
	// Prob is the per-message drop/delay probability inside the window.
	Prob float64 `json:"prob,omitempty"`
	// Delay is the extra latency injected by a delay fault, seconds.
	Delay float64 `json:"delay,omitempty"`
	// Factor is the straggler's stolen-cycle fraction in [0,1).
	Factor float64 `json:"factor,omitempty"`
}

// Plan is a reproducible fault schedule. Seed drives every random choice
// the injector makes (per-message drop decisions); the schedule itself is
// explicit, so a plan is self-describing and replayable.
type Plan struct {
	Seed   int64   `json:"seed"`
	Faults []Fault `json:"faults"`
}

// Crashes counts the plan's crash faults.
func (p Plan) Crashes() int {
	n := 0
	for _, f := range p.Faults {
		if f.Kind == FaultCrash {
			n++
		}
	}
	return n
}

// Warns counts the plan's predicted-failure faults.
func (p Plan) Warns() int {
	n := 0
	for _, f := range p.Faults {
		if f.Kind == FaultWarn {
			n++
		}
	}
	return n
}

// Validate rejects plans the recovery protocol cannot honor.
func (p Plan) Validate(numPEs int) error {
	for i, f := range p.Faults {
		switch f.Kind {
		case FaultCrash:
			if f.PE <= 0 || f.PE >= numPEs {
				return fmt.Errorf("chaos: fault %d: crash PE %d out of range [1,%d) (PE 0 hosts the failure detector)", i, f.PE, numPEs)
			}
		case FaultStraggler:
			if f.PE < 0 || f.PE >= numPEs {
				return fmt.Errorf("chaos: fault %d: straggler PE %d out of range", i, f.PE)
			}
			if f.Factor < 0 || f.Factor >= 1 {
				return fmt.Errorf("chaos: fault %d: straggler factor %v out of [0,1)", i, f.Factor)
			}
		case FaultDrop, FaultDelay:
			if f.Until <= f.At {
				return fmt.Errorf("chaos: fault %d: empty %s window", i, f.Kind)
			}
		case FaultWarn:
			if f.PE <= 0 || f.PE >= numPEs {
				return fmt.Errorf("chaos: fault %d: warn PE %d out of range [1,%d) (PE 0 hosts the failure detector)", i, f.PE, numPEs)
			}
			if f.Until <= f.At {
				return fmt.Errorf("chaos: fault %d: warn must predict a future crash (until %v <= at %v)", i, f.Until, f.At)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
	}
	return nil
}

// CrashPlan builds a seeded plan of n crashes spread over (start, end):
// the span is cut into n sub-spans and each crash lands at a jittered
// offset inside its own, which bounds the minimum spacing between crashes
// at 40% of a sub-span — detection plus rollback must fit in that gap.
// Victims are drawn from PEs 1..numPEs-1; PE 0 hosts the heartbeat monitor
// and is never crashed (a real deployment would fail it over; the monitor
// itself is not the subject of this layer).
func CrashPlan(seed int64, n, numPEs int, start, end float64) Plan {
	rng := rand.New(rand.NewSource(seed*7919 + 13))
	p := Plan{Seed: seed}
	if n <= 0 || numPEs < 2 {
		return p
	}
	span := (end - start) / float64(n)
	for i := 0; i < n; i++ {
		at := start + span*(float64(i)+0.2+0.6*rng.Float64())
		pe := 1 + rng.Intn(numPEs-1)
		p.Faults = append(p.Faults, Fault{Kind: FaultCrash, At: at, PE: pe})
	}
	return p
}

// WarnPlan builds a seeded plan of n predicted failures: each prediction
// is delivered at a jittered instant inside (start, end) and its crash
// lands lead seconds later. Victims are drawn from PEs 1..numPEs-1, all
// distinct while they last (two live predictions shrink the evacuation
// target set, so piling them on one PE is a different experiment).
func WarnPlan(seed int64, n, numPEs int, start, end, lead float64) Plan {
	rng := rand.New(rand.NewSource(seed*31337 + 101))
	p := Plan{Seed: seed}
	if n <= 0 || numPEs < 3 {
		return p
	}
	span := (end - start) / float64(n)
	used := map[int]bool{}
	for i := 0; i < n; i++ {
		at := start + span*(float64(i)+0.2+0.6*rng.Float64())
		pe := 1 + rng.Intn(numPEs-1)
		for used[pe] && len(used) < numPEs-1 {
			pe = 1 + pe%(numPEs-1)
		}
		used[pe] = true
		p.Faults = append(p.Faults, Fault{Kind: FaultWarn, At: at, PE: pe, Until: at + lead})
	}
	return p
}
