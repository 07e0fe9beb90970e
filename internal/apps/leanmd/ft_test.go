package leanmd

import (
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

// barrierHook wraps a strategy so test actions run exactly at the AtSync
// barrier — a globally consistent cut: every element is paused and no
// application messages are in flight, which is where the double in-memory
// protocol checkpoints and recovers.
type barrierHook struct {
	inner charm.Strategy
	round int
	onRnd map[int]func()
}

func (b *barrierHook) Name() string { return "barrierHook" }
func (b *barrierHook) Balance(objs []charm.LBObject, pes []charm.LBPE) []charm.Migration {
	b.round++
	if fn, ok := b.onRnd[b.round]; ok {
		fn()
		return nil // structural action this round; no migrations on top
	}
	return b.inner.Balance(objs, pes)
}

// TestFailureRecoveryReplaysExactTrajectory is the §III-B end-to-end
// property: after a PE failure and rollback to the last in-memory
// checkpoint, the recomputed simulation reproduces the original energy
// trajectory exactly (the physics is deterministic and the checkpoint
// restores bit-identical state).
func TestFailureRecoveryReplaysExactTrajectory(t *testing.T) {
	cfg := Config{
		CellsX: 3, CellsY: 3, CellsZ: 3, AtomsPerCell: 20,
		Steps: 12, LBPeriod: 4, Seed: 9, MigratePeriod: 50,
	}
	run := func(hooks func(rt *charm.Runtime) map[int]func()) []float64 {
		rt := charm.New(machine.New(machine.Testbed(8)))
		hook := &barrierHook{inner: lb.Greedy{}}
		rt.SetBalancer(hook)
		if hooks != nil {
			hook.onRnd = hooks(rt)
		}
		res, err := Run(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Energy
	}

	// The baseline skips strategy migrations on the same rounds the faulty
	// run performs its checkpoint/recovery, so element placement — and
	// with it floating-point reduction order — is identical in both runs.
	baseline := run(func(rt *charm.Runtime) map[int]func() {
		return map[int]func(){1: func() {}, 2: func() {}}
	})

	var mem *ckpt.Mem
	faulty := run(func(rt *charm.Runtime) map[int]func() {
		return map[int]func(){
			// LB round 1 fires after step 4: take the double in-memory
			// checkpoint at the consistent barrier.
			1: func() {
				mem = ckpt.NewMem(rt)
				if d := mem.Checkpoint(); d <= 0 {
					t.Fatal("checkpoint cost not modeled")
				}
			},
			// LB round 2 fires after step 8: PE 2 dies; everything rolls
			// back to the step-4 checkpoint and recomputes.
			2: func() {
				if _, err := mem.FailAndRecover(2); err != nil {
					t.Fatal(err)
				}
			},
		}
	})

	if len(baseline) != cfg.Steps || len(faulty) != cfg.Steps {
		t.Fatalf("trajectories: baseline %d, faulty %d", len(baseline), len(faulty))
	}
	// Before the failure the runs are the same execution.
	for i := 0; i < 8; i++ {
		if faulty[i] != baseline[i] {
			t.Fatalf("pre-failure step %d diverged: %v vs %v", i, faulty[i], baseline[i])
		}
	}
	// After the rollback, steps 4.. are recomputed: the faulty run's
	// entries 8..11 must equal the baseline's 4..7 bit-for-bit.
	for i := 8; i < cfg.Steps; i++ {
		if faulty[i] != baseline[i-4] {
			t.Fatalf("replayed step %d (physical %d): %v vs baseline %v",
				i, i-4, faulty[i], baseline[i-4])
		}
	}
}

// TestCheckpointAtBarrierIsConsistent takes a checkpoint at the barrier and
// verifies every element's physical step is identical — the cut is global.
func TestCheckpointAtBarrierIsConsistent(t *testing.T) {
	rt := charm.New(machine.New(machine.Testbed(8)))
	var snap *ckpt.Snapshot
	hook := &barrierHook{inner: lb.Greedy{}, onRnd: map[int]func(){
		1: func() { snap = ckpt.Capture(rt) },
	}}
	rt.SetBalancer(hook)
	_, err := Run(rt, Config{
		CellsX: 3, CellsY: 3, CellsZ: 3, AtomsPerCell: 16,
		Steps: 8, LBPeriod: 4, Seed: 3, MigratePeriod: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("checkpoint hook never fired")
	}
	// Restore into a fresh runtime and check every cell sits at step 4.
	rt2 := charm.New(machine.New(machine.Testbed(4)))
	app2, err := New(rt2, Config{CellsX: 3, CellsY: 3, CellsZ: 3, AtomsPerCell: 16,
		Steps: 8, LBPeriod: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range app2.cells.Keys() {
		app2.cells.Remove(idx)
	}
	for _, idx := range app2.computes.Keys() {
		app2.computes.Remove(idx)
	}
	if err := ckpt.Restore(rt2, snap); err != nil {
		t.Fatal(err)
	}
	for _, idx := range app2.cells.Keys() {
		if c := app2.cells.Get(idx).(*cell); c.Step != 4 {
			t.Fatalf("cell %v restored at step %d, want 4", idx, c.Step)
		}
	}
	for _, idx := range app2.computes.Keys() {
		if cp := app2.computes.Get(idx).(*compute); cp.Step != 4 {
			t.Fatalf("compute %v restored at step %d, want 4", idx, cp.Step)
		}
	}
}
