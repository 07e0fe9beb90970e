package leanmd

import (
	"math"
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/cloud"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

func newRT(pes int) *charm.Runtime {
	return charm.New(machine.New(machine.Testbed(pes)))
}

func small() Config {
	return Config{CellsX: 3, CellsY: 3, CellsZ: 3, AtomsPerCell: 20, Steps: 10, Seed: 1}
}

func TestRunsToCompletion(t *testing.T) {
	rt := newRT(4)
	res, err := Run(rt, small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StepDone) != 10 || len(res.Energy) != 10 {
		t.Fatalf("steps recorded: %d", len(res.StepDone))
	}
	if res.Atoms == 0 {
		t.Fatal("no atoms placed")
	}
	for i := 1; i < len(res.StepDone); i++ {
		if res.StepDone[i] <= res.StepDone[i-1] {
			t.Fatal("step completion times not increasing")
		}
	}
}

func TestEnergyApproximatelyConserved(t *testing.T) {
	// Velocity-Verlet integration with small dt: total energy must stay
	// within a couple percent over the run (no thermostat).
	cfg := small()
	cfg.Steps = 30
	cfg.Dt = 0.001
	rt := newRT(4)
	res, err := Run(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e0, eN := res.Energy[1], res.Energy[len(res.Energy)-1]
	scale := math.Abs(e0)
	if scale < 1 {
		scale = 1
	}
	if math.Abs(eN-e0)/scale > 0.02 {
		t.Fatalf("energy drifted: %v -> %v", e0, eN)
	}
}

func TestAtomCountConservedAcrossExchange(t *testing.T) {
	cfg := small()
	cfg.Steps = 25
	cfg.MigratePeriod = 5
	cfg.Dt = 0.002
	rt := newRT(4)
	app, err := New(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	moved := false
	for _, idx := range app.Cells().Keys() {
		c := app.Cells().Get(idx).(*cell)
		total += c.n()
		if c.n() != cfg.AtomsPerCell {
			moved = true
		}
	}
	if total != res.Atoms {
		t.Fatalf("atoms not conserved: %d vs %d", total, res.Atoms)
	}
	_ = moved // movement depends on velocities; conservation is the invariant
}

func TestGaussianCreatesImbalance(t *testing.T) {
	cfg := small()
	cfg.Gaussian = 8
	cfg.AtomsPerCell = 40
	rt := newRT(4)
	app, err := New(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	min, max := 1<<30, 0
	for _, idx := range app.Cells().Keys() {
		n := app.Cells().Get(idx).(*cell).n()
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max < 2*min+2 {
		t.Fatalf("Gaussian profile too flat: min %d max %d", min, max)
	}
}

func TestLoadBalancingImprovesImbalancedRun(t *testing.T) {
	// The Fig 9 claim in miniature: with a skewed atom distribution, the
	// HybridLB run beats the NoLB run.
	run := func(withLB bool) float64 {
		rt := newRT(8)
		cfg := Config{CellsX: 4, CellsY: 4, CellsZ: 3, AtomsPerCell: 50,
			Steps: 24, Gaussian: 10, Seed: 2, MigratePeriod: 50}
		if withLB {
			rt.SetBalancer(lb.Hybrid{GroupSize: 4})
			cfg.LBPeriod = 6
		}
		res, err := Run(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Compare steady-state steps (post-LB).
		ts := res.StepTimes()
		sum := 0.0
		for _, v := range ts[len(ts)-8:] {
			sum += v
		}
		return sum / 8
	}
	noLB := run(false)
	withLB := run(true)
	if withLB >= noLB*0.9 {
		t.Fatalf("HybridLB did not help: %v vs %v per step", withLB, noLB)
	}
}

func TestHeterogeneousCloudLB(t *testing.T) {
	// Fig 17: one node at 0.7x speed. Speed-aware LB must approach the
	// homogeneous time; without LB the slow node gates every step.
	step := func(hetero, balance bool) float64 {
		rt := charm.New(machine.New(machine.Cloud(16))) // 4 nodes
		if hetero {
			cloud.SlowNode(rt, 0, 0.7)
		}
		cfg := Config{CellsX: 4, CellsY: 4, CellsZ: 4, AtomsPerCell: 30,
			Steps: 20, Seed: 3, MigratePeriod: 50}
		if balance {
			rt.SetBalancer(lb.Greedy{})
			cfg.LBPeriod = 5
		}
		res, err := Run(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := res.StepTimes()
		sum := 0.0
		for _, v := range ts[len(ts)-6:] {
			sum += v
		}
		return sum / 6
	}
	homo := step(false, false)
	heteroNoLB := step(true, false)
	heteroLB := step(true, true)
	if heteroNoLB <= homo*1.15 {
		t.Fatalf("slow node had no effect: homo %v vs hetero %v", homo, heteroNoLB)
	}
	if heteroLB >= heteroNoLB {
		t.Fatalf("hetero-aware LB did not help: %v vs %v", heteroLB, heteroNoLB)
	}
}

func TestRejectsTinyGrids(t *testing.T) {
	rt := newRT(2)
	if _, err := New(rt, Config{CellsX: 2, CellsY: 3, CellsZ: 3}); err == nil {
		t.Fatal("2-cell dimension should be rejected")
	}
}

func TestComputeCountPerCell(t *testing.T) {
	rt := newRT(4)
	app, err := New(rt, small())
	if err != nil {
		t.Fatal(err)
	}
	// 27 cells, each with 1 self-compute and 26/2 pair computes.
	want := 27 * (1 + 13)
	if got := app.Computes().Len(); got != want {
		t.Fatalf("compute count %d, want %d", got, want)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() (float64, float64) {
		rt := newRT(4)
		res, err := Run(rt, small())
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Elapsed), res.Energy[len(res.Energy)-1]
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", t1, e1, t2, e2)
	}
}

func TestTopoAwareMappingReducesStepTime(t *testing.T) {
	// Topology-aware placement keeps cell↔compute traffic node-local or
	// few-hop; on a multi-node machine with meaningful per-hop and
	// remote-message costs it beats hash placement.
	run := func(topo bool) float64 {
		cfg := machine.Vesta(64) // 4 nodes x 16 PEs
		rt := charm.New(machine.New(cfg))
		res, err := Run(rt, Config{
			CellsX: 4, CellsY: 4, CellsZ: 4, AtomsPerCell: 27,
			Steps: 12, Seed: 6, MigratePeriod: 100, TopoAware: topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := res.StepTimes()
		sum := 0.0
		for _, v := range ts[4:] {
			sum += v
		}
		return sum / float64(len(ts)-4)
	}
	hash := run(false)
	topo := run(true)
	if topo >= hash {
		t.Fatalf("topology-aware map did not help: topo %v vs hash %v", topo, hash)
	}
}

// The neighbourhood is a constant 26: every grid New accepts has at least 3
// cells per dimension, so the 26 periodic offsets land on 26 distinct cells
// and never wrap onto the cell itself. The force and atom-exchange counts
// rely on it (expectedForces, numNeighbours).
func TestNeighboursAreDistinctCells(t *testing.T) {
	for _, dims := range [][3]int{{3, 3, 3}, {6, 4, 3}} {
		a := &App{cfg: Config{CellsX: dims[0], CellsY: dims[1], CellsZ: dims[2]}}
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				for k := 0; k < dims[2]; k++ {
					c := [3]int{i, j, k}
					seen := map[[3]int]bool{}
					for _, nb := range a.neighbours(c) {
						for d := 0; d < 3; d++ {
							if off := (nb[d] - c[d] + dims[d]) % dims[d]; nb[d] < 0 || nb[d] >= dims[d] || (off > 1 && off != dims[d]-1) {
								t.Fatalf("grid %v: %v is not adjacent to %v", dims, nb, c)
							}
						}
						if nb == c {
							t.Fatalf("grid %v: cell %v is its own neighbour", dims, c)
						}
						seen[nb] = true
					}
					if len(seen) != numNeighbours {
						t.Fatalf("grid %v: cell %v has %d distinct neighbours, want %d", dims, c, len(seen), numNeighbours)
					}
				}
			}
		}
	}
}

// The force-count check runs on every force message a cell receives; it
// must not allocate.
func TestForceCountCheckAllocFree(t *testing.T) {
	a := &App{cfg: small()}
	c := &cell{I: 1, J: 1, K: 1, Recv: make([]forceMsg, expectedForces-1)}
	if n := testing.AllocsPerRun(100, func() { a.maybeIntegrate(c, nil) }); n != 0 {
		t.Fatalf("force-count check allocates %v per message, want 0", n)
	}
	c.WaitMig, c.MigGot = true, numNeighbours-1
	if n := testing.AllocsPerRun(100, func() { a.maybeFinishExchange(c, nil) }); n != 0 {
		t.Fatalf("atom-exchange count check allocates %v per message, want 0", n)
	}
}
