package ampi

import (
	"strings"
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

func newRT(pes int) *charm.Runtime {
	return charm.New(machine.New(machine.Testbed(pes)))
}

func TestRingPass(t *testing.T) {
	rt := newRT(4)
	const n = 8
	var sums [n]int
	err := Run(rt, n, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, 1, 8)
			v, src := r.Recv(n-1, 7)
			sums[0] = v.(int)
			if src != n-1 {
				t.Errorf("rank 0 got message from %d", src)
			}
			return
		}
		v, _ := r.Recv(r.ID()-1, 7)
		sums[r.ID()] = v.(int)
		r.Send((r.ID()+1)%n, 7, v.(int)+1, 8)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if sums[i] != i {
			t.Fatalf("rank %d saw %d, want %d", i, sums[i], i)
		}
	}
	if sums[0] != n {
		t.Fatalf("ring did not complete: %d", sums[0])
	}
}

func TestVirtualizationPlacement(t *testing.T) {
	rt := newRT(4)
	var pes [8]int
	err := Run(rt, 8, func(r *Rank) {
		pes[r.ID()] = r.ctx.MyPE()
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Block mapping: ranks 2k and 2k+1 share PE k.
	for i := 0; i < 8; i++ {
		if pes[i] != i/2 {
			t.Fatalf("rank %d on PE %d, want %d", i, pes[i], i/2)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	rt := newRT(4)
	var order []int
	err := Run(rt, 4, func(r *Rank) {
		// Stagger arrival: rank i computes i*10ms first.
		r.Charge(float64(r.ID()) * 0.01)
		r.Barrier()
		order = append(order, r.ID())
		after := r.Wtime()
		if after < 0.03 {
			t.Errorf("rank %d passed barrier at %v, before the slowest arrived", r.ID(), after)
		}
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("only %d ranks passed the barrier", len(order))
	}
}

func TestAllreduce(t *testing.T) {
	rt := newRT(4)
	var got [6]float64
	err := Run(rt, 6, func(r *Rank) {
		got[r.ID()] = r.AllreduceSum(float64(r.ID() + 1))
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 21 {
			t.Fatalf("rank %d allreduce sum = %v, want 21", i, v)
		}
	}
	rt2 := newRT(4)
	var mins [5]float64
	if err := Run(rt2, 5, func(r *Rank) {
		mins[r.ID()] = r.AllreduceMin(float64(10 - r.ID()))
	}, Options{}); err != nil {
		t.Fatal(err)
	}
	if mins[2] != 6 {
		t.Fatalf("allreduce min = %v, want 6", mins[2])
	}
}

func TestWildcardRecv(t *testing.T) {
	rt := newRT(2)
	var got []int
	err := Run(rt, 3, func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 2; i++ {
				v, _ := r.Recv(AnySource, AnyTag)
				got = append(got, v.(int))
			}
			return
		}
		r.Charge(float64(r.ID()) * 1e-3)
		r.Send(0, r.ID()*10, r.ID()*100, 8)
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0]+got[1] != 300 {
		t.Fatalf("wildcard recv got %v", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	rt := newRT(2)
	err := Run(rt, 2, func(r *Rank) {
		r.Recv(AnySource, AnyTag) // nobody sends
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestRankPanicReported(t *testing.T) {
	rt := newRT(2)
	err := Run(rt, 2, func(r *Rank) {
		if r.ID() == 1 {
			panic("boom")
		}
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want rank panic surfaced, got %v", err)
	}
}

func TestMigrateBalancesLoad(t *testing.T) {
	rt := newRT(4)
	rt.SetBalancer(lb.Greedy{})
	const n = 8
	var before, after [n]int
	err := Run(rt, n, func(r *Rank) {
		// Ranks 0..3 are heavy; all start block-mapped so PEs 0,1 are
		// overloaded relative to 2,3... actually blocks are 2 ranks/PE;
		// make ranks on PE 0-1 heavy.
		before[r.ID()] = r.ctx.MyPE()
		for it := 0; it < 3; it++ {
			if r.ID() < 4 {
				r.Charge(0.1)
			} else {
				r.Charge(0.001)
			}
			r.Migrate()
		}
		after[r.ID()] = r.ctx.MyPE()
	}, Options{Migratable: true, StateBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range after {
		if after[i] != before[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("load balancing never migrated a rank")
	}
	// Heavy ranks should no longer share PEs pairwise.
	heavyPEs := map[int]int{}
	for i := 0; i < 4; i++ {
		heavyPEs[after[i]]++
	}
	maxHeavy := 0
	for _, c := range heavyPEs {
		if c > maxHeavy {
			maxHeavy = c
		}
	}
	if maxHeavy > 2 {
		t.Fatalf("after LB a PE still hosts %d heavy ranks: %v", maxHeavy, after)
	}
}

func TestMigrationSpeedsUpImbalancedJob(t *testing.T) {
	run := func(migratable bool) float64 {
		rt := newRT(4)
		rt.SetBalancer(lb.Greedy{})
		const n = 8
		err := Run(rt, n, func(r *Rank) {
			for it := 0; it < 10; it++ {
				if r.ID() < 2 { // two heavy ranks start on PE 0
					r.Charge(0.05)
				} else {
					r.Charge(0.005)
				}
				r.Migrate()
				r.Barrier()
			}
		}, Options{Migratable: migratable})
		if err != nil {
			t.Fatal(err)
		}
		return float64(rt.Now())
	}
	noLB := run(false)
	withLB := run(true)
	if withLB >= noLB*0.85 {
		t.Fatalf("migration did not help: %v vs %v", withLB, noLB)
	}
}

func TestPerOpOverheadSlowsJob(t *testing.T) {
	run := func(ov float64) float64 {
		rt := newRT(2)
		if err := Run(rt, 4, func(r *Rank) {
			for i := 0; i < 50; i++ {
				r.Barrier()
			}
		}, Options{PerOpOverhead: ov}); err != nil {
			t.Fatal(err)
		}
		return float64(rt.Now())
	}
	if native, virt := run(0), run(5e-6); virt <= native {
		t.Fatalf("AMPI overhead not modeled: %v vs %v", virt, native)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() float64 {
		rt := newRT(4)
		if err := Run(rt, 8, func(r *Rank) {
			for i := 0; i < 5; i++ {
				r.Charge(1e-3 * float64(r.ID()%3))
				r.Send((r.ID()+1)%8, 0, i, 64)
				r.Recv(AnySource, 0)
				r.Barrier()
			}
		}, Options{}); err != nil {
			t.Fatal(err)
		}
		return float64(rt.Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic AMPI timing: %v vs %v", a, b)
	}
}
