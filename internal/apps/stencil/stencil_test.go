package stencil

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

func TestCompletesAndConverges(t *testing.T) {
	rt := newRT(4)
	res, err := Run(rt, Config{GridN: 32, Chares: 4, Iters: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Residuals) != 30 {
		t.Fatalf("got %d residuals", len(res.Residuals))
	}
	// Jacobi residual must shrink monotonically (up to fp noise).
	if res.Residuals[29] >= res.Residuals[0] {
		t.Fatalf("residual did not shrink: %v -> %v", res.Residuals[0], res.Residuals[29])
	}
	for i, ts := range res.IterDone {
		if i > 0 && ts <= res.IterDone[i-1] {
			t.Fatalf("iteration %d finished before %d", i, i-1)
		}
	}
}

// sequentialJacobi computes the same problem serially for verification.
func sequentialJacobi(n, iters int) [][]float64 {
	cur := make([][]float64, n+2)
	next := make([][]float64, n+2)
	for i := range cur {
		cur[i] = make([]float64, n+2)
		next[i] = make([]float64, n+2)
	}
	for y := 1; y <= n; y++ {
		cur[0][y] = 100 // hot left wall at ghost x=0 (column-major: cur[x][y])
	}
	for it := 0; it < iters; it++ {
		for x := 1; x <= n; x++ {
			for y := 1; y <= n; y++ {
				next[x][y] = 0.25 * (cur[x-1][y] + cur[x+1][y] + cur[x][y-1] + cur[x][y+1])
			}
		}
		for x := 1; x <= n; x++ {
			for y := 1; y <= n; y++ {
				cur[x][y] = next[x][y]
			}
		}
	}
	return cur
}

func TestMatchesSequentialSolver(t *testing.T) {
	// The distributed result must equal a serial reference bit-for-bit
	// modulo summation order — same stencil, same data, so exactly.
	const n, iters = 16, 12
	rt := newRT(4)
	app, err := New(rt, Config{GridN: n, Chares: 4, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	ref := sequentialJacobi(n, iters)
	bsz := n / 4
	for bi := 0; bi < 4; bi++ {
		for bj := 0; bj < 4; bj++ {
			b := app.arr.Get(charm.Idx2(bi, bj)).(*block)
			for y := 1; y <= bsz; y++ {
				for x := 1; x <= bsz; x++ {
					gx, gy := bi*bsz+x, bj*bsz+y
					if got, want := b.Cur[y*(bsz+2)+x], ref[gx][gy]; math.Abs(got-want) > 1e-12 {
						t.Fatalf("point (%d,%d): got %v want %v", gx, gy, got, want)
					}
				}
			}
		}
	}
}

func TestOverdecompositionHidesLatency(t *testing.T) {
	// Same grid, same PE count: more chares per PE must reduce time per
	// iteration on a slow (cloud) network — the §IV-F.1 result.
	run := func(chares int) float64 {
		rt := charm.New(machine.New(machine.Cloud(16)))
		res, err := Run(rt, Config{GridN: 256, Chares: chares, Iters: 10, PerPointWork: 60e-9})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Elapsed)
	}
	oneChare := run(4) // 16 blocks on 16 PEs
	eight := run(8)    // 64 blocks: 4 per PE
	if eight >= oneChare {
		t.Fatalf("over-decomposition did not help: 1/PE %.4fs vs 4/PE %.4fs", oneChare, eight)
	}
}

func TestLBRecoversFromInterference(t *testing.T) {
	// Fig 16: interference arrives mid-run; with AtSync LB the later
	// iterations recover, without it they stay slow.
	run := func(withLB bool) []float64 {
		rt := charm.New(machine.New(machine.Cloud(32))) // 8 nodes x 4 PEs
		lbPeriod := 0
		if withLB {
			rt.SetBalancer(lb.Refine{Tolerance: 1.1})
			lbPeriod = 10
		}
		// One interfering VM lands on node 0 (the Fig 16 scenario).
		cloud.InterfereNode(rt, 0, 0.0, -1, 0.6)
		res, err := Run(rt, Config{GridN: 256, Chares: 16, Iters: 40, LBPeriod: lbPeriod, PerPointWork: 100e-9})
		if err != nil {
			t.Fatal(err)
		}
		return res.IterTimes()
	}
	noLB := run(false)
	withLB := run(true)
	tail := func(v []float64) float64 {
		s := 0.0
		for _, x := range v[len(v)-10:] {
			s += x
		}
		return s / 10
	}
	if tail(withLB) >= tail(noLB)*0.85 {
		t.Fatalf("LB did not recover from interference: tail %.5f vs %.5f", tail(withLB), tail(noLB))
	}
}

func TestGridMustDivide(t *testing.T) {
	rt := newRT(4)
	if _, err := New(rt, Config{GridN: 30, Chares: 4, Iters: 1}); err == nil {
		t.Fatal("non-divisible grid should error")
	}
}

func TestSingleChare(t *testing.T) {
	rt := newRT(1)
	res, err := Run(rt, Config{GridN: 8, Chares: 1, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterDone) != 5 {
		t.Fatalf("single-chare run did %d iters", len(res.IterDone))
	}
}

func TestDeterministic(t *testing.T) {
	run := func() (float64, float64) {
		rt := newRT(4)
		res, err := Run(rt, Config{GridN: 32, Chares: 4, Iters: 10})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Elapsed), res.Residuals[9]
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", t1, r1, t2, r2)
	}
}
