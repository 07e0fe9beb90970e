package barnes

import (
	"math"
	"math/rand"
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
)

func newRT(pes int) *charm.Runtime {
	return charm.New(machine.New(machine.Testbed(pes)))
}

func TestRunsAndRecordsPhases(t *testing.T) {
	rt := newRT(4)
	res, err := Run(rt, Config{Particles: 800, Depth: 1, Steps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 4 {
		t.Fatalf("phases for %d steps", len(res.Phases))
	}
	for i, ph := range res.Phases {
		if ph.Total <= 0 || ph.Gravity <= 0 || ph.TB <= 0 || ph.DD <= 0 {
			t.Fatalf("step %d has empty phases: %+v", i, ph)
		}
		if ph.Gravity >= ph.Total {
			t.Fatalf("gravity (%v) exceeds total (%v)", ph.Gravity, ph.Total)
		}
	}
	m := res.MeanPhases()
	if m.Gravity < m.DD || m.Gravity < m.TB {
		t.Fatalf("gravity should dominate the step: %+v", m)
	}
}

// bruteForce computes exact pairwise forces for verification.
func bruteForce(ps []float64, i int) (fx, fy, fz float64) {
	n := len(ps) / pstride
	var f [3]float64
	fs := f[:]
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		accumulateXYZ(fs, 0, ps[i*pstride], ps[i*pstride+1], ps[i*pstride+2],
			ps[j*pstride], ps[j*pstride+1], ps[j*pstride+2], ps[j*pstride+6])
	}
	return fs[0], fs[1], fs[2]
}

func TestTreeWalkApproximatesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 300
	ps := make([]float64, 0, n*pstride)
	for i := 0; i < n; i++ {
		x, y, z := plummer(rng, [3]float64{0.5, 0.5, 0.5})
		ps = append(ps, x, y, z, 0, 0, 0, 1.0/float64(n))
	}
	tree := buildTree(ps, [3]float64{0, 0, 0}, [3]float64{1, 1, 1}, 0)
	if math.Abs(tree.mass-1.0) > 1e-9 {
		t.Fatalf("tree mass %v, want 1", tree.mass)
	}
	const theta = 0.5
	for i := 0; i < 20; i++ {
		fs := make([]float64, 3*n)
		walk(tree, ps, i, fs, theta)
		bx, by, bz := bruteForce(ps, i)
		mag := math.Sqrt(bx*bx+by*by+bz*bz) + 1e-12
		dx := fs[3*i] - bx
		dy := fs[3*i+1] - by
		dz := fs[3*i+2] - bz
		rel := math.Sqrt(dx*dx+dy*dy+dz*dz) / mag
		if rel > 0.12 {
			t.Fatalf("particle %d: BH force off by %.1f%%", i, rel*100)
		}
	}
}

func TestThetaZeroIsExact(t *testing.T) {
	// With theta -> 0 every node opens to leaves, and leaves accumulate
	// their centre of mass; with leafCap 1 it would be exact. Use small
	// leaves and tight theta to land within numerical slop.
	rng := rand.New(rand.NewSource(7))
	n := 64
	ps := make([]float64, 0, n*pstride)
	for i := 0; i < n; i++ {
		ps = append(ps, rng.Float64(), rng.Float64(), rng.Float64(), 0, 0, 0, 1.0)
	}
	tree := buildTree(ps, [3]float64{0, 0, 0}, [3]float64{1, 1, 1}, 0)
	for i := 0; i < n; i++ {
		fs := make([]float64, 3*n)
		walk(tree, ps, i, fs, 1e-9)
		bx, by, bz := bruteForce(ps, i)
		if math.Abs(fs[3*i]-bx)+math.Abs(fs[3*i+1]-by)+math.Abs(fs[3*i+2]-bz) > 1e-6*(1+math.Abs(bx)+math.Abs(by)+math.Abs(bz))*3 {
			// Leaves of up to leafCap particles still approximate
			// within-leaf contributions by their COM split; tolerate
			// small relative error.
			mag := math.Sqrt(bx*bx+by*by+bz*bz) + 1e-12
			dx, dy, dz := fs[3*i]-bx, fs[3*i+1]-by, fs[3*i+2]-bz
			if math.Sqrt(dx*dx+dy*dy+dz*dz)/mag > 0.02 {
				t.Fatalf("theta~0 walk differs from brute force at %d", i)
			}
		}
	}
}

func TestParticlesConservedAcrossDD(t *testing.T) {
	rt := newRT(4)
	app, err := New(rt, Config{Particles: 600, Depth: 1, Steps: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, idx := range app.pieces.Keys() {
		total += app.pieces.Get(idx).(*piece).n()
	}
	if total != 600 {
		t.Fatalf("particles not conserved: %d", total)
	}
}

func TestPlummerIsCentrallyConcentrated(t *testing.T) {
	rt := newRT(4)
	app, err := New(rt, Config{Particles: 2000, Depth: 2, Steps: 1, Seed: 3,
		Center: [3]float64{0.30, 0.34, 0.62}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, idx := range app.pieces.Keys() {
		counts[idx.I()] = app.pieces.Get(idx).(*piece).n()
	}
	min, max := 1<<30, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max < 2*min {
		t.Fatalf("Plummer distribution too uniform: min %d max %d", min, max)
	}
}

func TestOwnerOfRoundTrip(t *testing.T) {
	rt := newRT(2)
	app, err := New(rt, Config{Particles: 64, Depth: 2, Steps: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < app.cfg.NumPieces(); id++ {
		lo, hi := app.pieceBounds(id)
		cx := (lo[0] + hi[0]) / 2
		cy := (lo[1] + hi[1]) / 2
		cz := (lo[2] + hi[2]) / 2
		if got := app.ownerOf(cx, cy, cz); got != id {
			t.Fatalf("piece %d centre maps to %d", id, got)
		}
	}
}

func TestORBLoadBalancingHelps(t *testing.T) {
	// Fig 12: over-decomposition + ORB beats no LB.
	run := func(withLB bool) float64 {
		rt := newRT(8)
		cfg := Config{Particles: 3000, Depth: 2, Steps: 6, Seed: 5,
			Center: [3]float64{0.30, 0.34, 0.62}}
		if withLB {
			rt.SetBalancer(lb.ORB{})
			cfg.LBPeriod = 2
		}
		res, err := Run(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Post-LB steady state.
		sum := 0.0
		for _, p := range res.Phases[3:] {
			sum += p.Total
		}
		return sum / 3
	}
	noLB := run(false)
	withLB := run(true)
	if withLB >= noLB {
		t.Fatalf("ORB LB did not help: %v vs %v", withLB, noLB)
	}
}

func TestOverdecompositionHelps(t *testing.T) {
	// One piece per PE (500m_NO) vs 8 pieces per PE (500m).
	run := func(depth int) float64 {
		rt := newRT(8)
		res, err := Run(rt, Config{Particles: 3000, Depth: depth, Steps: 4, Seed: 6,
			Center: [3]float64{0.30, 0.34, 0.62}})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range res.Phases[1:] {
			sum += p.Total
		}
		return sum / float64(len(res.Phases)-1)
	}
	one := run(1)   // 8 pieces on 8 PEs
	eight := run(2) // 64 pieces on 8 PEs
	if eight >= one {
		t.Fatalf("over-decomposition did not help: 1/PE %v vs 8/PE %v", one, eight)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		rt := newRT(4)
		res, err := Run(rt, Config{Particles: 500, Depth: 1, Steps: 3, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Elapsed)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
