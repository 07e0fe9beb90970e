package lb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"charmgo/internal/charm"
)

// mkObjs builds a synthetic object view: loads[i] on PE pesOf[i].
func mkObjs(loads []float64, pesOf []int) []charm.LBObject {
	objs := make([]charm.LBObject, len(loads))
	for i := range loads {
		objs[i] = charm.LBObject{Idx: charm.Idx1(i), PE: pesOf[i], Load: loads[i]}
	}
	return objs
}

func mkPEs(n int, speeds ...float64) []charm.LBPE {
	pes := make([]charm.LBPE, n)
	for i := range pes {
		s := 1.0
		if i < len(speeds) {
			s = speeds[i]
		}
		pes[i] = charm.LBPE{ID: i, Speed: s}
	}
	return pes
}

// apply returns the post-balance effective max/avg ratio.
func apply(objs []charm.LBObject, pes []charm.LBPE, migs []charm.Migration) (maxEff, avgEff float64) {
	dest := map[int]int{}
	for i, o := range objs {
		dest[i] = o.PE
	}
	for _, m := range migs {
		for i, o := range objs {
			if o.Idx == m.Idx {
				dest[i] = m.ToPE
			}
		}
	}
	load := map[int]float64{}
	for i := range objs {
		load[dest[i]] += objs[i].Load
	}
	for _, p := range pes {
		eff := load[p.ID] / p.Speed
		if eff > maxEff {
			maxEff = eff
		}
		avgEff += eff
	}
	avgEff /= float64(len(pes))
	return maxEff, avgEff
}

func skewed(n, pes int, seed int64) ([]charm.LBObject, []charm.LBPE) {
	rng := rand.New(rand.NewSource(seed))
	loads := make([]float64, n)
	on := make([]int, n)
	for i := range loads {
		loads[i] = 0.001 + rng.Float64()*0.01
		on[i] = rng.Intn(pes / 4) // everything crowded onto the first quarter
	}
	return mkObjs(loads, on), mkPEs(pes)
}

func strategies() map[string]charm.Strategy {
	return map[string]charm.Strategy{
		"greedy":      Greedy{},
		"refine":      Refine{},
		"hybrid":      Hybrid{GroupSize: 4},
		"distributed": Distributed{Seed: 1},
	}
}

func TestStrategiesReduceImbalance(t *testing.T) {
	for name, s := range strategies() {
		objs, pes := skewed(200, 16, 42)
		before, avg := Imbalance(objs, pes)
		migs := s.Balance(objs, pes)
		after, _ := apply(objs, pes, migs)
		if after > before*0.7 {
			t.Errorf("%s: imbalance barely improved: %.4f -> %.4f (avg %.4f)", name, before, after, avg)
		}
		if after < avg*0.99 {
			t.Errorf("%s: post-balance max %.4f below average %.4f — accounting bug", name, after, avg)
		}
	}
}

func TestStrategiesConserveObjects(t *testing.T) {
	// Every migration must reference a real object and an in-range PE,
	// and no object may appear twice.
	for name, s := range strategies() {
		objs, pes := skewed(150, 12, 7)
		migs := s.Balance(objs, pes)
		seen := map[charm.Index]bool{}
		for _, m := range migs {
			if seen[m.Idx] {
				t.Errorf("%s: duplicate migration for %v", name, m.Idx)
			}
			seen[m.Idx] = true
			if m.ToPE < 0 || m.ToPE >= len(pes) {
				t.Errorf("%s: migration to out-of-range PE %d", name, m.ToPE)
			}
		}
	}
}

func TestStrategiesNoopWhenBalanced(t *testing.T) {
	// A perfectly balanced uniform assignment should trigger few moves.
	loads := make([]float64, 64)
	on := make([]int, 64)
	for i := range loads {
		loads[i] = 0.01
		on[i] = i % 8
	}
	objs := mkObjs(loads, on)
	pes := mkPEs(8)
	for name, s := range map[string]charm.Strategy{
		"refine":      Refine{},
		"distributed": Distributed{Seed: 3},
	} {
		if migs := s.Balance(objs, pes); len(migs) > 4 {
			t.Errorf("%s: moved %d objects on a balanced system", name, len(migs))
		}
	}
}

func TestGreedySpeedAware(t *testing.T) {
	// One PE at half speed should end with about half the raw load.
	loads := make([]float64, 100)
	on := make([]int, 100)
	for i := range loads {
		loads[i] = 0.01
	}
	objs := mkObjs(loads, on)
	pes := mkPEs(4, 1, 1, 1, 0.5)
	migs := Greedy{}.Balance(objs, pes)
	raw := map[int]float64{}
	dest := map[int]int{}
	for i, o := range objs {
		dest[i] = o.PE
	}
	for _, m := range migs {
		dest[int(int64(m.Idx.A))] = m.ToPE
	}
	for i := range objs {
		raw[dest[i]] += objs[i].Load
	}
	slowShare := raw[3] / 1.0
	fastShare := raw[0]
	if slowShare > 0.75*fastShare {
		t.Fatalf("slow PE got %.4f, fast PE %.4f — not speed-aware", raw[3], raw[0])
	}
}

func TestRefineMovesLittle(t *testing.T) {
	// Mild imbalance: refine should fix it with far fewer moves than
	// greedy's full remap.
	loads := make([]float64, 80)
	on := make([]int, 80)
	for i := range loads {
		loads[i] = 0.01
		on[i] = i % 8
	}
	// Pile 8 extra objects onto PE 0.
	for i := 0; i < 8; i++ {
		loads = append(loads, 0.01)
		on = append(on, 0)
	}
	objs := mkObjs(loads, on)
	pes := mkPEs(8)
	rMigs := Refine{}.Balance(objs, pes)
	if len(rMigs) == 0 {
		t.Fatal("refine did nothing about the hot PE")
	}
	// Only ~8 excess objects sit on PE 0; refine must not remap the world.
	if len(rMigs) > 12 {
		t.Fatalf("refine moved %d objects to fix an 8-object excess", len(rMigs))
	}
	after, avg := apply(objs, pes, rMigs)
	if after > 1.25*avg {
		t.Fatalf("refine left max/avg at %.3f", after/avg)
	}
}

func TestORBRespectsGeometry(t *testing.T) {
	// Objects on a line; ORB over 4 PEs should produce 4 contiguous
	// spatial runs.
	n := 64
	objs := make([]charm.LBObject, n)
	for i := range objs {
		objs[i] = charm.LBObject{
			Idx: charm.Idx1(i), PE: 0, Load: 0.01,
			Pos: [3]float64{float64(i), 0, 0}, HasPos: true,
		}
	}
	pes := mkPEs(4)
	migs := ORB{}.Balance(objs, pes)
	dest := make([]int, n)
	for _, m := range migs {
		dest[int(int64(m.Idx.A))] = m.ToPE
	}
	// Count PE changes along the line: contiguous decomposition has 3.
	changes := 0
	for i := 1; i < n; i++ {
		if dest[i] != dest[i-1] {
			changes++
		}
	}
	if changes != 3 {
		t.Fatalf("ORB produced %d boundary changes along a line, want 3 (dest=%v)", changes, dest)
	}
	counts := map[int]int{}
	for _, d := range dest {
		counts[d]++
	}
	for pe, c := range counts {
		if c < n/8 {
			t.Fatalf("ORB starved PE %d with %d objects", pe, c)
		}
	}
}

func TestORBFallsBackWithoutPositions(t *testing.T) {
	objs, pes := skewed(100, 8, 5)
	migs := ORB{}.Balance(objs, pes)
	after, _ := apply(objs, pes, migs)
	before, _ := Imbalance(objs, pes)
	if after > before {
		t.Fatalf("ORB fallback worsened imbalance: %.4f -> %.4f", before, after)
	}
}

func TestDistributedDeterministic(t *testing.T) {
	objs, pes := skewed(300, 32, 9)
	a := Distributed{Seed: 5}.Balance(objs, pes)
	objs2, pes2 := skewed(300, 32, 9)
	b := Distributed{Seed: 5}.Balance(objs2, pes2)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %d vs %d migrations", len(a), len(b))
	}
	for i := range a {
		if a[i].Idx != b[i].Idx || a[i].ToPE != b[i].ToPE {
			t.Fatalf("nondeterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestHybridScalesGroups(t *testing.T) {
	objs, pes := skewed(400, 64, 11)
	before, avg := Imbalance(objs, pes)
	migs := Hybrid{GroupSize: 8}.Balance(objs, pes)
	after, _ := apply(objs, pes, migs)
	if after > before*0.5 {
		t.Fatalf("hybrid: %.4f -> %.4f (avg %.4f)", before, after, avg)
	}
	// Hierarchical decision must be cheaper than centralized at scale.
	h := Hybrid{}.DecisionCost(1<<17, 1<<15)
	g := Greedy{}.DecisionCost(1<<17, 1<<15)
	if h >= g {
		t.Fatalf("hybrid decision cost %.6f not below greedy %.6f at scale", h, g)
	}
}

func TestDistributedCostIndependentOfScale(t *testing.T) {
	small := Distributed{}.DecisionCost(1<<10, 1<<7)
	big := Distributed{}.DecisionCost(1<<20, 1<<17)
	if big > 3*small {
		t.Fatalf("distributed decision cost grew with scale: %.6f -> %.6f", small, big)
	}
}

func TestMetaSkipsWhenBalanced(t *testing.T) {
	loads := make([]float64, 64)
	on := make([]int, 64)
	for i := range loads {
		loads[i] = 0.01
		on[i] = i % 8
	}
	objs := mkObjs(loads, on)
	pes := mkPEs(8)
	m := &Meta{Inner: Greedy{}}
	if migs := m.Balance(objs, pes); len(migs) != 0 {
		t.Fatalf("meta balanced a balanced system: %d moves", len(migs))
	}
	if m.skips != 1 || m.triggers != 0 {
		t.Fatalf("skips=%d triggers=%d", m.skips, m.triggers)
	}
}

func TestMetaTriggersOnImbalance(t *testing.T) {
	objs, pes := skewed(200, 16, 13)
	m := &Meta{Inner: Greedy{}, Threshold: 1.1}
	migs := m.Balance(objs, pes)
	if len(migs) == 0 || m.triggers != 1 {
		t.Fatalf("meta failed to trigger: %d moves, %d triggers", len(migs), m.triggers)
	}
	// Cheap when skipping, expensive when triggering.
	costAfterTrigger := m.DecisionCost(200, 16)
	m.Balance(mkObjs([]float64{0.01, 0.01}, []int{0, 1}), mkPEs(2))
	costAfterSkip := m.DecisionCost(200, 16)
	if costAfterSkip >= costAfterTrigger {
		t.Fatalf("meta cost model: skip %.6f >= trigger %.6f", costAfterSkip, costAfterTrigger)
	}
}

// Property: for any workload, greedy never leaves a PE with more than the
// largest object above the optimal effective bound.
func TestPropertyGreedyBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		p := 2 + rng.Intn(30)
		loads := make([]float64, n)
		on := make([]int, n)
		maxL, total := 0.0, 0.0
		for i := range loads {
			loads[i] = rng.Float64() * 0.01
			on[i] = rng.Intn(p)
			total += loads[i]
			if loads[i] > maxL {
				maxL = loads[i]
			}
		}
		objs := mkObjs(loads, on)
		pes := mkPEs(p)
		migs := Greedy{}.Balance(objs, pes)
		after, _ := apply(objs, pes, migs)
		opt := total / float64(p)
		return after <= opt+maxL+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: no strategy ever increases the effective maximum load.
func TestPropertyNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		objs, pes := skewed(100, 8, seed)
		before, _ := Imbalance(objs, pes)
		for _, s := range strategies() {
			migs := s.Balance(objs, pes)
			after, _ := apply(objs, pes, migs)
			if after > before*1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGreedy4k(b *testing.B) {
	objs, pes := skewed(4096, 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy{}.Balance(objs, pes)
	}
}

func BenchmarkDistributed4k(b *testing.B) {
	objs, pes := skewed(4096, 256, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Distributed{Seed: 1}.Balance(objs, pes)
	}
}

func TestCommAwareColocatesPartners(t *testing.T) {
	// 8 pairs of heavily communicating objects scattered across 4 PEs:
	// the comm-aware strategy should put each pair on one PE.
	arr := &charm.Array{}
	var objs []charm.LBObject
	for pair := 0; pair < 8; pair++ {
		a, b := charm.Idx1(pair*2), charm.Idx1(pair*2+1)
		objs = append(objs,
			charm.LBObject{Array: arr, Idx: a, PE: pair % 4, Load: 0.01,
				Comm: []charm.CommEdge{{ToArray: arr, ToIdx: b, Bytes: 1 << 20}}},
			charm.LBObject{Array: arr, Idx: b, PE: (pair + 1) % 4, Load: 0.01,
				Comm: []charm.CommEdge{{ToArray: arr, ToIdx: a, Bytes: 1 << 20}}},
		)
	}
	pes := mkPEs(4)
	migs := CommAware{}.Balance(objs, pes)
	dest := map[charm.Index]int{}
	for _, o := range objs {
		dest[o.Idx] = o.PE
	}
	for _, m := range migs {
		dest[m.Idx] = m.ToPE
	}
	together := 0
	for pair := 0; pair < 8; pair++ {
		if dest[charm.Idx1(pair*2)] == dest[charm.Idx1(pair*2+1)] {
			together++
		}
	}
	if together < 7 {
		t.Fatalf("only %d of 8 pairs co-located: %v", together, dest)
	}
	// Load still balanced: 4 pairs per... 8 pairs over 4 PEs = 2 pairs each.
	count := map[int]int{}
	for _, pe := range dest {
		count[pe]++
	}
	for pe, c := range count {
		if c > 6 {
			t.Fatalf("PE %d overloaded with %d objects", pe, c)
		}
	}
}

func TestCommAwareWithoutCommBehavesLikeGreedy(t *testing.T) {
	objs, pes := skewed(100, 8, 21)
	migs := CommAware{}.Balance(objs, pes)
	after, _ := apply(objs, pes, migs)
	before, _ := Imbalance(objs, pes)
	if after > before*0.6 {
		t.Fatalf("comm-aware without comm data failed to balance: %.4f -> %.4f", before, after)
	}
}
