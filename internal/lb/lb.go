// Package lb provides the load-balancing strategy suite of §III-A: a
// mature framework with centralized (Greedy, Refine, ORB), hierarchical
// (Hybrid), and distributed (gossip-based) schemes, plus the MetaLB
// adaptive trigger that invokes balancing only when the benefit outweighs
// the cost.
//
// Every strategy is speed-aware: PE capacity is proportional to the
// measured relative speed reported by the runtime (which folds in DVFS
// levels and cloud interference), so the same strategies serve the thermal
// (Fig 4), cloud (Figs 16, 17), and homogeneous (Figs 8, 9, 12) scenarios.
package lb

import (
	"container/heap"
	"math/rand"
	"sort"

	"charmgo/internal/charm"
)

// objRef pairs an object with its index in the strategy's working slices.
type objRef struct {
	obj  charm.LBObject
	dest int
}

// peHeap orders PEs by effective load ascending (load divided by speed).
type peHeap struct {
	ids   []int
	load  []float64 // assigned raw load per PE id
	speed []float64
}

func (h *peHeap) eff(id int) float64 {
	s := h.speed[id]
	if s <= 0 {
		s = 1e-9
	}
	return h.load[id] / s
}
func (h *peHeap) Len() int { return len(h.ids) }
func (h *peHeap) Less(i, j int) bool {
	ei, ej := h.eff(h.ids[i]), h.eff(h.ids[j])
	if ei != ej {
		return ei < ej
	}
	return h.ids[i] < h.ids[j]
}
func (h *peHeap) Swap(i, j int) { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *peHeap) Push(x any)    { h.ids = append(h.ids, x.(int)) }
func (h *peHeap) Pop() any {
	old := h.ids
	n := len(old)
	v := old[n-1]
	h.ids = old[:n-1]
	return v
}

// assignGreedy maps objects (largest first) onto the PE with the lowest
// effective load, returning the destination PE per object. base carries
// pre-existing load per PE (e.g. from objects pinned elsewhere).
func assignGreedy(objs []charm.LBObject, pes []charm.LBPE, base []float64) []int {
	order := make([]int, len(objs))
	for i := range order {
		order[i] = i
	}
	// Ties break on object identity, not enumeration order, so the
	// resulting placement is a pure function of the (load, identity) set:
	// two runs whose objects arrive in different per-PE orders — e.g. a
	// run perturbed by a proactive evacuation — still converge to the
	// same mapping at the next greedy round.
	sort.Slice(order, func(a, b int) bool {
		oa, ob := objs[order[a]], objs[order[b]]
		if oa.Load != ob.Load {
			return oa.Load > ob.Load
		}
		var na, nb string
		if oa.Array != nil {
			na = oa.Array.Name()
		}
		if ob.Array != nil {
			nb = ob.Array.Name()
		}
		if na != nb {
			return na < nb
		}
		return oa.Idx.Less(ob.Idx)
	})
	h := &peHeap{load: make([]float64, 0), speed: make([]float64, 0)}
	maxID := 0
	for _, p := range pes {
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	h.load = make([]float64, maxID+1)
	h.speed = make([]float64, maxID+1)
	for _, p := range pes {
		if base != nil {
			h.load[p.ID] = base[p.ID]
		}
		h.speed[p.ID] = p.Speed
		h.ids = append(h.ids, p.ID)
	}
	heap.Init(h)
	dest := make([]int, len(objs))
	for _, oi := range order {
		id := h.ids[0]
		dest[oi] = id
		h.load[id] += objs[oi].Load
		heap.Fix(h, 0)
	}
	return dest
}

// Greedy is the centralized GreedyLB: objects sorted by load descending are
// assigned to the least-loaded PE.
type Greedy struct{}

// Name implements charm.Strategy.
func (Greedy) Name() string { return "GreedyLB" }

// Balance implements charm.Strategy.
func (Greedy) Balance(objs []charm.LBObject, pes []charm.LBPE) []charm.Migration {
	dest := assignGreedy(objs, pes, nil)
	return diff(objs, dest)
}

// DecisionCost models a centralized O(n log n) decision plus a gather of
// all object stats.
func (Greedy) DecisionCost(nObjs, nPEs int) float64 {
	return 2e-4 + 8e-8*float64(nObjs)*log2f(nObjs) + 1e-6*float64(nPEs)
}

// Refine moves objects off overloaded PEs until the maximum effective load
// is within Tolerance of the average, minimizing migrations — RefineLB.
type Refine struct {
	// Tolerance is the acceptable max/avg ratio; 1.05 by default.
	Tolerance float64
}

// Name implements charm.Strategy.
func (Refine) Name() string { return "RefineLB" }

// Balance implements charm.Strategy.
func (r Refine) Balance(objs []charm.LBObject, pes []charm.LBPE) []charm.Migration {
	tol := r.Tolerance
	if tol <= 0 {
		tol = 1.05
	}
	dest := refine(objs, pes, tol)
	return diff(objs, dest)
}

// DecisionCost models the cheaper refinement pass.
func (Refine) DecisionCost(nObjs, nPEs int) float64 {
	return 1e-4 + 4e-8*float64(nObjs)*log2f(nObjs)
}

func refine(objs []charm.LBObject, pes []charm.LBPE, tol float64) []int {
	maxID := 0
	for _, p := range pes {
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	load := make([]float64, maxID+1)
	speed := make([]float64, maxID+1)
	present := make([]bool, maxID+1)
	for _, p := range pes {
		speed[p.ID] = p.Speed
		present[p.ID] = true
	}
	dest := make([]int, len(objs))
	perPE := make([][]int, maxID+1)
	totalCap := 0.0
	totalLoad := 0.0
	for i, o := range objs {
		pe := o.PE
		if pe > maxID || !present[pe] {
			pe = pes[0].ID // owner PE left the active set; re-place
		}
		dest[i] = pe
		load[pe] += o.Load
		perPE[pe] = append(perPE[pe], i)
		totalLoad += o.Load
	}
	for _, p := range pes {
		totalCap += p.Speed
	}
	if totalCap <= 0 || totalLoad <= 0 {
		return dest
	}
	// Target effective load per PE.
	target := totalLoad / totalCap
	eff := func(pe int) float64 {
		s := speed[pe]
		if s <= 0 {
			s = 1e-9
		}
		return load[pe] / s
	}
	// Donors: PEs above tol*target.
	donors := make([]int, 0)
	for _, p := range pes {
		if eff(p.ID) > tol*target {
			donors = append(donors, p.ID)
		}
	}
	sort.Slice(donors, func(i, j int) bool { return eff(donors[i]) > eff(donors[j]) })
	for _, d := range donors {
		// Move smallest-first so we overshoot as little as possible.
		objsHere := append([]int(nil), perPE[d]...)
		sort.Slice(objsHere, func(a, b int) bool {
			if objs[objsHere[a]].Load != objs[objsHere[b]].Load {
				return objs[objsHere[a]].Load < objs[objsHere[b]].Load
			}
			return objsHere[a] < objsHere[b]
		})
		for _, oi := range objsHere {
			if eff(d) <= tol*target {
				break
			}
			// Best receiver for THIS object: the PE whose effective load
			// after adding it is lowest. On heterogeneous-speed machines
			// that is not the PE with the lowest current effective load —
			// a slowed PE can read as underloaded yet be the worst place
			// to add work — so rank by post-add load, not current load.
			rcv, best := -1, 0.0
			for _, p := range pes {
				if p.ID == d {
					continue
				}
				after := eff(p.ID) + objs[oi].Load/maxf(speed[p.ID], 1e-9)
				if rcv < 0 || after < best || (after == best && p.ID < rcv) {
					rcv, best = p.ID, after
				}
			}
			if rcv < 0 || best >= eff(d) {
				break // no improvement possible
			}
			load[d] -= objs[oi].Load
			load[rcv] += objs[oi].Load
			dest[oi] = rcv
		}
	}
	return dest
}

// Rotate moves every object to the next PE — a degenerate strategy used by
// tests and as a worst-case migration-volume baseline.
type Rotate struct{}

// Name implements charm.Strategy.
func (Rotate) Name() string { return "RotateLB" }

// Balance implements charm.Strategy.
func (Rotate) Balance(objs []charm.LBObject, pes []charm.LBPE) []charm.Migration {
	n := len(pes)
	migs := make([]charm.Migration, 0, len(objs))
	for _, o := range objs {
		migs = append(migs, charm.Migration{Array: o.Array, Idx: o.Idx, ToPE: pes[(indexOf(pes, o.PE)+1)%n].ID})
	}
	return migs
}

func indexOf(pes []charm.LBPE, id int) int {
	for i, p := range pes {
		if p.ID == id {
			return i
		}
	}
	return 0
}

// diff converts an assignment vector into the minimal migration list, in
// one exact allocation.
func diff(objs []charm.LBObject, dest []int) []charm.Migration {
	n := 0
	for i, o := range objs {
		if dest[i] != o.PE {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	migs := make([]charm.Migration, 0, n)
	for i, o := range objs {
		if dest[i] != o.PE {
			migs = append(migs, charm.Migration{Array: o.Array, Idx: o.Idx, ToPE: dest[i]})
		}
	}
	return migs
}

// Hybrid is the hierarchical HybridLB of §IV-B: PEs form groups of
// GroupSize; a greedy pass balances within each group, then whole-group
// imbalances are corrected by moving objects from the hottest groups to the
// coldest. This bounds the decision cost at scale, which is why LeanMD
// needs it at 32k PEs (Fig 9).
type Hybrid struct {
	// GroupSize is the PEs per group; 0 picks ~sqrt(P).
	GroupSize int
}

// Name implements charm.Strategy.
func (Hybrid) Name() string { return "HybridLB" }

// Balance implements charm.Strategy.
func (hb Hybrid) Balance(objs []charm.LBObject, pes []charm.LBPE) []charm.Migration {
	g := hb.GroupSize
	if g <= 0 {
		g = 1
		for g*g < len(pes) {
			g++
		}
		if g < 8 {
			g = 8
		}
	}
	nGroups := (len(pes) + g - 1) / g
	groupOf := func(peIdx int) int { return peIdx / g }
	movedTo := map[int]int{} // object -> receiving group for cross-group donations

	// Index PEs by position in the pes slice.
	pos := map[int]int{}
	for i, p := range pes {
		pos[p.ID] = i
	}

	// Group-level totals, then cross-group donations via greedy matching.
	groupLoad := make([]float64, nGroups)
	groupCap := make([]float64, nGroups)
	for i, p := range pes {
		groupCap[groupOf(i)] += p.Speed
	}
	objGroups := make([][]int, nGroups)
	for i, o := range objs {
		gi := 0
		if pi, ok := pos[o.PE]; ok {
			gi = groupOf(pi)
		}
		groupLoad[gi] += o.Load
		objGroups[gi] = append(objGroups[gi], i)
	}
	totalLoad, totalCap := 0.0, 0.0
	for gi := 0; gi < nGroups; gi++ {
		totalLoad += groupLoad[gi]
		totalCap += groupCap[gi]
	}
	dest := make([]int, len(objs))
	if totalCap <= 0 {
		for i, o := range objs {
			dest[i] = o.PE
		}
		return diff(objs, dest)
	}
	// Cross-group refinement: donate smallest objects from over-target
	// groups to the most under-target groups.
	over := make([]int, 0)
	for gi := 0; gi < nGroups; gi++ {
		if groupCap[gi] > 0 && groupLoad[gi]/groupCap[gi] > 1.05*totalLoad/totalCap {
			over = append(over, gi)
		}
	}
	for _, gi := range over {
		target := totalLoad / totalCap * groupCap[gi]
		cand := append([]int(nil), objGroups[gi]...)
		sort.Slice(cand, func(a, b int) bool {
			if objs[cand[a]].Load != objs[cand[b]].Load {
				return objs[cand[a]].Load < objs[cand[b]].Load
			}
			return cand[a] < cand[b]
		})
		for _, oi := range cand {
			if groupLoad[gi] <= target {
				break
			}
			// Coldest group.
			best, bestEff := -1, 0.0
			for gj := 0; gj < nGroups; gj++ {
				if gj == gi || groupCap[gj] <= 0 {
					continue
				}
				e := groupLoad[gj] / groupCap[gj]
				if best < 0 || e < bestEff {
					best, bestEff = gj, e
				}
			}
			if best < 0 || bestEff >= groupLoad[gi]/groupCap[gi] {
				break
			}
			groupLoad[gi] -= objs[oi].Load
			groupLoad[best] += objs[oi].Load
			objGroups[best] = append(objGroups[best], oi)
			// Remove from gi's list lazily: mark via dest later; simplest
			// is to track membership in objGroups[best] and skip in gi's
			// greedy pass using a moved set.
			movedTo[oi] = best
		}
	}
	// Within-group greedy.
	for gi := 0; gi < nGroups; gi++ {
		lo, hi := gi*g, (gi+1)*g
		if hi > len(pes) {
			hi = len(pes)
		}
		groupPEs := pes[lo:hi]
		var local []charm.LBObject
		var localIdx []int
		for _, oi := range objGroups[gi] {
			if to, ok := movedTo[oi]; ok && to != gi {
				continue
			}
			local = append(local, objs[oi])
			localIdx = append(localIdx, oi)
		}
		d := assignGreedy(local, groupPEs, nil)
		for k, oi := range localIdx {
			dest[oi] = d[k]
		}
	}
	return diff(objs, dest)
}

// DecisionCost models the hierarchical decision: each group solves a
// problem of size n/groups concurrently.
func (hb Hybrid) DecisionCost(nObjs, nPEs int) float64 {
	g := hb.GroupSize
	if g <= 0 {
		g = 1
		for g*g < nPEs {
			g++
		}
		if g < 8 {
			g = 8
		}
	}
	groups := (nPEs + g - 1) / g
	per := float64(nObjs)/float64(groups) + 1
	return 1.5e-4 + 8e-8*per*log2f(int(per)) + 5e-7*float64(groups)
}

// Distributed is the gossip-based distributed strategy of Menon & Kalé
// (SC'13) used by AMR3D (Fig 8): PEs learn the global average through a few
// gossip rounds, and overloaded PEs push objects to probabilistically
// chosen underloaded PEs. No central bottleneck, so its decision cost is
// O(objects/PE + gossip rounds).
type Distributed struct {
	// Seed makes the probabilistic transfer deterministic.
	Seed int64
	// Hops is the number of gossip rounds (default 8).
	Hops int
}

// Name implements charm.Strategy.
func (Distributed) Name() string { return "DistributedLB" }

// Balance implements charm.Strategy.
func (d Distributed) Balance(objs []charm.LBObject, pes []charm.LBPE) []charm.Migration {
	rng := rand.New(rand.NewSource(d.Seed ^ 0x5eed))
	maxID := 0
	for _, p := range pes {
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	load := make([]float64, maxID+1)
	speed := make([]float64, maxID+1)
	for _, p := range pes {
		speed[p.ID] = p.Speed
	}
	perPE := make([][]int, maxID+1)
	totalLoad, totalCap := 0.0, 0.0
	for i, o := range objs {
		load[o.PE] += o.Load
		perPE[o.PE] = append(perPE[o.PE], i)
		totalLoad += o.Load
	}
	for _, p := range pes {
		totalCap += p.Speed
	}
	if totalCap <= 0 {
		return nil
	}
	target := totalLoad / totalCap
	dest := make([]int, len(objs))
	for i, o := range objs {
		dest[i] = o.PE
	}
	// Underloaded PEs advertise themselves with probability proportional
	// to their headroom (the gossip phase's outcome).
	var under []int
	var headroom []float64
	for _, p := range pes {
		have := load[p.ID] / maxf(speed[p.ID], 1e-9)
		if have < target {
			under = append(under, p.ID)
			headroom = append(headroom, (target-have)*speed[p.ID])
		}
	}
	if len(under) == 0 {
		return nil
	}
	cum := make([]float64, len(headroom))
	s := 0.0
	for i, h := range headroom {
		s += h
		cum[i] = s
	}
	pick := func() int {
		r := rng.Float64() * s
		i := sort.SearchFloat64s(cum, r)
		if i >= len(under) {
			i = len(under) - 1
		}
		return i
	}
	for _, p := range pes {
		if load[p.ID]/maxf(speed[p.ID], 1e-9) <= 1.02*target {
			continue
		}
		cand := append([]int(nil), perPE[p.ID]...)
		sort.Slice(cand, func(a, b int) bool {
			if objs[cand[a]].Load != objs[cand[b]].Load {
				return objs[cand[a]].Load < objs[cand[b]].Load
			}
			return cand[a] < cand[b]
		})
		for _, oi := range cand {
			if load[p.ID]/maxf(speed[p.ID], 1e-9) <= 1.02*target {
				break
			}
			// Probe up to 2 random underloaded PEs (Grapevine's
			// randomized probes) and take the first with room.
			for probe := 0; probe < 2; probe++ {
				ui := pick()
				u := under[ui]
				if headroom[ui] >= objs[oi].Load*0.5 {
					load[p.ID] -= objs[oi].Load
					load[u] += objs[oi].Load
					headroom[ui] -= objs[oi].Load
					if headroom[ui] < 0 {
						headroom[ui] = 0
					}
					dest[oi] = u
					break
				}
			}
		}
	}
	return diff(objs, dest)
}

// DecisionCost models the fully distributed decision: a handful of gossip
// rounds plus per-PE local work, independent of total object count.
func (d Distributed) DecisionCost(nObjs, nPEs int) float64 {
	hops := d.Hops
	if hops <= 0 {
		hops = 8
	}
	perPE := float64(nObjs)/float64(nPEs) + 1
	return 5e-5 + float64(hops)*1.5e-5 + 2e-7*perPE
}

// ORB performs Orthogonal Recursive Bisection over the objects' spatial
// coordinates, weighting splits by load — the strategy Barnes-Hut uses
// (§IV-C). Objects without coordinates fall back to greedy placement.
type ORB struct{}

// Name implements charm.Strategy.
func (ORB) Name() string { return "OrbLB" }

// Balance implements charm.Strategy.
func (ORB) Balance(objs []charm.LBObject, pes []charm.LBPE) []charm.Migration {
	dest := make([]int, len(objs))
	var spatial, rest []int
	for i, o := range objs {
		if o.HasPos {
			spatial = append(spatial, i)
		} else {
			rest = append(rest, i)
		}
	}
	if len(spatial) > 0 {
		orbSplit(objs, spatial, pes, dest)
	}
	if len(rest) > 0 {
		restObjs := make([]charm.LBObject, len(rest))
		for k, i := range rest {
			restObjs[k] = objs[i]
		}
		d := assignGreedy(restObjs, pes, nil)
		for k, i := range rest {
			dest[i] = d[k]
		}
	}
	return diff(objs, dest)
}

// DecisionCost models the central bisection.
func (ORB) DecisionCost(nObjs, nPEs int) float64 {
	return 2e-4 + 6e-8*float64(nObjs)*log2f(nObjs)
}

func orbSplit(objs []charm.LBObject, ids []int, pes []charm.LBPE, dest []int) {
	if len(ids) == 0 {
		return
	}
	if len(pes) == 1 {
		for _, i := range ids {
			dest[i] = pes[0].ID
		}
		return
	}
	// Split the PE set by capacity.
	half := len(pes) / 2
	capL := 0.0
	capT := 0.0
	for i, p := range pes {
		capT += p.Speed
		if i < half {
			capL += p.Speed
		}
	}
	frac := 0.5
	if capT > 0 {
		frac = capL / capT
	}
	// Longest spatial extent among the objects.
	lo := [3]float64{1e300, 1e300, 1e300}
	hi := [3]float64{-1e300, -1e300, -1e300}
	for _, i := range ids {
		for d := 0; d < 3; d++ {
			if objs[i].Pos[d] < lo[d] {
				lo[d] = objs[i].Pos[d]
			}
			if objs[i].Pos[d] > hi[d] {
				hi[d] = objs[i].Pos[d]
			}
		}
	}
	axis := 0
	for d := 1; d < 3; d++ {
		if hi[d]-lo[d] > hi[axis]-lo[axis] {
			axis = d
		}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		if objs[ids[a]].Pos[axis] != objs[ids[b]].Pos[axis] {
			return objs[ids[a]].Pos[axis] < objs[ids[b]].Pos[axis]
		}
		return ids[a] < ids[b]
	})
	total := 0.0
	for _, i := range ids {
		total += objs[i].Load
	}
	// Find the load-weighted split point.
	acc := 0.0
	cut := 0
	for k, i := range ids {
		acc += objs[i].Load
		cut = k + 1
		if acc >= frac*total {
			break
		}
	}
	if cut <= 0 {
		cut = 1
	}
	if cut >= len(ids) && len(ids) > 1 {
		cut = len(ids) - 1
	}
	orbSplit(objs, ids[:cut], pes[:half], dest)
	orbSplit(objs, ids[cut:], pes[half:], dest)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func log2f(n int) float64 {
	if n < 2 {
		return 1
	}
	l := 0.0
	for v := n; v > 1; v >>= 1 {
		l++
	}
	return l
}
