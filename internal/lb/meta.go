package lb

import "charmgo/internal/charm"

// Meta is the MetaLB / RTS-triggered adaptive wrapper (§III-A, §III-C, and
// the cloud experiments of §IV-F): the application reaches the AtSync
// barrier frequently, but the inner strategy only runs when the measured
// imbalance makes rebalancing worth its cost. Otherwise Balance returns no
// migrations and the barrier is nearly free.
type Meta struct {
	// Inner is the strategy to run when triggered.
	Inner charm.Strategy
	// Threshold is the max/avg effective-load ratio that triggers
	// balancing; 1.10 by default.
	Threshold float64
	// MinGain is the minimum predicted per-interval saving (seconds)
	// that justifies a rebalance; defaults to the inner strategy's
	// decision cost.
	MinGain float64

	triggers       int
	skips          int
	lastWasTrigger bool
}

// Name implements charm.Strategy.
func (m *Meta) Name() string { return "MetaLB(" + m.Inner.Name() + ")" }

// Balance implements charm.Strategy.
func (m *Meta) Balance(objs []charm.LBObject, pes []charm.LBPE) []charm.Migration {
	maxEff, avgEff := Imbalance(objs, pes)
	thr := m.Threshold
	if thr <= 0 {
		thr = 1.10
	}
	gainNeeded := m.MinGain
	if gainNeeded <= 0 {
		if cm, ok := m.Inner.(charm.StrategyCostModeler); ok {
			gainNeeded = cm.DecisionCost(len(objs), len(pes))
		} else {
			gainNeeded = 1e-3
		}
	}
	if avgEff <= 0 || maxEff/avgEff < thr || (maxEff-avgEff) < gainNeeded {
		m.skips++
		m.lastWasTrigger = false
		return nil
	}
	m.triggers++
	m.lastWasTrigger = true
	return m.Inner.Balance(objs, pes)
}

// DecisionCost models the trigger check plus, conservatively, the inner
// cost amortized over the trigger rate; the runtime charges per call, so we
// report the trigger-path cost only when we actually balanced last.
func (m *Meta) DecisionCost(nObjs, nPEs int) float64 {
	base := 2e-5 // imbalance statistics are already in the LB database
	if m.lastWasTrigger {
		if cm, ok := m.Inner.(charm.StrategyCostModeler); ok {
			return base + cm.DecisionCost(nObjs, nPEs)
		}
		return base + 1e-3
	}
	return base
}

// Imbalance returns the maximum and average effective (speed-adjusted)
// PE load implied by the object view.
func Imbalance(objs []charm.LBObject, pes []charm.LBPE) (maxEff, avgEff float64) {
	maxID := 0
	for _, p := range pes {
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	load := make([]float64, maxID+1)
	for _, o := range objs {
		if o.PE <= maxID {
			load[o.PE] += o.Load
		}
	}
	n := 0
	for _, p := range pes {
		eff := load[p.ID] / maxf(p.Speed, 1e-9)
		if eff > maxEff {
			maxEff = eff
		}
		avgEff += eff
		n++
	}
	if n > 0 {
		avgEff /= float64(n)
	}
	return maxEff, avgEff
}
