// Package power implements the temperature-aware DVFS control of §III-C:
// the RTS samples per-chip temperatures periodically and uses DVFS to keep
// them under a threshold, while load balancing absorbs the heterogeneity
// that frequency scaling introduces. The policies mirror the Fig 4
// configurations: Base (no control), NaiveDVFS (DVFS without LB), periodic
// DVFS+LB, and MetaTemp (DVFS with cost/benefit-triggered LB).
package power

import (
	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/lb"
)

// Policy selects a Fig 4 configuration.
type Policy int

const (
	// Base runs uncontrolled: full frequency, no LB.
	Base Policy = iota
	// NaiveDVFS throttles hot chips but never rebalances.
	NaiveDVFS
	// DVFSWithLB throttles hot chips and rebalances every LBPeriod.
	DVFSWithLB
	// MetaTemp throttles hot chips and rebalances whenever the measured
	// benefit outweighs the cost (MetaLB trigger).
	MetaTemp
)

func (p Policy) String() string {
	switch p {
	case Base:
		return "Base"
	case NaiveDVFS:
		return "Naive_DVFS"
	case DVFSWithLB:
		return "DVFS+LB"
	case MetaTemp:
		return "MetaTemp"
	}
	return "?"
}

// Controller is the periodic temperature/DVFS loop.
type Controller struct {
	rt     *charm.Runtime
	policy Policy

	// ThresholdC is the chip temperature ceiling (50°C in Fig 4).
	ThresholdC float64
	// MarginC is the hysteresis band below the threshold within which
	// frequencies are held; below it they step back up.
	MarginC float64
	// SamplePeriod is the temperature sampling interval.
	SamplePeriod des.Time
	// LBPeriod is the rebalance interval for DVFSWithLB.
	LBPeriod des.Time

	meta   *lb.Meta
	lastLB des.Time
	ticks  int // sampling periods run so far
}

// NewController builds the control loop for a runtime. It installs the
// policy's load-balancing strategy on the runtime.
func NewController(rt *charm.Runtime, policy Policy) *Controller {
	c := &Controller{
		rt:           rt,
		policy:       policy,
		ThresholdC:   50,
		MarginC:      3,
		SamplePeriod: 1.0,
		LBPeriod:     10,
	}
	switch policy {
	case DVFSWithLB:
		rt.SetBalancer(lb.Greedy{})
	case MetaTemp:
		c.meta = &lb.Meta{Inner: lb.Greedy{}, Threshold: 1.08}
		rt.SetBalancer(c.meta)
	default:
		rt.SetBalancer(nil)
	}
	return c
}

// Start begins periodic sampling. The loop stops itself when the runtime
// exits.
func (c *Controller) Start() {
	c.tickLater()
}

func (c *Controller) tickLater() {
	c.rt.Engine().At(c.rt.Now()+c.SamplePeriod, c.tick)
}

func (c *Controller) tick() {
	if c.rt.Exited() {
		return
	}
	rt := c.rt
	m := rt.Machine()
	dt := float64(c.SamplePeriod)
	m.SampleUtilization(c.SamplePeriod)
	m.StepThermal(dt)

	if c.policy != Base {
		for n := 0; n < m.NumNodes(); n++ {
			node := m.Node(n)
			switch {
			case node.TempC() > c.ThresholdC:
				m.StepNodeFreq(n, -1)
			case node.TempC() < c.ThresholdC-c.MarginC:
				m.StepNodeFreq(n, +1)
			}
		}
	}

	// Rebalance if the policy says so. DVFS has changed PE speeds, which
	// the strategies see through the speed-aware LBView.
	now := rt.Now()
	switch c.policy {
	case DVFSWithLB:
		if now-c.lastLB >= c.LBPeriod {
			c.lastLB = now
			rt.Rebalance()
		}
	case MetaTemp:
		// Probe the imbalance cheaply first; the rebalance barrier is
		// only paid when the projected gain beats the cost and enough
		// time passed to amortize the previous one.
		objs, pes := rt.LBView()
		maxE, avgE := lb.Imbalance(objs, pes)
		if avgE > 0 && maxE/avgE > 1.15 && now-c.lastLB >= 3*c.SamplePeriod {
			c.lastLB = now
			rt.Rebalance()
		}
	}

	c.ticks++
	c.tickLater()
}
