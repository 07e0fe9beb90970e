// Package ctrlpoint implements the introspective control system of §III-E:
// applications and the RTS register control points — tunable integer
// parameters annotated with their expected effects — and the control system
// observes performance, detects which direction helps, and steers each
// point toward its optimum, stabilizing once improvements stop (Fig 6).
package ctrlpoint

import "fmt"

// Effect describes the expected consequence of increasing a control point,
// part of the "expert knowledge" rule base.
type Effect int

const (
	// EffectUnknown lets the tuner probe both directions.
	EffectUnknown Effect = iota
	// EffectMoreOverlap: larger values increase communication/computation
	// overlap (e.g. pipeline stages) but add per-unit overhead.
	EffectMoreOverlap
	// EffectLargerGrain: larger values reduce overhead but reduce
	// parallelism (e.g. block size).
	EffectLargerGrain
)

// Point is one tunable parameter.
type Point struct {
	Name    string
	Min     int
	Max     int
	value   int
	Effect  Effect
	step    int
	dir     int
	locked  bool
	bestVal int
	best    float64
}

// Value returns the current setting.
func (p *Point) Value() int { return p.value }

// System is the control system: it owns the registered points and adjusts
// them from performance reports. Points are tuned one at a time
// (round-robin) so each point's observations reflect only its own moves.
type System struct {
	points    []*Point
	active    int
	sinceLock int
}

// NewSystem returns an empty control system.
func NewSystem() *System { return &System{} }

// Register adds a control point and returns it.
func (s *System) Register(name string, min, max, initial int, effect Effect) *Point {
	if min > max || initial < min || initial > max {
		panic(fmt.Sprintf("ctrlpoint: bad range %d..%d start %d", min, max, initial))
	}
	p := &Point{
		Name: name, Min: min, Max: max, value: initial, Effect: effect,
		step: maxi(1, (max-min)/4), dir: +1,
		bestVal: initial, best: -1,
	}
	s.points = append(s.points, p)
	return p
}

// Observe feeds one performance measurement (lower = better) taken with
// the points' current values; the system then adjusts the active point for
// the next measurement period using hill climbing with shrinking steps.
func (s *System) Observe(metric float64) {
	if len(s.points) == 0 {
		return
	}
	allLocked := true
	for _, p := range s.points {
		if !p.locked {
			allLocked = false
			break
		}
	}
	if allLocked {
		// Converged. Periodically re-probe one point in case the
		// application entered a new phase.
		s.sinceLock++
		if s.sinceLock >= 16 {
			s.sinceLock = 0
			p := s.points[s.active%len(s.points)]
			s.active++
			p.unlockForReprobe(metric)
		}
		return
	}
	for s.points[s.active%len(s.points)].locked {
		s.active++
	}
	s.points[s.active%len(s.points)].observe(metric)
}

// unlockForReprobe re-baselines a converged point and takes one
// exploratory step.
func (p *Point) unlockForReprobe(metric float64) {
	p.locked = false
	p.step = maxi(1, (p.Max-p.Min)/8)
	p.best = metric
	p.bestVal = p.value
	p.move()
}

func (p *Point) observe(metric float64) {
	if p.best < 0 {
		// First observation: establish the baseline, take a first step.
		p.best = metric
		p.bestVal = p.value
		p.move()
		return
	}
	if metric < p.best {
		// Improvement: remember and keep moving the same way.
		p.best = metric
		p.bestVal = p.value
		p.move()
		return
	}
	// Worse or equal: return toward the best known value, reverse, and
	// shrink the step.
	p.dir = -p.dir
	p.step /= 2
	if p.step < 1 {
		p.value = p.bestVal
		p.locked = true
		return
	}
	p.value = p.bestVal
	p.move()
}

func (p *Point) move() {
	p.value += p.dir * p.step
	if p.value > p.Max {
		p.value = p.Max
		p.dir = -1
	}
	if p.value < p.Min {
		p.value = p.Min
		p.dir = +1
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
