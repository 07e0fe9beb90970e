package ctrlpoint

import (
	"math"
	"testing"
)

// quadratic is a synthetic performance surface with a single optimum.
func quadratic(opt int) func(v int) float64 {
	return func(v int) float64 {
		d := float64(v - opt)
		return 1.0 + 0.01*d*d
	}
}

func TestConvergesToOptimum(t *testing.T) {
	for _, opt := range []int{3, 14, 27} {
		s := NewSystem()
		p := s.Register("pipeline", 1, 40, 1, EffectMoreOverlap)
		f := quadratic(opt)
		for i := 0; i < 60 && !p.locked; i++ {
			s.Observe(f(p.Value()))
		}
		if !p.locked {
			t.Fatalf("opt=%d: never converged (value %d)", opt, p.Value())
		}
		if math.Abs(float64(p.Value()-opt)) > 3 {
			t.Fatalf("opt=%d: converged to %d", opt, p.Value())
		}
	}
}

func TestStaysInRange(t *testing.T) {
	s := NewSystem()
	p := s.Register("k", 2, 8, 5, EffectUnknown)
	// Adversarial metric: always worse, forcing lots of reversals.
	v := 0.0
	for i := 0; i < 50; i++ {
		v += 1
		s.Observe(v)
		if p.Value() < 2 || p.Value() > 8 {
			t.Fatalf("value %d escaped [2,8]", p.Value())
		}
	}
}

func TestReprobesAfterLock(t *testing.T) {
	s := NewSystem()
	p := s.Register("k", 1, 32, 1, EffectUnknown)
	f := quadratic(6)
	for i := 0; i < 40 && !p.locked; i++ {
		s.Observe(f(p.Value()))
	}
	if !p.locked {
		t.Fatal("did not lock")
	}
	locked := p.Value()
	// The optimum shifts (phase change); re-probes must eventually move.
	g := quadratic(20)
	moved := false
	for i := 0; i < 200; i++ {
		s.Observe(g(p.Value()))
		if p.Value() != locked {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("tuner never re-probed after phase change")
	}
}

func TestRegisterValidation(t *testing.T) {
	s := NewSystem()
	defer func() {
		if recover() == nil {
			t.Fatal("bad range should panic")
		}
	}()
	s.Register("bad", 10, 5, 7, EffectUnknown)
}

func TestMultiplePointsTunedTogether(t *testing.T) {
	s := NewSystem()
	p1 := s.Register("x", 1, 20, 10, EffectUnknown)
	p2 := s.Register("y", 1, 20, 10, EffectUnknown)
	f := func() float64 {
		dx, dy := float64(p1.Value()-4), float64(p2.Value()-16)
		return 1 + 0.01*dx*dx + 0.01*dy*dy
	}
	for i := 0; i < 120 && !(p1.locked && p2.locked); i++ {
		s.Observe(f())
	}
	if math.Abs(float64(p1.Value()-4)) > 5 || math.Abs(float64(p2.Value()-16)) > 5 {
		t.Fatalf("joint tuning off: x=%d y=%d", p1.Value(), p2.Value())
	}
}
