package power

import (
	"slices"
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

// worker is an iterative compute chare: each Step message does fixed work
// and re-sends itself until the step budget is exhausted.
type worker struct {
	Steps int
	Work  float64
}

func (w *worker) Pup(p *pup.Pup) {
	p.Int(&w.Steps)
	p.Float64(&w.Work)
}

// runPolicy executes an iterative job under a policy, returning the total
// time and the hottest temperature observed.
func runPolicy(policy Policy, steps int) (float64, float64) {
	m := machine.New(machine.ThermalTestbed(4)) // 4 nodes x 4 PEs
	m.SpreadCooling(0.8, 1.35)
	rt := charm.New(m)
	var arr *charm.Array
	remaining := 0
	handlers := []charm.Handler{
		func(obj charm.Chare, ctx *charm.Ctx, msg any) {
			w := obj.(*worker)
			ctx.Charge(w.Work)
			w.Steps--
			if w.Steps > 0 {
				ctx.Send(arr, ctx.Index(), 0, nil)
				return
			}
			remaining--
			if remaining == 0 {
				ctx.Exit()
			}
		},
	}
	arr = rt.DeclareArray("workers", func() charm.Chare { return &worker{} }, handlers,
		charm.ArrayOpts{Migratable: true})
	const numObjs = 64
	remaining = numObjs
	for i := 0; i < numObjs; i++ {
		arr.InsertOn(charm.Idx1(i), &worker{Steps: steps, Work: 0.25}, i%rt.NumPEs())
	}
	ctl := NewController(rt, policy)
	ctl.Start()
	arr.Broadcast(0, nil)
	end := rt.Run()
	return float64(end), m.HottestEver()
}

func TestBaseOverheats(t *testing.T) {
	_, maxTemp := runPolicy(Base, 40)
	if maxTemp <= 55 {
		t.Fatalf("uncontrolled run peaked at only %.1f°C — thermal model too tame", maxTemp)
	}
}

func TestDVFSRestrainsTemperature(t *testing.T) {
	for _, pol := range []Policy{NaiveDVFS, DVFSWithLB, MetaTemp} {
		_, maxTemp := runPolicy(pol, 40)
		if maxTemp > 56 { // threshold 50 + overshoot slack
			t.Fatalf("%v peaked at %.1f°C, threshold is 50", pol, maxTemp)
		}
	}
}

func TestLBReducesDVFSTimingPenalty(t *testing.T) {
	// The Fig 4 ordering: Base fastest (but hot), NaiveDVFS slowest,
	// DVFS+LB in between, MetaTemp at least as good as periodic LB.
	base, _ := runPolicy(Base, 40)
	naive, _ := runPolicy(NaiveDVFS, 40)
	withLB, _ := runPolicy(DVFSWithLB, 40)
	meta, _ := runPolicy(MetaTemp, 40)
	if base >= naive {
		t.Fatalf("Base (%.1fs) should be fastest; NaiveDVFS %.1fs", base, naive)
	}
	if withLB >= naive {
		t.Fatalf("DVFS+LB (%.1fs) should beat NaiveDVFS (%.1fs)", withLB, naive)
	}
	if meta > naive {
		t.Fatalf("MetaTemp (%.1fs) should beat NaiveDVFS (%.1fs)", meta, naive)
	}
}

func TestControllerTicksOncePerPeriod(t *testing.T) {
	cfg := machine.ThermalTestbed(2)
	m := machine.New(cfg)
	rt := charm.New(m)
	ctl := NewController(rt, NaiveDVFS)
	ctl.SamplePeriod = 0.5
	ctl.Start()
	// A probe halfway between ticks: by then the loop has ticked once per
	// elapsed period, and every PE runs at one of the DVFS levels (its
	// speed is its node's clock over the base clock).
	probes := 0
	var probe func()
	probe = func() {
		now := rt.Now()
		if want := int(now / ctl.SamplePeriod); ctl.ticks != want {
			t.Errorf("t=%v: controller ticked %d times, want %d", now, ctl.ticks, want)
		}
		for pe := 0; pe < m.NumPEs(); pe++ {
			s := m.Speed(pe)
			if !slices.ContainsFunc(cfg.DVFSLevelsGHz, func(f float64) bool { return f/cfg.BaseFreqGHz == s }) {
				t.Errorf("t=%v: PE %d at speed %v, not a DVFS level %v over %v GHz", now, pe, s, cfg.DVFSLevelsGHz, cfg.BaseFreqGHz)
			}
		}
		probes++
		rt.Engine().At(now+ctl.SamplePeriod, probe)
	}
	rt.Engine().At(0.25, probe)
	rt.Engine().At(5.2, rt.Engine().Stop)
	rt.Engine().Run()
	if probes != 10 || ctl.ticks != 10 {
		t.Fatalf("over 5.2 s at a 0.5 s period: %d probes, %d ticks, want 10 each", probes, ctl.ticks)
	}
}

func TestPolicyStrings(t *testing.T) {
	for pol, want := range map[Policy]string{
		Base: "Base", NaiveDVFS: "Naive_DVFS", DVFSWithLB: "DVFS+LB", MetaTemp: "MetaTemp",
	} {
		if pol.String() != want {
			t.Fatalf("%d.String() = %q", pol, pol.String())
		}
	}
}
