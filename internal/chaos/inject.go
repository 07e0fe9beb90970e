package chaos

import (
	"math/rand"

	"charmgo/internal/charm"
	"charmgo/internal/des"
)

// injector arms a plan's faults on a runtime. Crashes and straggler
// windows become global engine events at their planned virtual instants;
// drop and delay windows become a charm.FaultFilter consulted on every
// transmit.
//
// Determinism: OnTransmit is called from commit context in global commit
// order, which is identical on all three backends, and the seeded RNG is
// consulted only when a window actually matches a message — so adding a
// fault window perturbs no random draw outside it.
type injector struct {
	ctrl  *Controller
	plan  Plan
	rng   *rand.Rand
	drops []Fault // drop/delay windows, plan order
}

func newInjector(c *Controller, plan Plan) *injector {
	inj := &injector{ctrl: c, plan: plan,
		rng: rand.New(rand.NewSource(plan.Seed*7919 + 13))}
	for _, f := range plan.Faults {
		if f.Kind == FaultDrop || f.Kind == FaultDelay {
			inj.drops = append(inj.drops, f)
		}
	}
	return inj
}

// arm schedules the plan's timed faults. Crash events are deliberately
// plain globals, not epoch-guarded: a fault is a physical event and must
// strike regardless of how many recoveries preceded it.
func (inj *injector) arm() {
	rt := inj.ctrl.rt
	eng := rt.Engine()
	mach := rt.Machine()
	for _, f := range inj.plan.Faults {
		f := f
		switch f.Kind {
		case FaultCrash:
			eng.At(des.Time(f.At), func() {
				if inj.ctrl.err != nil || rt.Exited() || rt.PEDead(f.PE) {
					return
				}
				inj.ctrl.noteCrash(f.PE)
			})
		case FaultWarn:
			// A predicted failure: the prediction is delivered at At and
			// the crash itself lands at Until. Between the two the
			// controller evacuates the doomed PE at the next quiescent
			// cut; the landing event decides absorb-vs-crash.
			eng.At(des.Time(f.At), func() { inj.ctrl.warnDelivered(f) })
			eng.At(des.Time(f.Until), func() { inj.ctrl.warnLands(f) })
		case FaultStraggler:
			eng.At(des.Time(f.At), func() {
				if inj.ctrl.err != nil || rt.Exited() || rt.PEDead(f.PE) {
					return
				}
				mach.SetInterference(f.PE, f.Factor)
				if h := rt.Trace(); h != nil {
					h.Emit(charm.Event{Kind: charm.KFault, At: rt.Now(), PE: f.PE, Entry: string(charm.FaultStraggler)})
				}
			})
			eng.At(des.Time(f.Until), func() {
				if rt.Exited() || rt.PEDead(f.PE) {
					return
				}
				mach.SetInterference(f.PE, 0)
			})
		}
	}
	if len(inj.drops) > 0 {
		rt.SetFaultFilter(inj)
	}
}

// OnTransmit implements charm.FaultFilter: it is asked about every
// message handed to the network and decides, per matching window, whether
// to lose it or slow it down.
func (inj *injector) OnTransmit(srcPE, dstPE, size int, at des.Time) (bool, des.Time) {
	var extra des.Time
	for _, f := range inj.drops {
		if float64(at) < f.At || float64(at) >= f.Until {
			continue
		}
		if f.PE >= 0 && f.PE != dstPE {
			continue
		}
		if f.SrcPE >= 0 && f.SrcPE != srcPE {
			continue
		}
		if inj.rng.Float64() >= f.Prob {
			continue
		}
		if f.Kind == FaultDrop {
			return true, 0
		}
		extra += des.Time(f.Delay)
	}
	return false, extra
}

var _ charm.FaultFilter = (*injector)(nil)
