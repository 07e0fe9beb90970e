package determinism

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/machine"
	"charmgo/internal/parsim"
	"charmgo/internal/pup"
)

// The save-reuse torture aims stragglers at state-saving storage that has
// been used before. Every element runs a chain of ticks whose grain differs
// per element, so the shards' speculated ticks drift apart in virtual time,
// and pokes its neighbours from inside the chain: a poke lands just behind
// the neighbour's in-flight tick and rolls it back. At SnapInterval 2 every
// rollback is on one of the two boundary touches — the one that packed the
// image (empty log, nothing to replay) or the last before the interval
// retires (a full log) — and at 3 and adaptive on those and everything
// between; by then each element's one save has been through dozens of
// intervals. Element state folds in Ctx.Now and the delivery order, so
// replaying a retired interval's record, or a stale image, changes the
// digest. Mid-run a load-statistics reset invalidates every live interval
// (the storage stays) and a quarter of the elements migrate (the storage is
// released and built again at the destination).

type poker struct {
	ID, N int
	Acc   uint64
}

func (p *poker) Pup(pp *pup.Pup) {
	pp.Int(&p.ID)
	pp.Int(&p.N)
	pp.Uint64(&p.Acc)
}

func (p *poker) fold(v int, now des.Time) {
	p.N++
	p.Acc = (p.Acc^uint64(v))*0x9E3779B97F4A7C15 + math.Float64bits(float64(now))
}

const (
	epTick charm.EP = iota
	epPoke
)

func runPokers(rt *charm.Runtime, pes, n, steps int) string {
	var arr *charm.Array
	done := charm.CallbackFunc(0, func(ctx *charm.Ctx, _ any) { ctx.Exit() })
	handlers := []charm.Handler{
		epTick: func(obj charm.Chare, ctx *charm.Ctx, msg any) {
			p, step := obj.(*poker), msg.(int)
			p.fold(step, ctx.Now())
			ctx.Charge(float64(4+p.ID%5) * 1e-6)
			if step%2 == p.ID%2 {
				ctx.Send(arr, charm.Idx1((p.ID+1+step%3)%n), epPoke, step)
			}
			if step == steps/2 && p.ID%4 == 1 {
				ctx.Migrate((ctx.MyPE() + 1) % ctx.NumPEs())
			}
			if step < steps {
				ctx.Send(arr, charm.Idx1(p.ID), epTick, step+1)
			} else {
				ctx.Contribute(0.0, charm.MinF64, done)
			}
		},
		epPoke: func(obj charm.Chare, ctx *charm.Ctx, msg any) {
			obj.(*poker).fold(-msg.(int), ctx.Now())
			ctx.Charge(3e-7)
		},
	}
	arr = rt.DeclareArray("pokers", func() charm.Chare { return &poker{} }, handlers,
		charm.ArrayOpts{PureHandlers: true, Migratable: true, TrackComm: true})
	for i := 0; i < n; i++ {
		arr.InsertOn(charm.Idx1(i), &poker{ID: i}, i%pes)
	}
	for i := 0; i < n; i++ {
		arr.Send(charm.Idx1(i), epTick, 1)
	}
	// A third of the way in (a tick is ~8 µs): the meter reset of a
	// load-balancing round, as the global event it is there.
	rt.Engine().At(des.Time(steps)*8e-6/3, rt.ResetLoadStats)
	rt.Run()

	var sb strings.Builder
	for i := 0; i < n; i++ {
		p := arr.Get(charm.Idx1(i)).(*poker)
		fmt.Fprintf(&sb, "%d@%d:%d:%x ", i, arr.PEOf(charm.Idx1(i)), p.N, p.Acc)
	}
	return sb.String()
}

func TestSaveReuseTorture(t *testing.T) {
	const pes, n, steps = 4, 12, 1000
	assertReplayTorture(t, "pokers", []int{2, 3, 0},
		func() machine.Config { return machine.Testbed(pes) },
		func(rt *charm.Runtime) string { return runPokers(rt, pes, n, steps) },
		true,
		func(t *testing.T, k int, rt *charm.Runtime) {
			st := rt.Engine().(*parsim.Engine).EngineStats()
			sv := rt.SpecSaveStats()
			t.Logf("K=%d: %+v migrations=%d", k, sv, rt.Stats.Migrations)
			if st.RolledBack < 100 || rt.Stats.Migrations != n/4 || sv.Invalidations < n/4 {
				t.Errorf("K=%d: %d rollbacks, %d migrations, %d invalidations: the torture has gone stale", k, st.RolledBack, rt.Stats.Migrations, sv.Invalidations)
			}
			if k > 0 && sv.Retired < 10*n {
				t.Errorf("K=%d: %d retirements over %d elements: the saves are not being reused", k, sv.Retired, n)
			}
			// Replays per restore range over 0 (the touch that packed the
			// image) .. K-1 (the last touch before retirement).
			switch {
			case k == 2 && !(0 < sv.Replays && sv.Replays < sv.Restores):
				t.Errorf("K=2: %d replays over %d restores: want rollbacks on both boundary touches", sv.Replays, sv.Restores)
			case k == 3 && !(0 < sv.Replays && sv.Replays < 2*sv.Restores):
				t.Errorf("K=3: %d replays over %d restores: want rollbacks spread over the interval", sv.Replays, sv.Restores)
			}
		})
}
