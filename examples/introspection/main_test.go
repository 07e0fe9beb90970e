package main

import (
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

type worker struct{ Work float64 }

func (w *worker) Pup(p *pup.Pup) { p.Float64(&w.Work) }

// loadProfile ranks the load database heaviest first and truncates to k.
func TestLoadProfile(t *testing.T) {
	rt := charm.New(machine.New(machine.Testbed(4)))
	arr := rt.DeclareArray("w", func() charm.Chare { return &worker{} },
		[]charm.Handler{func(obj charm.Chare, ctx *charm.Ctx, msg any) { ctx.Charge(obj.(*worker).Work) }},
		charm.ArrayOpts{Migratable: true})
	for i, work := range []float64{0.01, 0.03, 0.02} {
		arr.Insert(charm.Idx1(i), &worker{Work: work})
	}
	arr.Broadcast(0, nil)
	rt.Run()

	top := loadProfile(rt, 2)
	if len(top) != 2 {
		t.Fatalf("profile has %d objects, want 2", len(top))
	}
	if top[0].Idx != charm.Idx1(1) || top[1].Idx != charm.Idx1(2) || top[0].Load <= top[1].Load {
		t.Fatalf("profile not heaviest-first: %v (%v), %v (%v)", top[0].Idx, top[0].Load, top[1].Idx, top[1].Load)
	}
	if all := loadProfile(rt, 0); len(all) != 3 {
		t.Fatalf("k=0 returned %d objects, want all 3", len(all))
	}
}
