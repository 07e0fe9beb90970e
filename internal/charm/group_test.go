package charm

import (
	"testing"

	"charmgo/internal/pup"
)

type peService struct {
	PE   int
	Hits int64
}

func (s *peService) Pup(p *pup.Pup) {
	p.Int(&s.PE)
	p.Int64(&s.Hits)
}

func TestGroupOneMemberPerPE(t *testing.T) {
	rt := testRT(8)
	g := rt.DeclareGroup("svc", func(pe int) Chare { return &peService{PE: pe} }, nil)
	for pe := 0; pe < 8; pe++ {
		if got := g.Local(pe).(*peService).PE; got != pe {
			t.Fatalf("member on PE %d says %d", pe, got)
		}
	}
}

func TestGroupSendAndLocal(t *testing.T) {
	rt := testRT(4)
	var g *Group
	handlers := []Handler{
		func(obj Chare, ctx *Ctx, msg any) {
			s := obj.(*peService)
			s.Hits += msg.(int64)
			if s.PE != ctx.MyPE() {
				t.Errorf("member %d executed on PE %d", s.PE, ctx.MyPE())
			}
			if ctx.GroupLocal(g) != obj {
				t.Error("GroupLocal does not return the executing member")
			}
			ctx.Charge(1e-6)
		},
	}
	g = rt.DeclareGroup("svc", func(pe int) Chare { return &peService{PE: pe} }, handlers)
	rt.Boot(func(ctx *Ctx) {
		for pe := 0; pe < 4; pe++ {
			ctx.SendGroup(g, pe, 0, int64(pe+1), nil)
		}
	})
	rt.Run()
	for pe := 0; pe < 4; pe++ {
		if got := g.Local(pe).(*peService).Hits; got != int64(pe+1) {
			t.Fatalf("PE %d member hits %d, want %d", pe, got, pe+1)
		}
	}
}

func TestGroupBroadcast(t *testing.T) {
	rt := testRT(16)
	handlers := []Handler{
		func(obj Chare, ctx *Ctx, msg any) {
			obj.(*peService).Hits++
		},
	}
	g := rt.DeclareGroup("svc", func(pe int) Chare { return &peService{PE: pe} }, handlers)
	g.BroadcastGroup(0, nil)
	rt.Run()
	for pe := 0; pe < 16; pe++ {
		if g.Local(pe).(*peService).Hits != 1 {
			t.Fatalf("PE %d missed the group broadcast", pe)
		}
	}
}

func TestGroupBroadcastRespectsActivePEs(t *testing.T) {
	rt := testRT(8)
	handlers := []Handler{
		func(obj Chare, ctx *Ctx, msg any) { obj.(*peService).Hits++ },
	}
	g := rt.DeclareGroup("svc", func(pe int) Chare { return &peService{PE: pe} }, handlers)
	rt.SetActivePEs(4)
	g.BroadcastGroup(0, nil)
	rt.Run()
	for pe := 0; pe < 4; pe++ {
		if g.Local(pe).(*peService).Hits != 1 {
			t.Fatalf("active PE %d missed the broadcast", pe)
		}
	}
	for pe := 4; pe < 8; pe++ {
		if g.Local(pe).(*peService).Hits != 0 {
			t.Fatalf("inactive PE %d received the broadcast", pe)
		}
	}
}

func TestGroupBroadcastFromElement(t *testing.T) {
	rt := testRT(8)
	var g *Group
	gHandlers := []Handler{
		func(obj Chare, ctx *Ctx, msg any) { obj.(*peService).Hits++ },
	}
	g = rt.DeclareGroup("svc", func(pe int) Chare { return &peService{PE: pe} }, gHandlers)
	arr := rt.DeclareArray("drv", func() Chare { return &counter{} },
		[]Handler{func(obj Chare, ctx *Ctx, msg any) {
			ctx.BroadcastGroup(g, 0, nil, nil)
		}}, ArrayOpts{})
	arr.InsertOn(Idx1(0), &counter{}, 5) // initiate from a non-zero PE
	arr.Send(Idx1(0), 0, nil)
	rt.Run()
	for pe := 0; pe < 8; pe++ {
		if g.Local(pe).(*peService).Hits != 1 {
			t.Fatalf("PE %d missed element-initiated group broadcast", pe)
		}
	}
}

func TestMulticastDeliversToSection(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{})
	for i := 0; i < 20; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	section := []Index{Idx1(2), Idx1(5), Idx1(7), Idx1(11), Idx1(13)}
	rt.Boot(func(ctx *Ctx) {
		ctx.Multicast(arr, section, epBump, int64(3), nil)
	})
	rt.Run()
	want := map[int]bool{2: true, 5: true, 7: true, 11: true, 13: true}
	for i := 0; i < 20; i++ {
		c := arr.Get(Idx1(i)).(*counter)
		if want[i] && c.N != 3 {
			t.Fatalf("section member %d missed multicast: %d", i, c.N)
		}
		if !want[i] && c.N != 0 {
			t.Fatalf("non-member %d received multicast", i)
		}
	}
}

func TestMulticastCheaperThanIndividualSends(t *testing.T) {
	// All 16 targets on one PE: the multicast is one wire message vs 16.
	run := func(useMcast bool) (uint64, float64) {
		rt := testRT(4)
		arr := declCounters(rt, ArrayOpts{})
		var section []Index
		for i := 0; i < 16; i++ {
			arr.InsertOn(Idx1(i), &counter{}, 3)
			section = append(section, Idx1(i))
		}
		rt.Boot(func(ctx *Ctx) {
			if useMcast {
				ctx.Multicast(arr, section, epBump, int64(1), &SendOpts{Bytes: 4096})
			} else {
				for _, idx := range section {
					ctx.SendOpt(arr, idx, epBump, int64(1), &SendOpts{Bytes: 4096})
				}
			}
		})
		end := rt.Run()
		return rt.Stats.MsgsSent, float64(end)
	}
	mMsgs, mTime := run(true)
	sMsgs, sTime := run(false)
	if mMsgs >= sMsgs {
		t.Fatalf("multicast sent %d wire messages vs %d individual", mMsgs, sMsgs)
	}
	if mTime >= sTime {
		t.Fatalf("multicast (%v) should beat individual sends (%v)", mTime, sTime)
	}
}

func TestMulticastFollowsMigratedElements(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{Migratable: true})
	var section []Index
	for i := 0; i < 8; i++ {
		arr.Insert(Idx1(i), &counter{})
		section = append(section, Idx1(i))
	}
	// Scramble locations behind the sender's cache.
	for i := 0; i < 8; i++ {
		if el := arr.lookup(Idx1(i)); el != nil {
			rt.moveElement(el, (el.pe+2)%4, false)
		}
	}
	rt.Boot(func(ctx *Ctx) {
		ctx.Multicast(arr, section, epBump, int64(7), nil)
	})
	rt.Run()
	for i := 0; i < 8; i++ {
		if c := arr.Get(Idx1(i)).(*counter); c.N != 7 {
			t.Fatalf("migrated member %d missed multicast: %d", i, c.N)
		}
	}
}

func TestMulticastCountsTowardQuiescence(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{})
	var section []Index
	for i := 0; i < 6; i++ {
		arr.Insert(Idx1(i), &counter{})
		section = append(section, Idx1(i))
	}
	order := []string{}
	handlers2 := []Handler{func(obj Chare, ctx *Ctx, msg any) {
		order = append(order, "kick")
		ctx.Multicast(arr, section, epBump, int64(1), nil)
	}}
	arr2 := rt.DeclareArray("kicker", func() Chare { return &counter{} }, handlers2, ArrayOpts{})
	arr2.Insert(Idx1(0), &counter{})
	arr2.Send(Idx1(0), 0, nil)
	rt.StartQD(CallbackFunc(0, func(ctx *Ctx, _ any) { order = append(order, "qd") }))
	rt.Run()
	if len(order) == 0 || order[len(order)-1] != "qd" {
		t.Fatalf("QD fired before multicast drained: %v", order)
	}
	for i := 0; i < 6; i++ {
		if arr.Get(Idx1(i)).(*counter).N != 1 {
			t.Fatalf("member %d missed", i)
		}
	}
}
