package charm

import "testing"

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
