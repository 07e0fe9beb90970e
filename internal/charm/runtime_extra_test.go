package charm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"charmgo/internal/des"
	"charmgo/internal/machine"
)

func TestExecuteOnPE(t *testing.T) {
	rt := testRT(4)
	var ranOn, at = -1, des.Time(0)
	rt.ExecuteOnPE(2, 0.5, func(ctx *Ctx) {
		ranOn = ctx.MyPE()
		at = ctx.Now()
	})
	rt.Run()
	if ranOn != 2 {
		t.Fatalf("ran on PE %d, want 2", ranOn)
	}
	if at < 0.5 {
		t.Fatalf("ran at %v, want >= 0.5", at)
	}
}

func TestStallActivePEs(t *testing.T) {
	rt := testRT(4)
	rt.StallActivePEs(3.5)
	for p := 0; p < 4; p++ {
		if rt.BusyUntil(p) < 3.5 {
			t.Fatalf("PE %d busy until %v, want >= 3.5", p, rt.BusyUntil(p))
		}
	}
	if rt.MaxBusy() < 3.5 {
		t.Fatal("MaxBusy below stall")
	}
	// Stalling backwards is a no-op.
	rt.StallActivePEs(1.0)
	if rt.BusyUntil(0) < 3.5 {
		t.Fatal("stall moved busy horizon backwards")
	}
}

func TestRebalanceReportsAndResets(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{Migratable: true})
	for i := 0; i < 12; i++ {
		arr.InsertOn(Idx1(i), &counter{}, 0) // everything on PE 0
	}
	// One element that sends, so the window's send counters are nonzero.
	relay := rt.DeclareArray("relay", func() Chare { return &counter{} }, []Handler{
		func(obj Chare, ctx *Ctx, msg any) { ctx.Send(arr, Idx1(0), epBump, int64(1)) },
	}, ArrayOpts{Migratable: true})
	relay.InsertOn(Idx1(0), &counter{}, 0)
	rt.Boot(func(ctx *Ctx) {
		for i := 0; i < 12; i++ {
			ctx.Send(arr, Idx1(i), epBump, int64(1))
		}
		ctx.Send(relay, Idx1(0), 0, nil)
	})
	rt.Run()
	objs, _ := rt.LBView()
	if o := objs[len(objs)-1]; o.Array != relay || o.Msgs != 1 || o.SentB == 0 {
		t.Fatalf("relay's window before the round: %+v, want 1 message sent", o)
	}
	rt.SetBalancer(&moveStrategy{})
	var got LBReport
	rt.OnLB(func(r LBReport) { got = r })
	rep := rt.Rebalance()
	if rep.NumObjs != 13 {
		t.Fatalf("report objs %d, want 13", rep.NumObjs)
	}
	if got.NumObjs != 13 {
		t.Fatal("listener not invoked")
	}
	// moveStrategy sends everything to PE 0 where it already is: no moves.
	if rep.NumMoved != 0 {
		t.Fatalf("moved %d, want 0", rep.NumMoved)
	}
	// The rebalance opened a new LB database window: load and send counters
	// read "since the last round", as they do after an AtSync round.
	objs, _ = rt.LBView()
	for _, o := range objs {
		if o.Load != 0 || o.Msgs != 0 || o.SentB != 0 {
			t.Fatalf("window not reset: %+v", o)
		}
	}
}

func TestResetLoadStats(t *testing.T) {
	rt := testRT(2)
	arr := declCounters(rt, ArrayOpts{Migratable: true})
	arr.Insert(Idx1(0), &counter{})
	rt.Boot(func(ctx *Ctx) { ctx.Send(arr, Idx1(0), epBump, int64(1)) })
	rt.Run()
	objs, _ := rt.LBView()
	if objs[0].Load == 0 {
		t.Fatal("no load instrumented")
	}
	rt.ResetLoadStats()
	objs, _ = rt.LBView()
	if objs[0].Load != 0 {
		t.Fatal("ResetLoadStats left load behind")
	}
}

func TestProbablePE(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{})
	arr.Insert(Idx1(3), &counter{})
	home := arr.PEOf(Idx1(3))
	if got := rt.ProbablePE(arr, Idx1(3), (home+1)%4); got != home {
		t.Fatalf("cold probe says PE %d, want home %d", got, home)
	}
}

func TestBroadcastFromNonZeroPE(t *testing.T) {
	rt := testRT(8)
	arr := declCounters(rt, ArrayOpts{})
	for i := 0; i < 16; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	// An element on a non-zero PE initiates the broadcast.
	var src Index
	for i := 0; i < 16; i++ {
		if arr.PEOf(Idx1(i)) != 0 {
			src = Idx1(i)
			break
		}
	}
	handlers2 := []Handler{func(obj Chare, ctx *Ctx, msg any) {
		ctx.Broadcast(arr, epBump, int64(5), nil)
	}}
	arr2 := rt.DeclareArray("initiator", func() Chare { return &counter{} }, handlers2, ArrayOpts{})
	arr2.InsertOn(Idx1(0), &counter{}, arr.PEOf(src))
	arr2.Send(Idx1(0), 0, nil)
	rt.Run()
	for i := 0; i < 16; i++ {
		if c := arr.Get(Idx1(i)).(*counter); c.N != 5 {
			t.Fatalf("element %d missed broadcast from non-zero PE: %d", i, c.N)
		}
	}
}

func TestMaxPEsAndActivePEs(t *testing.T) {
	rt := testRT(8)
	if rt.MaxPEs() != 8 || rt.NumPEs() != 8 {
		t.Fatalf("MaxPEs=%d NumPEs=%d", rt.MaxPEs(), rt.NumPEs())
	}
	rt.SetActivePEs(4)
	if rt.MaxPEs() != 8 || rt.NumPEs() != 4 {
		t.Fatalf("after shrink: MaxPEs=%d NumPEs=%d", rt.MaxPEs(), rt.NumPEs())
	}
	rt.SetActivePEs(8)
	if rt.NumPEs() != 8 {
		t.Fatal("expand failed")
	}
}

func TestSetActivePEsRangeChecked(t *testing.T) {
	rt := testRT(4)
	for _, bad := range []int{0, -1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetActivePEs(%d) should panic", bad)
				}
			}()
			rt.SetActivePEs(bad)
		}()
	}
}

func TestDuplicateArrayNamePanics(t *testing.T) {
	rt := testRT(2)
	declCounters(rt, ArrayOpts{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate array name should panic")
		}
	}()
	declCounters(rt, ArrayOpts{})
}

func TestDuplicateInsertPanics(t *testing.T) {
	rt := testRT(2)
	arr := declCounters(rt, ArrayOpts{})
	arr.Insert(Idx1(0), &counter{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert should panic")
		}
	}()
	arr.Insert(Idx1(0), &counter{})
}

// Property: Index.Less is a strict total order consistent with equality.
func TestPropertyIndexOrder(t *testing.T) {
	f := func(a1, a2, b1, b2 uint64, k1, k2 uint8) bool {
		x := Index{Kind: k1%5 + 1, A: a1, B: a2}
		y := Index{Kind: k2%5 + 1, A: b1, B: b2}
		if x == y {
			return !x.Less(y) && !y.Less(x)
		}
		return x.Less(y) != y.Less(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: sorting by Less then walking Keys() yields strictly increasing
// unique indices.
func TestPropertyKeysSorted(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{})
	for i := 0; i < 50; i++ {
		arr.Insert(Idx2(i*7%13, i), &counter{})
	}
	keys := arr.Keys()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i].Less(keys[j]) }) {
		t.Fatal("Keys() not sorted")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			t.Fatal("duplicate keys")
		}
	}
}

func TestBarrierLatencyGrowsWithPEs(t *testing.T) {
	small := New(machine.New(machine.Testbed(8))).barrierLatency()
	big := New(machine.New(machine.Testbed(1024))).barrierLatency()
	if big <= small {
		t.Fatalf("barrier latency should grow with PE count: %v vs %v", small, big)
	}
}

// Property: under any interleaving of migrations and sends, every message
// is delivered exactly once — the location manager never loses or
// duplicates messages.
func TestPropertyDeliveryUnderMigration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := testRT(8)
		delivered := map[int64]int{}
		handlers := []Handler{
			func(obj Chare, ctx *Ctx, msg any) {
				delivered[msg.(int64)]++
				ctx.Charge(1e-6)
			},
		}
		arr := rt.DeclareArray("p", func() Chare { return &counter{} }, handlers,
			ArrayOpts{Migratable: true})
		const elems = 16
		for i := 0; i < elems; i++ {
			arr.Insert(Idx1(i), &counter{})
		}
		// Interleave bursts of sends with element migrations at staggered
		// virtual times.
		sent := 0
		for round := 0; round < 6; round++ {
			at := des.Time(round) * 1e-3
			rt.Engine().At(at, func() {
				ctx := rt.newCtx(rng.Intn(8), nil)
				for k := 0; k < 10; k++ {
					ctx.Send(arr, Idx1(rng.Intn(elems)), 0, int64(sent))
					sent++
				}
				rt.finishExec(ctx, nil)
			})
			rt.Engine().At(at+5e-4, func() {
				// Move a few random elements behind the senders' backs.
				for k := 0; k < 4; k++ {
					idx := Idx1(rng.Intn(elems))
					if el := arr.lookup(idx); el != nil {
						rt.moveElement(el, rng.Intn(8), false)
					}
				}
			})
		}
		rt.Run()
		if len(delivered) != sent {
			return false
		}
		for _, n := range delivered {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIdxName(t *testing.T) {
	a, b := IdxName("alice"), IdxName("bob")
	if a == b {
		t.Fatal("distinct names collided")
	}
	if a != IdxName("alice") {
		t.Fatal("IdxName not deterministic")
	}
	if a.Kind != KindName {
		t.Fatalf("kind %d", a.Kind)
	}
	// Usable as a chare index end to end.
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{})
	arr.Insert(IdxName("coordinator"), &counter{})
	rt.Boot(func(ctx *Ctx) {
		ctx.Send(arr, IdxName("coordinator"), epBump, int64(9))
	})
	rt.Run()
	if c := arr.Get(IdxName("coordinator")).(*counter); c.N != 9 {
		t.Fatalf("named chare missed message: %d", c.N)
	}
	// Spread check over many names.
	seen := map[Index]bool{}
	for i := 0; i < 2000; i++ {
		ix := IdxName(fmt.Sprintf("worker-%d", i))
		if seen[ix] {
			t.Fatalf("collision at %d", i)
		}
		seen[ix] = true
	}
}

func TestDiagnose(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{UsesAtSync: true, ResumeEP: epResume})
	for i := 0; i < 4; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	// Idle system.
	if s := rt.Diagnose(); !strings.Contains(s, "0 msgs in flight") {
		t.Fatalf("idle diagnose: %s", s)
	}
	// The AtSync barrier total is visible.
	if s := rt.Diagnose(); !strings.Contains(s, "AtSync barrier 0/4") {
		t.Fatalf("diagnose misses barrier state: %s", s)
	}
	// A message to a never-created element parks in the home buffer.
	rt.Boot(func(ctx *Ctx) {
		ctx.Send(arr, Idx1(99), epBump, int64(1))
	})
	rt.Run()
	s := rt.Diagnose()
	if !strings.Contains(s, "1 messages buffered for 1 uncreated elements") {
		t.Fatalf("diagnose misses pending buffer: %s", s)
	}
	if !strings.Contains(s, "1 msgs in flight") {
		t.Fatalf("diagnose misses in-flight count: %s", s)
	}
	// Messages and keys are counted apart: two more for the same key, one
	// for another.
	rt.Boot(func(ctx *Ctx) {
		ctx.Send(arr, Idx1(99), epBump, int64(1))
		ctx.Send(arr, Idx1(99), epBump, int64(1))
		ctx.Send(arr, Idx1(98), epBump, int64(1))
	})
	rt.Run()
	if s := rt.Diagnose(); !strings.Contains(s, "4 messages buffered for 2 uncreated elements") {
		t.Fatalf("diagnose miscounts the pending buffer: %s", s)
	}
}

func TestTopoMap3DLocality(t *testing.T) {
	m := machine.New(machine.Vesta(128)) // 8 nodes
	f := TopoMap3D(m, 8, 8, 8)
	// Neighbouring chares map to the same or adjacent nodes.
	per := m.Config().PEsPerNode
	far := 0
	total := 0
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			for k := 0; k < 7; k++ {
				a := f(Idx3(i, j, k), 128) / per
				b := f(Idx3(i, j, k+1), 128) / per
				pa := a * per
				pb := b * per
				if m.Hops(pa, pb) > 1 {
					far++
				}
				total++
			}
		}
	}
	if far > total/10 {
		t.Fatalf("%d of %d neighbour pairs are >1 hop apart", far, total)
	}
	// Every PE index is in range.
	for i := 0; i < 8; i++ {
		pe := f(Idx3(i, i%8, (i*3)%8), 128)
		if pe < 0 || pe >= 128 {
			t.Fatalf("mapped PE %d out of range", pe)
		}
	}
}

func TestEntryMethodPanicCarriesContext(t *testing.T) {
	rt := testRT(2)
	handlers := []Handler{func(obj Chare, ctx *Ctx, msg any) {
		panic("application bug")
	}}
	arr := rt.DeclareArray("explosive", func() Chare { return &counter{} }, handlers, ArrayOpts{})
	arr.Insert(Idx1(7), &counter{})
	arr.Send(Idx1(7), 0, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("handler panic swallowed")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"explosive", "[7]", "application bug", "PE"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic context missing %q: %s", want, msg)
			}
		}
	}()
	rt.Run()
}

func TestPauseLBDefersBarrier(t *testing.T) {
	rt := testRT(2)
	strat := &moveStrategy{}
	rt.SetBalancer(strat)
	resumed := 0
	handlers := []Handler{
		epBump:   func(obj Chare, ctx *Ctx, msg any) { ctx.AtSync() },
		epRecord: nil,
		epResume: func(obj Chare, ctx *Ctx, msg any) { resumed++ },
	}
	arr := rt.DeclareArray("paused", func() Chare { return &counter{} }, handlers,
		ArrayOpts{UsesAtSync: true, ResumeEP: epResume})
	for i := 0; i < 4; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	rt.PauseLB(true)
	arr.Broadcast(epBump, nil)
	rt.Run()
	if strat.calls != 0 || resumed != 0 {
		t.Fatalf("LB ran while paused: calls=%d resumed=%d", strat.calls, resumed)
	}
	rt.PauseLB(false) // releases the already-complete barrier
	rt.Run()
	if strat.calls != 1 || resumed != 4 {
		t.Fatalf("unpause did not release the barrier: calls=%d resumed=%d", strat.calls, resumed)
	}
}
