package charm

import (
	"testing"

	"charmgo/internal/des"
	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

// counter is a minimal chare used across the runtime tests.
type counter struct {
	N     int64
	Trace []int
}

func (c *counter) Pup(p *pup.Pup) {
	p.Int64(&c.N)
	pup.Slice(p, &c.Trace, (*pup.Pup).Int)
}

func testRT(numPEs int) *Runtime {
	return New(machine.New(machine.Testbed(numPEs)))
}

const (
	epBump EP = iota
	epRecord
	epResume
)

func declCounters(rt *Runtime, opts ArrayOpts) *Array {
	handlers := []Handler{
		epBump: func(obj Chare, ctx *Ctx, msg any) {
			c := obj.(*counter)
			c.N += msg.(int64)
			ctx.Charge(1e-6)
		},
		epRecord: func(obj Chare, ctx *Ctx, msg any) {
			c := obj.(*counter)
			c.Trace = append(c.Trace, msg.(int))
			ctx.Charge(1e-3) // keep the PE busy so later sends queue up
		},
		epResume: func(obj Chare, ctx *Ctx, msg any) {
			obj.(*counter).Trace = append(obj.(*counter).Trace, -1)
		},
	}
	return rt.DeclareArray("counters", func() Chare { return &counter{} }, handlers, opts)
}

func TestSendAndExecute(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{})
	for i := 0; i < 8; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	rt.Boot(func(ctx *Ctx) {
		for i := 0; i < 8; i++ {
			ctx.Send(arr, Idx1(i), epBump, int64(i))
		}
	})
	rt.Run()
	for i := 0; i < 8; i++ {
		c := arr.Get(Idx1(i)).(*counter)
		if c.N != int64(i) {
			t.Fatalf("element %d has N=%d, want %d", i, c.N, i)
		}
	}
	if rt.Now() <= 0 {
		t.Fatal("virtual time did not advance")
	}
	if rt.Stats.MsgsDelivered != 8 {
		t.Fatalf("delivered %d, want 8", rt.Stats.MsgsDelivered)
	}
}

func TestElementsSpreadAcrossPEs(t *testing.T) {
	rt := testRT(8)
	arr := declCounters(rt, ArrayOpts{})
	for i := 0; i < 64; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		used[arr.PEOf(Idx1(i))] = true
	}
	if len(used) < 6 {
		t.Fatalf("hash home map used only %d of 8 PEs", len(used))
	}
}

func TestCustomHomeMap(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{
		HomeMap: func(idx Index, n int) int { return idx.I() % n },
	})
	for i := 0; i < 8; i++ {
		arr.Insert(Idx1(i), &counter{})
		if got := arr.PEOf(Idx1(i)); got != i%4 {
			t.Fatalf("element %d on PE %d, want %d", i, got, i%4)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Stack several messages on a busy element; the high-priority (lower
	// value) one must execute before earlier-sent default ones.
	rt := testRT(1)
	arr := declCounters(rt, ArrayOpts{})
	arr.Insert(Idx1(0), &counter{})
	rt.Boot(func(ctx *Ctx) {
		ctx.SendOpt(arr, Idx1(0), epRecord, 1, &SendOpts{Prio: 10})
		ctx.SendOpt(arr, Idx1(0), epRecord, 2, &SendOpts{Prio: 10})
		ctx.SendOpt(arr, Idx1(0), epRecord, 3, &SendOpts{Prio: -5})
	})
	rt.Run()
	c := arr.Get(Idx1(0)).(*counter)
	// All three arrive at the same instant (same wire path), so only one
	// is popped after the other two are queued... ordering within the
	// queue is by priority.
	if len(c.Trace) != 3 {
		t.Fatalf("trace %v, want 3 entries", c.Trace)
	}
	pos := map[int]int{}
	for i, v := range c.Trace {
		pos[v] = i
	}
	if pos[3] > pos[2] {
		t.Fatalf("priority -5 message ran after priority 10: %v", c.Trace)
	}
	if pos[1] > pos[2] {
		t.Fatalf("FIFO violated among equal priorities: %v", c.Trace)
	}
}

func TestChargeAdvancesClock(t *testing.T) {
	rt := testRT(1)
	handlers := []Handler{func(obj Chare, ctx *Ctx, msg any) { ctx.Charge(0.5) }}
	arr := rt.DeclareArray("work", func() Chare { return &counter{} }, handlers, ArrayOpts{})
	arr.Insert(Idx1(0), &counter{})
	arr.Send(Idx1(0), 0, nil)
	end := rt.Run()
	if end < 0.5 {
		t.Fatalf("clock %v, want >= 0.5", end)
	}
	if rt.Machine().PE(0).BusyTime < 0.5 {
		t.Fatalf("PE busy time %v, want >= 0.5", rt.Machine().PE(0).BusyTime)
	}
}

func TestMessageDrivenOverlap(t *testing.T) {
	// Two elements on the same PE: while one's message is "in the
	// network", the PE should execute the other's — the total time must
	// be less than strictly serialized compute + 2 network latencies.
	rt := testRT(1)
	handlers := []Handler{func(obj Chare, ctx *Ctx, msg any) { ctx.Charge(0.1) }}
	arr := rt.DeclareArray("w", func() Chare { return &counter{} }, handlers, ArrayOpts{})
	arr.Insert(Idx1(0), &counter{})
	arr.Insert(Idx1(1), &counter{})
	rt.Boot(func(ctx *Ctx) {
		ctx.Send(arr, Idx1(0), 0, nil)
		ctx.Send(arr, Idx1(1), 0, nil)
	})
	end := rt.Run()
	if end > 0.21 {
		t.Fatalf("two independent 0.1s tasks took %v on one PE", end)
	}
}

func TestBroadcast(t *testing.T) {
	rt := testRT(8)
	arr := declCounters(rt, ArrayOpts{})
	for i := 0; i < 40; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	rt.Boot(func(ctx *Ctx) {
		ctx.Broadcast(arr, epBump, int64(7), nil)
	})
	rt.Run()
	for i := 0; i < 40; i++ {
		if c := arr.Get(Idx1(i)).(*counter); c.N != 7 {
			t.Fatalf("element %d missed broadcast: N=%d", i, c.N)
		}
	}
}

func TestReductionSum(t *testing.T) {
	rt := testRT(8)
	var result float64
	var resultAt des.Time
	handlers := []Handler{
		func(obj Chare, ctx *Ctx, msg any) {
			ctx.Contribute(float64(ctx.Index().I()), SumF64,
				CallbackFunc(0, func(ctx *Ctx, r any) {
					result = r.(float64)
					resultAt = ctx.Now()
				}))
		},
	}
	arr := rt.DeclareArray("red", func() Chare { return &counter{} }, handlers, ArrayOpts{})
	n := 50
	for i := 0; i < n; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	arr.Broadcast(0, nil)
	rt.Run()
	want := float64(n*(n-1)) / 2
	if result != want {
		t.Fatalf("reduction sum = %v, want %v", result, want)
	}
	if resultAt <= 0 {
		t.Fatal("reduction completed at time zero — collective cost unmodeled")
	}
}

func TestReductionMinMaxOverGenerations(t *testing.T) {
	rt := testRT(4)
	var mins, maxs []float64
	handlers := []Handler{
		func(obj Chare, ctx *Ctx, msg any) {
			v := float64(ctx.Index().I())
			ctx.Contribute(v, MinF64, CallbackFunc(0, func(ctx *Ctx, r any) {
				mins = append(mins, r.(float64))
			}))
			ctx.Contribute(-v, MinF64, CallbackFunc(0, func(ctx *Ctx, r any) {
				maxs = append(maxs, r.(float64))
			}))
		},
	}
	arr := rt.DeclareArray("red", func() Chare { return &counter{} }, handlers, ArrayOpts{})
	for i := 1; i <= 16; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	arr.Broadcast(0, nil)
	rt.Run()
	if len(mins) != 1 || mins[0] != 1 {
		t.Fatalf("min reduction got %v, want [1]", mins)
	}
	if len(maxs) != 1 || maxs[0] != -16 {
		t.Fatalf("second-generation reduction got %v, want [-16]", maxs)
	}
}

func TestReductionToElementCallback(t *testing.T) {
	rt := testRT(4)
	const (
		epGo EP = iota
		epResult
	)
	var got int64
	handlers := []Handler{
		epGo: func(obj Chare, ctx *Ctx, msg any) {
			ctx.Contribute(int64(1), SumI64, CallbackSend(ctx.rt.arrays[0], Idx1(0), epResult))
		},
		epResult: func(obj Chare, ctx *Ctx, msg any) {
			got = msg.(int64)
			ctx.Exit()
		},
	}
	arr := rt.DeclareArray("red", func() Chare { return &counter{} }, handlers, ArrayOpts{})
	for i := 0; i < 23; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	arr.Broadcast(epGo, nil)
	rt.Run()
	if got != 23 {
		t.Fatalf("element callback got %d, want 23", got)
	}
	if !rt.Exited() {
		t.Fatal("Exit did not stop the runtime")
	}
}

func TestQuiescenceDetection(t *testing.T) {
	rt := testRT(4)
	fired := des.Time(-1)
	hops := 0
	var arr *Array
	handlers := []Handler{
		func(obj Chare, ctx *Ctx, msg any) {
			n := msg.(int)
			ctx.Charge(1e-4)
			if n > 0 {
				ctx.Send(arr, Idx1((ctx.Index().I()+1)%8), 0, n-1)
			}
			hops++
		},
	}
	arr = rt.DeclareArray("chain", func() Chare { return &counter{} }, handlers, ArrayOpts{})
	for i := 0; i < 8; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	rt.StartQD(CallbackFunc(0, func(ctx *Ctx, _ any) { fired = ctx.Now() }))
	arr.Send(Idx1(0), 0, 20)
	rt.Run()
	if hops != 21 {
		t.Fatalf("chain ran %d hops, want 21", hops)
	}
	if fired < 0 {
		t.Fatal("QD never fired")
	}
	if fired < 21*1e-4 {
		t.Fatalf("QD fired at %v, before the chain could have finished", fired)
	}
}

func TestQDWaitsForPendingWork(t *testing.T) {
	// QD armed while messages are in flight must not fire early.
	rt := testRT(2)
	order := []string{}
	handlers := []Handler{
		func(obj Chare, ctx *Ctx, msg any) {
			ctx.Charge(0.01)
			order = append(order, "work")
		},
	}
	arr := rt.DeclareArray("w", func() Chare { return &counter{} }, handlers, ArrayOpts{})
	arr.Insert(Idx1(0), &counter{})
	rt.Boot(func(ctx *Ctx) {
		ctx.Send(arr, Idx1(0), 0, nil)
	})
	rt.StartQD(CallbackFunc(0, func(ctx *Ctx, _ any) { order = append(order, "qd") }))
	rt.Run()
	if len(order) != 2 || order[0] != "work" || order[1] != "qd" {
		t.Fatalf("order %v, want [work qd]", order)
	}
}

// moveStrategy migrates every object to PE 0 — a worst-case but easily
// verified strategy.
type moveStrategy struct{ calls int }

func (s *moveStrategy) Name() string { return "all-to-zero" }
func (s *moveStrategy) Balance(objs []LBObject, pes []LBPE) []Migration {
	s.calls++
	migs := make([]Migration, 0, len(objs))
	for _, o := range objs {
		migs = append(migs, Migration{Array: o.Array, Idx: o.Idx, ToPE: 0})
	}
	return migs
}

func TestAtSyncLoadBalance(t *testing.T) {
	rt := testRT(4)
	strat := &moveStrategy{}
	rt.SetBalancer(strat)
	resumed := 0
	handlers := []Handler{
		epBump: func(obj Chare, ctx *Ctx, msg any) {
			ctx.Charge(1e-3)
			ctx.AtSync()
		},
		epRecord: nil,
		epResume: func(obj Chare, ctx *Ctx, msg any) {
			resumed++
			if resumed == 12 {
				ctx.Exit()
			}
		},
	}
	arr := rt.DeclareArray("lb", func() Chare { return &counter{} }, handlers,
		ArrayOpts{UsesAtSync: true, ResumeEP: epResume})
	for i := 0; i < 12; i++ {
		arr.Insert(Idx1(i), &counter{N: int64(i)})
	}
	arr.Broadcast(epBump, nil)
	var report LBReport
	rt.OnLB(func(r LBReport) { report = r })
	rt.Run()
	if strat.calls != 1 {
		t.Fatalf("strategy invoked %d times, want 1", strat.calls)
	}
	if resumed != 12 {
		t.Fatalf("resumed %d elements, want 12", resumed)
	}
	for i := 0; i < 12; i++ {
		if pe := arr.PEOf(Idx1(i)); pe != 0 {
			t.Fatalf("element %d on PE %d after LB, want 0", i, pe)
		}
		// State must survive the migration PUP round trip.
		if c := arr.Get(Idx1(i)).(*counter); c.N != int64(i) {
			t.Fatalf("element %d lost state across migration: N=%d", i, c.N)
		}
	}
	if report.NumObjs != 12 || report.NumMoved == 0 {
		t.Fatalf("bad LB report: %+v", report)
	}
	if rt.LBRounds() != 1 {
		t.Fatalf("LBRounds=%d, want 1", rt.LBRounds())
	}
}

func TestMessagesFollowMigratedElement(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{})
	arr.Insert(Idx1(5), &counter{})
	src := arr.PEOf(Idx1(5))
	// Pick a destination that is neither the home/source nor the sending
	// PE 0, so the second send must miss and be forwarded via the home.
	dst := 0
	for _, cand := range []int{1, 2, 3} {
		if cand != src {
			dst = cand
			break
		}
	}
	rt.Boot(func(ctx *Ctx) {
		ctx.Send(arr, Idx1(5), epBump, int64(1))
	})
	rt.Run()
	// Migrate behind the location caches' back, then send again from a
	// third PE that has a stale/absent cache entry.
	el := arr.lookup(Idx1(5))
	rt.moveElement(el, dst, false)
	rt.Boot(func(ctx *Ctx) {
		ctx.Send(arr, Idx1(5), epBump, int64(10))
	})
	rt.Run()
	c := arr.Get(Idx1(5)).(*counter)
	if c.N != 11 {
		t.Fatalf("N=%d, want 11 — message lost after migration", c.N)
	}
	if rt.Stats.MsgsForwarded == 0 {
		t.Fatal("expected location-manager forwarding for stale route")
	}
}

func TestDynamicInsertBuffersEarlyMessages(t *testing.T) {
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{})
	arr.Insert(Idx1(0), &counter{})
	rt.Boot(func(ctx *Ctx) {
		// Send to an element that does not exist yet.
		ctx.Send(arr, Idx1(99), epBump, int64(42))
	})
	rt.Engine().After(0.001, func() {
		arr.Insert(Idx1(99), &counter{})
	})
	rt.Run()
	c := arr.Get(Idx1(99)).(*counter)
	if c == nil || c.N != 42 {
		t.Fatalf("buffered message not delivered after insertion: %+v", c)
	}
}

func TestDestroyElement(t *testing.T) {
	rt := testRT(2)
	var arr *Array
	handlers := []Handler{
		func(obj Chare, ctx *Ctx, msg any) {
			ctx.Destroy(arr, ctx.Index())
		},
	}
	arr = rt.DeclareArray("d", func() Chare { return &counter{} }, handlers, ArrayOpts{})
	for i := 0; i < 4; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	arr.Send(Idx1(2), 0, nil)
	rt.Run()
	if arr.Len() != 3 {
		t.Fatalf("array has %d elements after destroy, want 3", arr.Len())
	}
	if arr.Get(Idx1(2)) != nil {
		t.Fatal("destroyed element still present")
	}
}

func TestLocalInvoke(t *testing.T) {
	rt := testRT(1)
	arr := declCounters(rt, ArrayOpts{})
	arr.Insert(Idx1(0), &counter{})
	rt.Boot(func(ctx *Ctx) {
		ctx.LocalInvoke(arr, Idx1(0), epBump, int64(3))
	})
	rt.Run()
	if c := arr.Get(Idx1(0)).(*counter); c.N != 3 {
		t.Fatalf("LocalInvoke missed: N=%d", c.N)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (des.Time, uint64, int64) {
		rt := testRT(8)
		var arr *Array
		handlers := []Handler{
			func(obj Chare, ctx *Ctx, msg any) {
				c := obj.(*counter)
				n := msg.(int)
				c.N++
				ctx.Charge(float64(ctx.Index().I()%5) * 1e-5)
				if n > 0 {
					ctx.Send(arr, Idx1((ctx.Index().I()*7+n)%32), 0, n-1)
				}
			},
		}
		arr = rt.DeclareArray("det", func() Chare { return &counter{} }, handlers, ArrayOpts{})
		for i := 0; i < 32; i++ {
			arr.Insert(Idx1(i), &counter{})
		}
		for i := 0; i < 32; i++ {
			arr.Send(Idx1(i), 0, 50)
		}
		end := rt.Run()
		var sum int64
		for i := 0; i < 32; i++ {
			sum += arr.Get(Idx1(i)).(*counter).N * int64(i+1)
		}
		return end, rt.Stats.MsgsDelivered, sum
	}
	t1, d1, s1 := run()
	t2, d2, s2 := run()
	if t1 != t2 || d1 != d2 || s1 != s2 {
		t.Fatalf("nondeterministic run: (%v,%d,%d) vs (%v,%d,%d)", t1, d1, s1, t2, d2, s2)
	}
}

func TestIndexPacking(t *testing.T) {
	ix := Idx6(1, 2, 3, 1000, 0, 7)
	d := ix.Dims6()
	want := [6]int{1, 2, 3, 1000, 0, 7}
	if d != want {
		t.Fatalf("Idx6 round trip %v, want %v", d, want)
	}
	if Idx3(4, 5, 6).I() != 4 || Idx3(4, 5, 6).J() != 5 || Idx3(4, 5, 6).K() != 6 {
		t.Fatal("Idx3 accessors wrong")
	}
	if Idx1(-3).I() != -3 {
		t.Fatal("negative 1D index mangled")
	}
}

func TestBitVecIndex(t *testing.T) {
	root := BitVec(0, 0)
	c5 := root.Child(5)
	if c5.Depth() != 1 || c5.Octant() != 5 {
		t.Fatalf("child: depth=%d octant=%d", c5.Depth(), c5.Octant())
	}
	gc := c5.Child(3)
	if gc.Parent() != c5 || c5.Parent() != root {
		t.Fatal("parent chain broken")
	}
	x, y, z, d := gc.Coords()
	if d != 2 {
		t.Fatalf("depth %d, want 2", d)
	}
	if BitVecFromCoords(x, y, z, d) != gc {
		t.Fatalf("coords round trip failed: (%d,%d,%d,%d)", x, y, z, d)
	}
	// All 64 depth-2 blocks round trip.
	for o1 := 0; o1 < 8; o1++ {
		for o2 := 0; o2 < 8; o2++ {
			ix := root.Child(o1).Child(o2)
			x, y, z, d := ix.Coords()
			if BitVecFromCoords(x, y, z, d) != ix {
				t.Fatalf("round trip failed for octants %d,%d", o1, o2)
			}
		}
	}
}

func TestIndexHashSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		h := Idx1(i).Hash()
		if seen[h] {
			t.Fatalf("hash collision at %d", i)
		}
		seen[h] = true
	}
}

func TestShrinkActivePEs(t *testing.T) {
	rt := testRT(8)
	arr := declCounters(rt, ArrayOpts{})
	for i := 0; i < 16; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	rt.SetActivePEs(4)
	if rt.NumPEs() != 4 {
		t.Fatalf("NumPEs=%d, want 4", rt.NumPEs())
	}
	for i := 0; i < 16; i++ {
		if pe := arr.PEOf(Idx1(i)); pe >= 4 {
			t.Fatalf("element %d left on evacuated PE %d", i, pe)
		}
	}
	// Sends still work after the shrink.
	rt.Boot(func(ctx *Ctx) {
		for i := 0; i < 16; i++ {
			ctx.Send(arr, Idx1(i), epBump, int64(1))
		}
	})
	rt.Run()
	for i := 0; i < 16; i++ {
		if arr.Get(Idx1(i)).(*counter).N != 1 {
			t.Fatalf("element %d missed post-shrink message", i)
		}
	}
}
