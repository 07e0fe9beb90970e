package tram

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"charmgo/internal/charm"
	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

type sink struct {
	Got []int64
}

func (s *sink) Pup(p *pup.Pup) { pup.Slice(p, &s.Got, (*pup.Pup).Int64) }

func setup(numPEs, numElems int, opts Options) (*charm.Runtime, *charm.Array, *Client) {
	rt := charm.New(machine.New(machine.Testbed(numPEs)))
	handlers := []charm.Handler{
		func(obj charm.Chare, ctx *charm.Ctx, msg any) {
			s := obj.(*sink)
			s.Got = append(s.Got, msg.(int64))
			ctx.Charge(1e-7)
		},
	}
	arr := rt.DeclareArray("sinks", func() charm.Chare { return &sink{} }, handlers, charm.ArrayOpts{})
	for i := 0; i < numElems; i++ {
		arr.Insert(charm.Idx1(i), &sink{})
	}
	c := New(rt, arr, 0, opts)
	return rt, arr, c
}

func TestAutoDims(t *testing.T) {
	cases := map[int][]int{
		16: {4, 4},
		12: {4, 3},
		7:  {1, 7}, // prime degrades to 1D
		64: {8, 8},
	}
	for n, want := range cases {
		got := AutoDims(n, 2)
		if got[0]*got[1] != n {
			t.Fatalf("AutoDims(%d) = %v does not cover", n, got)
		}
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("AutoDims(%d) = %v, want %v", n, got, want)
		}
	}
	d3 := AutoDims(64, 3)
	if d3[0]*d3[1]*d3[2] != 64 {
		t.Fatalf("AutoDims(64,3) = %v", d3)
	}
}

func TestPeersAreSingleDimension(t *testing.T) {
	_, _, c := setup(16, 16, Options{Dims: []int{4, 4}})
	peers := c.pes[5].peers
	if len(peers) != 6 { // 3 along each of 2 dims
		t.Fatalf("PE 5 has %d peers, want 6: %v", len(peers), peers)
	}
	for _, p := range peers {
		diff := 0
		for d := 0; d < 2; d++ {
			if c.coord(5, d) != c.coord(p, d) {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("peer %d differs in %d dims", p, diff)
		}
	}
}

func TestNextHopConverges(t *testing.T) {
	_, _, c := setup(16, 16, Options{Dims: []int{4, 4}})
	f := func(from, to uint8) bool {
		a, b := int(from)%16, int(to)%16
		steps := 0
		for a != b {
			a = c.nextHop(a, b)
			steps++
			if steps > 8 {
				return false
			}
		}
		return steps <= 2 // at most one hop per dimension
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExactlyOnceDelivery(t *testing.T) {
	rt, arr, c := setup(16, 64, Options{BufItems: 8})
	const perElem = 5
	rt.Boot(func(ctx *charm.Ctx) {
		for e := 0; e < 64; e++ {
			for k := 0; k < perElem; k++ {
				c.Submit(ctx, charm.Idx1(e), int64(e*1000+k))
			}
		}
	})
	done := false
	rt.StartQD(charm.CallbackFunc(0, func(ctx *charm.Ctx, _ any) { done = true }))
	rt.Run()
	if !done {
		t.Fatal("QD never fired — TRAM items leaked from the in-flight count")
	}
	total := 0
	for e := 0; e < 64; e++ {
		s := arr.Get(charm.Idx1(e)).(*sink)
		if len(s.Got) != perElem {
			t.Fatalf("element %d received %d items, want %d", e, len(s.Got), perElem)
		}
		seen := map[int64]bool{}
		for _, v := range s.Got {
			if v/1000 != int64(e) {
				t.Fatalf("element %d received foreign item %d", e, v)
			}
			if seen[v] {
				t.Fatalf("duplicate item %d", v)
			}
			seen[v] = true
		}
		total += len(s.Got)
	}
	if uint64(total) != c.Stats.ItemsDelivered {
		t.Fatalf("delivered stat %d != %d", c.Stats.ItemsDelivered, total)
	}
}

func TestAggregationReducesMessages(t *testing.T) {
	// High-volume all-to-all: aggregated message count must be far below
	// the item count.
	rt, _, c := setup(16, 64, Options{BufItems: 32, FlushTimeout: 1e-3})
	const items = 6400
	rt.Boot(func(ctx *charm.Ctx) {
		for k := 0; k < items; k++ {
			c.Submit(ctx, charm.Idx1(k%64), int64(k))
		}
	})
	rt.Run()
	if c.Stats.ItemsSubmitted != items {
		t.Fatalf("submitted %d", c.Stats.ItemsSubmitted)
	}
	if c.Stats.MsgsSent >= items/4 {
		t.Fatalf("TRAM sent %d messages for %d items — no aggregation", c.Stats.MsgsSent, items)
	}
}

func TestTimedFlushDrainsSparseTraffic(t *testing.T) {
	// A single item must still arrive, via the flush timer.
	rt, arr, c := setup(16, 16, Options{BufItems: 1000, FlushTimeout: 1e-3})
	rt.Boot(func(ctx *charm.Ctx) {
		c.Submit(ctx, charm.Idx1(13), int64(99))
	})
	rt.Run()
	var got []int64
	for e := 0; e < 16; e++ {
		got = append(got, arr.Get(charm.Idx1(e)).(*sink).Got...)
	}
	if len(got) != 1 || got[0] != 99 {
		t.Fatalf("sparse item lost: %v", got)
	}
	if c.Stats.TimedFlushes == 0 {
		t.Fatal("delivery should have used the flush timer")
	}
}

func TestLatencyTradeoff(t *testing.T) {
	// Sparse traffic: TRAM (big buffers, timer flush) must be slower than
	// direct sends. Dense traffic: TRAM must win. This is Fig 15b's
	// crossover in miniature.
	run := func(items int, useTram bool) float64 {
		rt := charm.New(machine.New(machine.Testbed(16)))
		handlers := []charm.Handler{
			func(obj charm.Chare, ctx *charm.Ctx, msg any) { ctx.Charge(1e-7) },
		}
		arr := rt.DeclareArray("s", func() charm.Chare { return &sink{} }, handlers, charm.ArrayOpts{})
		for i := 0; i < 64; i++ {
			arr.Insert(charm.Idx1(i), &sink{})
		}
		var c *Client
		if useTram {
			c = New(rt, arr, 0, Options{BufItems: 64, FlushTimeout: 5e-4})
		}
		rt.Boot(func(ctx *charm.Ctx) {
			for k := 0; k < items; k++ {
				if useTram {
					c.Submit(ctx, charm.Idx1(k%64), int64(k))
				} else {
					ctx.SendOpt(arr, charm.Idx1(k%64), 0, int64(k), &charm.SendOpts{Bytes: 32})
				}
			}
		})
		return float64(rt.Run())
	}
	sparseTram, sparseDirect := run(32, true), run(32, false)
	denseTram, denseDirect := run(20000, true), run(20000, false)
	if sparseTram <= sparseDirect {
		t.Fatalf("sparse: TRAM %.6f should lose to direct %.6f", sparseTram, sparseDirect)
	}
	if denseTram >= denseDirect {
		t.Fatalf("dense: TRAM %.6f should beat direct %.6f", denseTram, denseDirect)
	}
}

func TestGridMismatchPanics(t *testing.T) {
	rt := charm.New(machine.New(machine.Testbed(8)))
	arr := rt.DeclareArray("s", func() charm.Chare { return &sink{} }, []charm.Handler{}, charm.ArrayOpts{})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched grid should panic")
		}
	}()
	New(rt, arr, 0, Options{Dims: []int{3, 3}})
}

func TestThreeDimensionalGrid(t *testing.T) {
	rt, arr, c := setup(27, 27, Options{Dims: []int{3, 3, 3}, BufItems: 4})
	rt.Boot(func(ctx *charm.Ctx) {
		for k := 0; k < 270; k++ {
			c.Submit(ctx, charm.Idx1(k%27), int64(k))
		}
	})
	rt.Run()
	total := 0
	for e := 0; e < 27; e++ {
		total += len(arr.Get(charm.Idx1(e)).(*sink).Got)
	}
	if total != 270 {
		t.Fatalf("3-D grid delivered %d of 270 items", total)
	}
	// Peers in 3D: 2 along each of 3 dims = 6.
	if got := len(c.pes[13].peers); got != 6 {
		t.Fatalf("centre PE has %d peers, want 6", got)
	}
}

// TestSubmitRefusesVec checks that a handler cannot hand its *charm.Vec to
// TRAM: the item would be delivered after the message holding its values
// was recycled.
func TestSubmitRefusesVec(t *testing.T) {
	rt, arr, c := setup(4, 4, Options{})
	relay := rt.DeclareArray("relays", func() charm.Chare { return &sink{} }, []charm.Handler{
		func(_ charm.Chare, ctx *charm.Ctx, msg any) { c.Submit(ctx, charm.Idx1(1), msg) },
	}, charm.ArrayOpts{})
	relay.Insert(charm.Idx1(0), &sink{})
	rt.Boot(func(ctx *charm.Ctx) { ctx.SendVec(relay, charm.Idx1(0), 0, 0, []float64{1, 2}, 2, 1, nil) })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "tram: a *charm.Vec cannot be submitted") {
			t.Fatalf("Submit of a *charm.Vec: panic %v", r)
		}
		if got := arr.Get(charm.Idx1(1)).(*sink).Got; len(got) != 0 {
			t.Fatalf("the refused item was delivered: %v", got)
		}
	}()
	rt.Run()
}
