// Package tram implements the Topological Routing and Aggregation Module
// of §III-F: a library that improves fine-grained communication performance
// by coalescing small data items into larger messages.
//
// TRAM overlays a virtual N-dimensional grid on the PEs. The peers of a PE
// are the PEs reachable by changing a single grid coordinate, so buffer
// space is O(Σ dims) instead of O(P). An item whose destination is not a
// peer travels dimension by dimension along a minimal route, being
// re-aggregated at each intermediate hop. Per-message software overhead is
// paid once per aggregated message instead of once per item, at the cost of
// added latency when traffic is too sparse to fill buffers — exactly the
// trade Fig 15b shows.
package tram

import (
	"fmt"

	"charmgo/internal/charm"
	"charmgo/internal/des"
)

// Options configures a TRAM client.
type Options struct {
	// Dims is the virtual grid; the product must equal the runtime's
	// active PE count. Nil picks a near-square 2-D grid automatically.
	Dims []int
	// BufItems is the per-peer buffer capacity that triggers a flush
	// (the "aggregation threshold"); default 64.
	BufItems int
	// ItemBytes is the modeled wire size of one item; default 32.
	ItemBytes int
	// FlushTimeout flushes partly filled buffers after this much idle
	// virtual time; default 2 ms. Zero disables timed flushes.
	FlushTimeout des.Time
	// PerItemCost is the CPU cost of handling one item at each hop
	// (packing/unpacking), far below a full message overhead; default
	// 60 ns.
	PerItemCost float64
}

func (o Options) withDefaults(numPEs int) Options {
	if len(o.Dims) == 0 {
		o.Dims = AutoDims(numPEs, 2)
	}
	if o.BufItems == 0 {
		o.BufItems = 64
	}
	if o.ItemBytes == 0 {
		o.ItemBytes = 32
	}
	if o.FlushTimeout == 0 {
		o.FlushTimeout = 2e-3
	}
	if o.PerItemCost == 0 {
		o.PerItemCost = 60e-9
	}
	return o
}

// AutoDims factors numPEs into nd grid dimensions as evenly as possible.
// For prime or awkward counts it degrades toward fewer effective
// dimensions (worst case [P, 1, ...]), which is always correct.
func AutoDims(numPEs, nd int) []int {
	if nd < 1 {
		nd = 1
	}
	dims := make([]int, nd)
	for i := range dims {
		dims[i] = 1
	}
	rem := numPEs
	for d := 0; d < nd-1; d++ {
		// Largest divisor of rem not exceeding the balanced target.
		target := 1
		for target*target <= rem {
			target++
		}
		best := 1
		for f := 1; f <= target; f++ {
			if rem%f == 0 {
				best = f
			}
		}
		dims[d] = best
		rem /= best
	}
	dims[nd-1] = rem
	return dims
}

type item struct {
	destPE  int
	idx     charm.Index
	payload any
}

type batch struct {
	items []item
}

type peBuffers struct {
	// buf maps peer PE -> pending items; a slice keyed by peer ordinal.
	peerOf map[int]int
	peers  []int
	bufs   [][]item
	armed  []bool // timed flush scheduled for this peer

	// free recycles item slices on this PE: a received batch's backing
	// array, once drained, seeds the next outgoing buffer instead of being
	// garbage. Strictly PE-local (filled by this PE's batch deliveries,
	// drained by this PE's submissions), so it needs no synchronization on
	// the parallel backend.
	free [][]item
}

// Stats counts TRAM activity.
type Stats struct {
	ItemsSubmitted uint64
	ItemsDelivered uint64
	MsgsSent       uint64 // aggregated messages put on the wire
	TimedFlushes   uint64
	FullFlushes    uint64
}

// Client is one TRAM instance delivering items to entry method ep of arr.
type Client struct {
	rt   *charm.Runtime
	arr  *charm.Array
	ep   charm.EP
	opts Options
	peh  charm.PEH

	dims    []int
	strides []int
	pes     []*peBuffers

	Stats Stats
}

// New creates a TRAM client for the runtime's current active PE set.
func New(rt *charm.Runtime, arr *charm.Array, ep charm.EP, opts Options) *Client {
	o := opts.withDefaults(rt.NumPEs())
	prod := 1
	for _, d := range o.Dims {
		prod *= d
	}
	if prod != rt.NumPEs() {
		panic(fmt.Sprintf("tram: grid %v does not cover %d PEs", o.Dims, rt.NumPEs()))
	}
	c := &Client{rt: rt, arr: arr, ep: ep, opts: o, dims: o.Dims}
	c.strides = make([]int, len(o.Dims))
	s := 1
	for d := len(o.Dims) - 1; d >= 0; d-- {
		c.strides[d] = s
		s *= o.Dims[d]
	}
	c.pes = make([]*peBuffers, rt.NumPEs())
	for p := range c.pes {
		c.pes[p] = c.newPEBuffers(p)
	}
	c.peh = rt.DeclareNamedPEHandler("tram:"+arr.Name(), c.onBatch)
	reg := rt.Metrics()
	pre := "tram." + arr.Name() + "."
	reg.GaugeFunc(pre+"items_submitted", func() float64 { return float64(c.Stats.ItemsSubmitted) })
	reg.GaugeFunc(pre+"items_delivered", func() float64 { return float64(c.Stats.ItemsDelivered) })
	reg.GaugeFunc(pre+"msgs_sent", func() float64 { return float64(c.Stats.MsgsSent) })
	reg.GaugeFunc(pre+"timed_flushes", func() float64 { return float64(c.Stats.TimedFlushes) })
	reg.GaugeFunc(pre+"full_flushes", func() float64 { return float64(c.Stats.FullFlushes) })
	return c
}

func (c *Client) coord(pe, dim int) int { return pe / c.strides[dim] % c.dims[dim] }

// nextHop routes dimension by dimension: correct the first mismatched
// coordinate.
func (c *Client) nextHop(from, dest int) int {
	for d := range c.dims {
		cf, cd := c.coord(from, d), c.coord(dest, d)
		if cf != cd {
			return from + (cd-cf)*c.strides[d]
		}
	}
	return from
}

// Peers returns the peer set of a PE (one per reachable single-dimension
// move) — O(Σ(dims-1)) rather than O(P).
func (c *Client) Peers(pe int) []int {
	return append([]int(nil), c.pes[pe].peers...)
}

func (c *Client) newPEBuffers(pe int) *peBuffers {
	b := &peBuffers{peerOf: map[int]int{}}
	for d := range c.dims {
		for v := 0; v < c.dims[d]; v++ {
			peer := pe + (v-c.coord(pe, d))*c.strides[d]
			if peer == pe {
				continue
			}
			if _, dup := b.peerOf[peer]; dup {
				continue
			}
			b.peerOf[peer] = len(b.peers)
			b.peers = append(b.peers, peer)
		}
	}
	b.bufs = make([][]item, len(b.peers))
	b.armed = make([]bool, len(b.peers))
	return b
}

// Submit hands one fine-grained item to TRAM from within an entry method
// or PE handler executing on ctx's PE. The item is counted as in-flight
// application work until final delivery, so quiescence detection covers
// TRAM traffic.
func (c *Client) Submit(ctx *charm.Ctx, idx charm.Index, payload any) {
	// Stats and the quiescence counter are global state: deferred so the
	// parallel backend can run submitting handlers concurrently.
	ctx.Defer(func() {
		c.Stats.ItemsSubmitted++
		c.rt.IncInflight(1)
	})
	dest := c.rt.ProbablePE(c.arr, idx, ctx.MyPE())
	it := item{destPE: dest, idx: idx, payload: payload}
	c.route(ctx, it)
}

func (c *Client) route(ctx *charm.Ctx, it item) {
	ctx.Charge(c.opts.PerItemCost)
	me := ctx.MyPE()
	if it.destPE == me {
		c.deliver(ctx, it)
		return
	}
	hop := c.nextHop(me, it.destPE)
	pb := c.pes[me]
	pi, ok := pb.peerOf[hop]
	if !ok {
		// Shrunken PE set or irregular grid: send directly.
		c.sendBatch(ctx, hop, []item{it}, false)
		return
	}
	if pb.bufs[pi] == nil {
		if n := len(pb.free); n > 0 {
			pb.bufs[pi] = pb.free[n-1]
			pb.free = pb.free[:n-1]
		}
	}
	pb.bufs[pi] = append(pb.bufs[pi], it)
	if h := c.rt.Trace(); h != nil {
		// Capture the virtual time before deferring: elapsed keeps
		// advancing during the handler, and the record must carry the same
		// timestamp on both backends.
		at, depth := ctx.Now(), len(pb.bufs[pi])
		ctx.Defer(func() { h.Emit(charm.Event{Kind: charm.KTramBuffer, At: at, PE: me, A: int64(depth)}) })
	}
	if len(pb.bufs[pi]) >= c.opts.BufItems {
		ctx.Defer(func() { c.Stats.FullFlushes++ })
		c.flushPeer(ctx, me, pi, false)
		return
	}
	if c.opts.FlushTimeout > 0 && !pb.armed[pi] {
		pb.armed[pi] = true
		// Arming the timer schedules an engine event — a global effect.
		// The timer body itself runs as a PE-handler message, where the
		// context is always in immediate mode.
		ctx.Defer(func() {
			c.rt.ExecuteOnPE(me, c.opts.FlushTimeout, func(ctx *charm.Ctx) {
				pb.armed[pi] = false
				if len(pb.bufs[pi]) > 0 {
					c.Stats.TimedFlushes++
					c.flushPeer(ctx, me, pi, true)
				}
			})
		})
	}
}

func (c *Client) flushPeer(ctx *charm.Ctx, pe, pi int, timed bool) {
	pb := c.pes[pe]
	items := pb.bufs[pi]
	pb.bufs[pi] = nil
	c.sendBatch(ctx, pb.peers[pi], items, timed)
}

func (c *Client) sendBatch(ctx *charm.Ctx, to int, items []item, timed bool) {
	ctx.Defer(func() { c.Stats.MsgsSent++ })
	if h := c.rt.Trace(); h != nil {
		at, n, pe := ctx.Now(), len(items), ctx.MyPE()
		ctx.Defer(func() {
			ev := charm.Event{Kind: charm.KTramFlush, At: at, PE: pe, A: int64(n)}
			if timed {
				ev.B = 1
			}
			h.Emit(ev)
		})
	}
	size := 48 + len(items)*c.opts.ItemBytes
	ctx.SendPE(to, c.peh, batch{items: items}, &charm.SendOpts{Bytes: size})
}

// FlushAll flushes every buffer on ctx's PE (end-of-phase drain).
func (c *Client) FlushAll(ctx *charm.Ctx) {
	me := ctx.MyPE()
	pb := c.pes[me]
	for pi := range pb.bufs {
		if len(pb.bufs[pi]) > 0 {
			c.flushPeer(ctx, me, pi, false)
		}
	}
}

// onBatch receives an aggregated message: deliver local items, re-buffer
// the rest toward their next dimension. The received slice is dead after
// the loop (items are copied out by value), so full-size backing arrays are
// recycled into this PE's free list; undersized ones (timed or direct-send
// batches) are left for the collector.
func (c *Client) onBatch(ctx *charm.Ctx, msg any) {
	b := msg.(batch)
	for _, it := range b.items {
		c.route(ctx, it)
	}
	if cap(b.items) >= c.opts.BufItems {
		clear(b.items) // drop payload references before pooling
		c.pes[ctx.MyPE()].free = append(c.pes[ctx.MyPE()].free, b.items[:0])
	}
}

// deliver invokes the destination entry method inline; if the element
// moved since routing began, fall back to a regular point-to-point send.
func (c *Client) deliver(ctx *charm.Ctx, it item) {
	ctx.Charge(c.opts.PerItemCost)
	if c.arr.PEOf(it.idx) == ctx.MyPE() {
		ctx.LocalInvoke(c.arr, it.idx, c.ep, it.payload)
		ctx.Defer(func() {
			c.Stats.ItemsDelivered++
			c.rt.DecInflight(1)
		})
		return
	}
	ctx.Defer(func() { c.rt.DecInflight(1) }) // regular path re-counts
	ctx.Send(c.arr, it.idx, c.ep, it.payload)
}
