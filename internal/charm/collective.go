package charm

import (
	"fmt"
	"sort"

	"charmgo/internal/des"
)

// Callback names a continuation for collective operations (reductions,
// quiescence detection, checkpoints) — the CkCallback of the model.
type Callback struct {
	kind int // 0 none, 1 send, 2 bcast, 3 func
	arr  *Array
	idx  Index
	ep   EP
	fn   func(ctx *Ctx, result any)
	fnPE int
}

// CallbackSend delivers the collective's result to one element.
func CallbackSend(arr *Array, idx Index, ep EP) Callback {
	return Callback{kind: 1, arr: arr, idx: idx, ep: ep}
}

// CallbackBcast broadcasts the collective's result to every element of arr.
func CallbackBcast(arr *Array, ep EP) Callback {
	return Callback{kind: 2, arr: arr, ep: ep}
}

// CallbackFunc runs fn on the given PE with the collective's result.
func CallbackFunc(pe int, fn func(ctx *Ctx, result any)) Callback {
	return Callback{kind: 3, fn: fn, fnPE: pe}
}

// fire invokes the callback from the context of the completing execution.
func (cb Callback) fire(ctx *Ctx, result any) {
	switch cb.kind {
	case 1:
		ctx.Send(cb.arr, cb.idx, cb.ep, result)
	case 2:
		ctx.Broadcast(cb.arr, cb.ep, result, nil)
	case 3:
		if cb.fnPE == ctx.pe {
			cb.fn(ctx, result)
			return
		}
		ctx.SendPE(cb.fnPE, ctx.rt.funcPEH, funcMsg{fn: cb.fn, result: result}, nil)
	}
}

type funcMsg struct {
	fn     func(ctx *Ctx, result any)
	result any
}

// Reducer combines contributions.
type Reducer struct {
	Name  string
	Merge func(a, b any) any
}

// Built-in reducers.
var (
	SumF64 = Reducer{"sum_f64", func(a, b any) any { return a.(float64) + b.(float64) }}
	MinF64 = Reducer{"min_f64", func(a, b any) any { return min(a.(float64), b.(float64)) }}
	MaxF64 = Reducer{"max_f64", func(a, b any) any { return max(a.(float64), b.(float64)) }}
	SumI64 = Reducer{"sum_i64", func(a, b any) any { return a.(int64) + b.(int64) }}
	MinI64 = Reducer{"min_i64", func(a, b any) any { return min(a.(int64), b.(int64)) }}
	MaxI64 = Reducer{"max_i64", func(a, b any) any { return max(a.(int64), b.(int64)) }}
	AndB   = Reducer{"and", func(a, b any) any { return a.(bool) && b.(bool) }}
	OrB    = Reducer{"or", func(a, b any) any { return a.(bool) || b.(bool) }}

	// SumVecF64 sums equal-length []float64 contributions elementwise
	// (histogram reductions). The merge does not mutate its inputs.
	SumVecF64 = Reducer{"sum_vec_f64", func(a, b any) any {
		av, bv := a.([]float64), b.([]float64)
		out := make([]float64, len(av))
		copy(out, av)
		for i := range bv {
			out[i] += bv[i]
		}
		return out
	}}
)

// ---- broadcast ----

type bcastMsg struct {
	arr     int
	ep      EP
	payload any
	size    int32
	prio    int64
}

// Broadcast delivers payload to entry method ep of every element of arr via
// a spanning tree over the active PEs.
func (c *Ctx) Broadcast(arr *Array, ep EP, payload any, opts *SendOpts) {
	size := c.msgSize(payload, opts)
	var prio int64
	if opts != nil {
		prio = opts.Prio
	}
	bm := bcastMsg{arr: arr.id, ep: ep, payload: payload, size: size, prio: prio}
	if c.pe == 0 {
		c.rt.bcastFanout(c, bm)
		return
	}
	c.SendPE(0, c.rt.bcastPEH, bm, &SendOpts{Bytes: int(size), Prio: prioControl})
}

func (rt *Runtime) bcastHandler(ctx *Ctx, msg any) {
	rt.bcastFanout(ctx, msg.(bcastMsg))
}

// bcastFanout forwards the broadcast down the PE tree and delivers to local
// elements.
func (rt *Runtime) bcastFanout(ctx *Ctx, bm bcastMsg) {
	p := ctx.pe
	for _, child := range []int{2*p + 1, 2*p + 2} {
		if child < rt.activePEs {
			ctx.SendPE(child, rt.bcastPEH, bm, &SendOpts{Bytes: int(bm.size), Prio: prioControl})
		}
	}
	if ctx.replay {
		// The fan-out's deliveries committed long ago; re-allocating them
		// into a discarded effect list would leak pooled messages, and the
		// current element population may differ from the original run's.
		return
	}
	// Local deliveries: one scheduler message per element.
	pe := rt.pes[p]
	for _, el := range pe.sorted {
		if el.key.array != bm.arr {
			continue
		}
		m := localMsg(el, bm.ep, bm.payload, bm.prio, bm.size)
		if ctx.fx == nil {
			rt.inflight++
			rt.enqueue(m, p)
			continue
		}
		ctx.emit(func() {
			rt.inflight++
			//charmvet:retain (effect closure: runs at this delivery's commit, before the message could be recycled)
			rt.enqueue(m, p)
		})
	}
}

// ---- reductions ----

// redRun tracks one reduction generation. Contributions are counted
// globally against the element population at the reduction's start, which
// makes reductions tolerant of element migration mid-stream (the RTS may
// rebalance, shrink, or expand while a reduction is open); the spanning
// tree's cost is modeled as a combining-tree latency charged between the
// final contribution and the callback delivery.
//
// Contributions are merged in canonical element-index order, never arrival
// order: floating-point merges are order-sensitive, and a rollback replay
// is a time-shifted re-execution whose re-rounded arrival times may
// interleave contributions differently. A run starts in ranked mode —
// values land at vals[element rank] and the fold walks vals left to right,
// which IS canonical index order, with no sort. If the array's population
// changes while the run is open, the run demotes to spill mode (the old
// append-and-sort scheme), whose sorted fold is bit-identical.
type redRun struct {
	expected int
	count    int
	reducer  Reducer
	cb       Callback

	ranked bool
	vals   []any  // by element rank (ranked mode)
	have   []bool // rank slots filled (for demotion)

	spill []redContrib // spill mode: sorted by index at completion
}

type redContrib struct {
	idx Index
	val any
}

// demote converts a ranked run to spill mode, keying the placed values back
// to indices through the array's rank table — which must still describe the
// population the run was opened over (callers demote before mutating it).
func (run *redRun) demote(a *Array) {
	for r, ok := range run.have {
		if ok {
			run.spill = append(run.spill, redContrib{idx: a.rankKeys[r], val: run.vals[r]})
		}
	}
	run.ranked = false
	run.vals, run.have = nil, nil
}

// redRunFor locates generation gen's run in the array's ring, opening it on
// first contribution. Commit context.
func (a *Array) redRunFor(gen uint64, reducer Reducer, cb Callback) *redRun {
	if gen < a.redBase {
		panic(fmt.Sprintf("charm: contribution to completed reduction generation %d of %s", gen, a.name))
	}
	slot := int(gen - a.redBase)
	for slot >= len(a.redOpen) {
		a.redOpen = append(a.redOpen, nil)
	}
	run := a.redOpen[slot]
	if run == nil {
		expected := a.Len()
		if expected == 0 {
			panic("charm: reduction over empty array")
		}
		if a.ranksDirty {
			a.rebuildRanks()
		}
		run = &redRun{expected: expected, reducer: reducer, cb: cb, ranked: true}
		if cap(a.spareVals) >= expected {
			// Recycled from the previous completed generation, already
			// cleared (see closeRun).
			run.vals, run.have = a.spareVals[:expected], a.spareHave[:expected]
			a.spareVals, a.spareHave = nil, nil
		} else {
			run.vals, run.have = make([]any, expected), make([]bool, expected)
		}
		a.redOpen[slot] = run
	}
	return run
}

// closeRun retires a delivered generation, advancing the ring's base past
// completed head slots and recycling the rank buffers.
func (a *Array) closeRun(gen uint64, run *redRun) {
	a.redOpen[gen-a.redBase] = nil
	for len(a.redOpen) > 0 && a.redOpen[0] == nil {
		a.redOpen = a.redOpen[1:]
		a.redBase++
	}
	if run.vals != nil {
		clear(run.vals)
		clear(run.have)
		a.spareVals, a.spareHave = run.vals[:0], run.have[:0]
	}
}

// Contribute joins the element's next reduction over its array with the
// given value; when every element has contributed, the combined result is
// delivered through cb (which must be identical across contributors).
// Elements must not be created or destroyed while a generation they
// participate in is open (dynamic insertion aligns new elements to the
// creator's generation — see Ctx.Insert).
func (c *Ctx) Contribute(value any, reducer Reducer, cb Callback) {
	el := c.elem
	if el == nil {
		panic("charm: Contribute outside an array element")
	}
	rt := c.rt
	gen := el.redGen
	el.redGen++
	c.Charge(2e-7) // contribution bookkeeping
	at := c.Now()
	// The merge touches the array's reduction ring — global state — so in
	// buffered mode it is a deferred effect; the contribution's timestamp
	// is captured now, at the virtual moment the element contributed.
	if c.fx == nil {
		rt.contribute(el, gen, value, reducer, cb, at)
		return
	}
	c.fx.contribute(fxContrib{el: el, gen: gen, value: value, reducer: reducer, cb: cb}, at)
}

// contribute is the commit half of Contribute.
func (rt *Runtime) contribute(el *element, gen uint64, value any, reducer Reducer, cb Callback, at des.Time) {
	a := rt.arrays[el.key.array]
	run := a.redRunFor(gen, reducer, cb)
	if run.ranked {
		run.vals[el.redRank] = value
		run.have[el.redRank] = true
	} else {
		run.spill = append(run.spill, redContrib{idx: el.key.idx, val: value})
	}
	run.count++
	if run.count < run.expected {
		return
	}
	// Complete: fold in canonical index order, then deliver the result
	// after the combining tree's latency.
	var result any
	if run.ranked {
		result = run.vals[0]
		for _, v := range run.vals[1:] {
			result = run.reducer.Merge(result, v)
		}
	} else {
		sort.Slice(run.spill, func(i, j int) bool {
			return run.spill[i].idx.Less(run.spill[j].idx)
		})
		result = run.spill[0].val
		for _, rc := range run.spill[1:] {
			result = run.reducer.Merge(result, rc.val)
		}
	}
	fireCB := run.cb
	a.closeRun(gen, run)
	rt.atEpoch(at+rt.barrierLatency(), func() {
		ctx := rt.newCtx(0, nil)
		fireCB.fire(ctx, result)
		rt.finishExec(ctx, nil)
	})
}

func (rt *Runtime) funcHandler(ctx *Ctx, msg any) {
	fm := msg.(funcMsg)
	fm.fn(ctx, fm.result)
}

func min[T int64 | float64](a, b T) T {
	if a < b {
		return a
	}
	return b
}

func max[T int64 | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}
