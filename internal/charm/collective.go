package charm

import (
	"fmt"
	"math"
	"slices"

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

	// fold names a built-in's unboxed fold; foldBoxed (the zero value, so
	// every user-declared reducer) folds the boxed values with Merge.
	fold foldKind
}

// foldKind selects how a reduction run stores and folds its contributions.
// The scalar kinds keep each contribution as a uint64 bit pattern in one
// slot array and box only the folded result; foldSumVecF64 folds into one
// accumulator per generation instead of a fresh slice per Merge.
type foldKind uint8

const (
	foldBoxed foldKind = iota
	foldSumF64
	foldMinF64
	foldMaxF64
	foldSumI64
	foldMinI64
	foldMaxI64
	foldAnd
	foldOr
	foldSumVecF64
)

// Built-in reducers.
var (
	SumF64 = Reducer{"sum_f64", func(a, b any) any { return a.(float64) + b.(float64) }, foldSumF64}
	MinF64 = Reducer{"min_f64", func(a, b any) any { return min(a.(float64), b.(float64)) }, foldMinF64}
	MaxF64 = Reducer{"max_f64", func(a, b any) any { return max(a.(float64), b.(float64)) }, foldMaxF64}
	SumI64 = Reducer{"sum_i64", func(a, b any) any { return a.(int64) + b.(int64) }, foldSumI64}
	MinI64 = Reducer{"min_i64", func(a, b any) any { return min(a.(int64), b.(int64)) }, foldMinI64}
	MaxI64 = Reducer{"max_i64", func(a, b any) any { return max(a.(int64), b.(int64)) }, foldMaxI64}
	AndB   = Reducer{"and", func(a, b any) any { return a.(bool) && b.(bool) }, foldAnd}
	OrB    = Reducer{"or", func(a, b any) any { return a.(bool) || b.(bool) }, foldOr}

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
	}, foldSumVecF64}
)

func (k foldKind) scalar() bool { return k >= foldSumF64 && k <= foldOr }
func (k foldKind) float() bool  { return k >= foldSumF64 && k <= foldMaxF64 }

// bits unboxes a contribution to a scalar reducer into its slot encoding:
// a float's IEEE bits, an integer's two's complement, a bool as 0 or 1.
func (k foldKind) bits(v any, name string) uint64 {
	switch x := v.(type) {
	case float64:
		if k.float() {
			return math.Float64bits(x)
		}
	case int64:
		if k >= foldSumI64 && k <= foldMaxI64 {
			return uint64(x)
		}
	case bool:
		if k == foldAnd || k == foldOr {
			if x {
				return 1
			}
			return 0
		}
	}
	panic(fmt.Sprintf("charm: a %T contribution to a %s reduction", v, name))
}

// box is the inverse of bits: the one allocation a scalar run makes.
func (k foldKind) box(b uint64) any {
	switch {
	case k.float():
		return math.Float64frombits(b)
	case k == foldAnd || k == foldOr:
		return b != 0
	}
	return int64(b)
}

// merge is the unboxed twin of the built-in's Merge and applies the same
// operation: min and max are this package's, which differ from the
// builtins on NaN and -0, so every fold is bit-identical to the boxed one.
func (k foldKind) merge(a, b uint64) uint64 {
	f := math.Float64frombits
	switch k {
	case foldSumF64:
		return math.Float64bits(f(a) + f(b))
	case foldMinF64:
		return math.Float64bits(min(f(a), f(b)))
	case foldMaxF64:
		return math.Float64bits(max(f(a), f(b)))
	case foldSumI64:
		return uint64(int64(a) + int64(b))
	case foldMinI64:
		return uint64(min(int64(a), int64(b)))
	case foldMaxI64:
		return uint64(max(int64(a), int64(b)))
	case foldAnd:
		return a & b
	}
	return a | b // foldOr
}

// ---- broadcast ----

// bcastMsg describes one broadcast. It is built once, at the call, and the
// fan-out hands the same pointer down every edge of the spanning tree.
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
	bm := &bcastMsg{arr: arr.id, ep: ep, payload: payload, size: size, prio: prio}
	if c.pe == 0 {
		c.rt.bcastFanout(c, bm)
		return
	}
	c.SendPE(0, c.rt.bcastPEH, bm, &SendOpts{Bytes: int(size), Prio: prioControl})
}

func (rt *Runtime) bcastHandler(ctx *Ctx, msg any) {
	rt.bcastFanout(ctx, msg.(*bcastMsg))
}

// bcastFanout forwards the broadcast down the PE tree and delivers to local
// elements.
func (rt *Runtime) bcastFanout(ctx *Ctx, bm *bcastMsg) {
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
		m := localMsg(ctx.getMsg(), el, bm.ep, bm.payload, bm.prio, bm.size)
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
// values land at slot [element rank] and the fold walks the slots left to
// right, which IS canonical index order, with no sort. If the array's
// population changes while the run is open, the run demotes to spill mode
// (append, then sort by index at completion), whose fold is bit-identical.
//
// A built-in scalar reducer's run keeps its values unboxed in slots, one
// bit pattern per rank, and boxes only the folded result; every other
// reducer's run keeps boxed values in vals. A completed run and its
// buffers are recycled into the array's next generation (see closeRun).
type redRun struct {
	expected int
	count    int
	reducer  Reducer
	cb       Callback

	ranked bool
	vals   []any    // by element rank: boxed reducers
	slots  []uint64 // by element rank: scalar reducers' bit patterns
	have   []bool   // rank slots filled (for demotion)

	spill []redContrib // spill mode: sorted by index at completion
}

type redContrib struct {
	idx  Index
	val  any    // boxed reducers
	bits uint64 // scalar reducers
}

// demote converts a ranked run to spill mode, keying the placed values back
// to indices through the array's rank table — which must still describe the
// population the run was opened over (callers demote before mutating it).
// The rank buffers stay with the run: completion refills them in index
// order, and closeRun recycles them.
func (run *redRun) demote(a *Array) {
	scalar := run.reducer.fold.scalar()
	for r, ok := range run.have {
		if !ok {
			continue
		}
		rc := redContrib{idx: a.rankKeys[r]}
		if scalar {
			rc.bits = run.slots[r]
		} else {
			rc.val = run.vals[r]
		}
		run.spill = append(run.spill, rc)
	}
	run.ranked = false
}

// redRunFor locates generation gen's run in the array's ring, opening it on
// first contribution. Every later contribution must name the same reducer.
// Commit context.
func (a *Array) redRunFor(gen uint64, reducer Reducer, cb Callback) *redRun {
	if gen < a.redBase {
		panic(fmt.Sprintf("charm: contribution to completed reduction generation %d of %s", gen, a.name))
	}
	slot := int(gen - a.redBase)
	for slot >= len(a.redOpen) {
		a.redOpen = append(a.redOpen, nil)
	}
	if run := a.redOpen[slot]; run != nil {
		if run.reducer.Name != reducer.Name || run.reducer.fold != reducer.fold {
			panic(fmt.Sprintf("charm: contribution with reducer %s to reduction generation %d of %s, opened with reducer %s",
				reducer.Name, gen, a.name, run.reducer.Name))
		}
		return run
	}
	expected := a.Len()
	if expected == 0 {
		panic("charm: reduction over empty array")
	}
	if a.ranksDirty {
		a.rebuildRanks()
	}
	// A completed generation's run, if any, comes back with its buffers
	// cleared (see closeRun), so steady-state per-step reductions over
	// large arrays allocate nothing.
	var run *redRun
	if n := len(a.spareRuns); n > 0 {
		run, a.spareRuns = a.spareRuns[n-1], a.spareRuns[:n-1]
	} else {
		run = &redRun{}
	}
	run.expected, run.reducer, run.cb, run.ranked = expected, reducer, cb, true
	run.have = grow(run.have, expected)
	if reducer.fold.scalar() {
		run.slots = grow(run.slots, expected)
	} else {
		run.vals = grow(run.vals, expected)
	}
	a.redOpen[slot] = run
	return run
}

// grow returns s resized to length n, reusing its array when it is large
// enough. A recycled vals or have comes back cleared by closeRun; slots
// need not be, since a run reads only the slots its contributions wrote.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// closeRun retires a delivered generation: the ring drops its completed
// head slots (shifting down in place, so it keeps its array), and the run,
// its buffers cleared, joins the array's spares. Once no generation is
// open, one spare is enough for the next; the others, kept while
// generations overlapped, are let go rather than held for the array's
// lifetime.
func (a *Array) closeRun(gen uint64, run *redRun) {
	a.redOpen[gen-a.redBase] = nil
	done := 0
	for done < len(a.redOpen) && a.redOpen[done] == nil {
		done++
	}
	a.redOpen = a.redOpen[:copy(a.redOpen, a.redOpen[done:])]
	a.redBase += uint64(done)
	clear(run.vals)
	clear(run.have)
	clear(run.spill)
	*run = redRun{vals: run.vals[:0], slots: run.slots[:0], have: run.have[:0], spill: run.spill[:0]}
	a.spareRuns = append(a.spareRuns, run)
	if len(a.redOpen) == 0 {
		a.spareRuns[0] = run
		clear(a.spareRuns[1:])
		a.spareRuns = a.spareRuns[:1]
	}
}

// Contribute joins the element's next reduction over its array with the
// given value; when every element has contributed, the combined result is
// delivered through cb (which must be identical across contributors).
// Elements must not be created or destroyed while a generation they
// participate in is open (dynamic insertion aligns new elements to the
// creator's generation — see Ctx.Insert).
func (c *Ctx) Contribute(value any, reducer Reducer, cb Callback) {
	c.contribute(value, 0, false, &reducer, &cb)
}

// ContributeF64 is Contribute for a float64 to SumF64, MinF64 or MaxF64
// without boxing it: the value stays a scalar from the call to the fold,
// and only the result is boxed, once per reduction. With any other reducer
// it is Contribute(v, reducer, cb).
func (c *Ctx) ContributeF64(v float64, reducer Reducer, cb Callback) {
	if !reducer.fold.float() {
		c.Contribute(v, reducer, cb)
		return
	}
	c.contribute(nil, math.Float64bits(v), true, &reducer, &cb)
}

// contribute fills the contribution's record once, where it is consumed: a
// local the commit half reads through a pointer in immediate mode, the next
// slot of the PE's effect buffer in buffered mode.
func (c *Ctx) contribute(value any, bits uint64, typed bool, reducer *Reducer, cb *Callback) {
	el := c.elem
	if el == nil {
		panic("charm: Contribute outside an array element")
	}
	gen := el.redGen
	el.redGen++
	c.Charge(2e-7) // contribution bookkeeping
	at := c.Now()
	// The merge touches the array's reduction ring — global state — so in
	// buffered mode it is a deferred effect; the contribution's timestamp
	// is captured now, at the virtual moment the element contributed.
	var local fxContrib
	d := &local
	if c.fx != nil {
		d = c.fx.contribute(at)
	}
	d.el, d.gen, d.value, d.bits, d.typed = el, gen, value, bits, typed
	d.reducer, d.cb = *reducer, *cb
	if c.fx == nil {
		c.rt.contribute(d, at)
	}
}

// contribute is the commit half of Contribute. A boxed contribution to a
// scalar reducer is unboxed here, so it lands in the same slots as a typed
// one.
func (rt *Runtime) contribute(d *fxContrib, at des.Time) {
	el := d.el
	a := rt.arrays[el.key.array]
	run := a.redRunFor(d.gen, d.reducer, d.cb)
	fold := run.reducer.fold
	bits := d.bits
	if fold.scalar() && !d.typed {
		bits = fold.bits(d.value, run.reducer.Name)
	}
	switch {
	case !run.ranked:
		rc := redContrib{idx: el.key.idx, bits: bits}
		if !fold.scalar() {
			rc.val = d.value
		}
		run.spill = append(run.spill, rc)
	case fold.scalar():
		run.slots[el.redRank] = bits
		run.have[el.redRank] = true
	default:
		run.vals[el.redRank] = d.value
		run.have[el.redRank] = true
	}
	run.count++
	if run.count < run.expected {
		return
	}
	// Complete: fold in canonical index order, then deliver the result
	// after the combining tree's latency.
	rt.takeDue(run.cb, run.result(), false).schedule(at + rt.barrierLatency())
	a.closeRun(d.gen, run)
}

// result folds a complete run in canonical index order. A spill run is
// first sorted and copied back into the rank buffers, so both modes share
// one fold.
func (run *redRun) result() any {
	fold := run.reducer.fold
	if !run.ranked {
		slices.SortFunc(run.spill, func(x, y redContrib) int {
			switch {
			case x.idx.Less(y.idx):
				return -1
			case y.idx.Less(x.idx):
				return 1
			}
			return 0
		})
		run.slots, run.vals = run.slots[:0], run.vals[:0]
		for _, rc := range run.spill {
			if fold.scalar() {
				run.slots = append(run.slots, rc.bits)
			} else {
				run.vals = append(run.vals, rc.val)
			}
		}
	}
	switch {
	case fold.scalar():
		acc := run.slots[0]
		for _, b := range run.slots[1:] {
			acc = fold.merge(acc, b)
		}
		return fold.box(acc)
	case fold == foldSumVecF64:
		// One accumulator: rank 0's copy, then each later rank added in
		// order — SumVecF64.Merge's arithmetic without its slice per merge.
		first := run.vals[0].([]float64)
		acc := make([]float64, len(first))
		copy(acc, first)
		for _, v := range run.vals[1:] {
			for i, x := range v.([]float64) {
				acc[i] += x
			}
		}
		return acc
	}
	result := run.vals[0]
	for _, v := range run.vals[1:] {
		result = run.reducer.Merge(result, v)
	}
	return result
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
