package charm

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"charmgo/internal/machine"
)

var backends = []string{"sequential", "parallel", "optimistic"}

func backendRT(backend string, pes int) *Runtime {
	cfg := machine.Testbed(pes)
	cfg.Backend = backend
	return New(machine.New(cfg))
}

// foldCase is one reduction: element i contributes vals[i].
type foldCase struct {
	name string
	r    Reducer
	vals []any
}

func foldCases() []foldCase {
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0xfff8000000000abc)
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	f64 := [][]float64{
		// A NaN before finite values: this package's min and max drop it
		// where the builtins keep it; ±0 ties resolve by operand order.
		{1.5, nanA, negZero, 0, inf, -inf, 2.25, nanB, negZero, 3, 0, -7},
		{negZero, negZero, 0, negZero, 0, 0, negZero},
		{inf, 1, -inf, nanB, 2, nanA},
	}
	var cases []foldCase
	for vi, vs := range f64 {
		for _, r := range []Reducer{SumF64, MinF64, MaxF64} {
			vals := make([]any, len(vs))
			for i, v := range vs {
				vals[i] = v
			}
			cases = append(cases, foldCase{fmt.Sprintf("%s/%d", r.Name, vi), r, vals})
		}
	}
	ints := []any{int64(3), int64(math.MinInt64), int64(-5), int64(math.MaxInt64), int64(7), int64(0), int64(-1)}
	for _, r := range []Reducer{SumI64, MinI64, MaxI64} {
		cases = append(cases, foldCase{r.Name, r, ints})
	}
	for bi, bs := range [][]any{{true, false, true, true}, {true, true, true}, {false, false, true}} {
		for _, r := range []Reducer{AndB, OrB} {
			cases = append(cases, foldCase{fmt.Sprintf("%s/%d", r.Name, bi), r, bs})
		}
	}
	cases = append(cases, foldCase{SumVecF64.Name, SumVecF64, []any{
		[]float64{1, nanA, negZero}, []float64{negZero, 2, inf}, []float64{3, -inf, negZero}, []float64{0.1, 0.2, 0.3},
	}})
	return cases
}

// foldBits renders a reduction result with every float as its bit pattern.
func foldBits(v any) any {
	switch x := v.(type) {
	case float64:
		return math.Float64bits(x)
	case []float64:
		out := make([]uint64, len(x))
		for i, f := range x {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	return v
}

// TestTypedFoldMatchesBoxed runs every built-in reducer through the runtime
// and compares the result, bit for bit, with Merge folded over the boxed
// values in index order. Even elements contribute a float with
// ContributeF64 and odd ones box it, so one generation mixes both forms. In
// the spill rows an element is inserted while one contribution is still
// outstanding, which demotes the run from its rank slots to a sorted list.
func TestTypedFoldMatchesBoxed(t *testing.T) {
	for _, backend := range backends {
		for _, c := range foldCases() {
			want := c.vals[0]
			for _, v := range c.vals[1:] {
				want = c.r.Merge(want, v)
			}
			for _, spill := range []bool{false, true} {
				rt := backendRT(backend, 4)
				var got any
				cb := CallbackFunc(0, func(_ *Ctx, r any) { got = r })
				arr := rt.DeclareArray("fold", func() Chare { return &counter{} }, []Handler{
					func(_ Chare, ctx *Ctx, _ any) {
						i := ctx.Index().I()
						if f, ok := c.vals[i].(float64); ok && i%2 == 0 {
							ctx.ContributeF64(f, c.r, cb)
						} else {
							ctx.Contribute(c.vals[i], c.r, cb)
						}
					},
				}, ArrayOpts{})
				n := len(c.vals)
				for i := 0; i < n; i++ {
					arr.Insert(Idx1(i), &counter{})
				}
				late := -1
				if spill {
					late = n / 2
				}
				for i := 0; i < n; i++ {
					if i != late {
						arr.Send(Idx1(i), 0, nil)
					}
				}
				rt.Run()
				if spill {
					arr.Insert(Idx1(n), &counter{}) // never contributes to generation 0
					arr.Send(Idx1(late), 0, nil)
					rt.Run()
				}
				if !reflect.DeepEqual(foldBits(got), foldBits(want)) {
					t.Errorf("%s %s spill=%v: got %v (%v), want %v (%v)", backend, c.name, spill,
						got, foldBits(got), want, foldBits(want))
				}
			}
		}
	}
}

// TestReductionRejectsMismatchedReducer: a contribution naming another
// reducer than the one its generation opened with panics, naming the array,
// the generation and both reducers, instead of being folded with the wrong
// operation.
func TestReductionRejectsMismatchedReducer(t *testing.T) {
	rt := testRT(2)
	cb := CallbackFunc(0, func(*Ctx, any) {})
	arr := rt.DeclareArray("mixed", func() Chare { return &counter{} }, []Handler{
		func(_ Chare, ctx *Ctx, _ any) {
			ctx.Contribute(int64(1), SumI64, cb) // generation 0 agrees
			if ctx.Index().I() == 0 {
				ctx.ContributeF64(1, SumF64, cb)
			} else {
				ctx.ContributeF64(2, MaxF64, cb)
			}
		},
	}, ArrayOpts{})
	arr.InsertOn(Idx1(0), &counter{}, 0)
	arr.InsertOn(Idx1(1), &counter{}, 1)
	arr.Send(Idx1(0), 0, nil)
	arr.Send(Idx1(1), 0, nil)
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		rt.Run()
		return ""
	}()
	for _, want := range []string{"max_f64", "generation 1 of mixed", "sum_f64"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not name %q", msg, want)
		}
	}
}

// TestReductionAllocs holds a reduction generation's heap traffic to a cost
// per collective — the broadcast that starts it and the one boxed result;
// the completion that ends it allocates nothing — never a cost per element. A round broadcasts to
// every element, and each contributes a typed float, a boxed int64 and a
// boxed bool (small boxed values cost the caller nothing, so a merge that
// boxed or a slot that grew would show; so do the int64 and bool results,
// while the float sum is one boxed result). The rounds' allocations must be
// the same at 64 and 1,024 elements on every backend.
func TestReductionAllocs(t *testing.T) {
	for _, backend := range backends {
		var per []float64
		for _, n := range []int{64, 1024} {
			rt := backendRT(backend, 8)
			var sum float64
			var count int64
			var last bool
			cbF := CallbackFunc(0, func(_ *Ctx, r any) { sum = r.(float64) })
			cbI := CallbackFunc(0, func(_ *Ctx, r any) { count = r.(int64) })
			cbB := CallbackFunc(0, func(_ *Ctx, r any) { last = r.(bool) })
			arr := rt.DeclareArray("gen", func() Chare { return &counter{} }, []Handler{
				func(_ Chare, ctx *Ctx, _ any) {
					i := ctx.Index().I()
					ctx.ContributeF64(float64(i), SumF64, cbF)
					ctx.Contribute(int64(i%2), MaxI64, cbI)
					ctx.Contribute(i == n-1, OrB, cbB)
				},
			}, ArrayOpts{PureHandlers: true})
			for i := 0; i < n; i++ {
				arr.Insert(Idx1(i), &counter{})
			}
			round := func() {
				arr.Broadcast(0, nil)
				rt.Run()
			}
			for i := 0; i < 512; i++ { // warm the free lists, the calendar, the spare runs and the speculation logs
				round()
			}
			allocs := testing.AllocsPerRun(100, round)
			if want := float64(n*(n-1)) / 2; sum != want || count != 1 || !last {
				t.Fatalf("%s, %d elements: results %v, %d, %v; want %v, 1, true", backend, n, sum, count, last, want)
			}
			per = append(per, allocs)
		}
		t.Logf("%s: %.0f allocations per round of three generations at 64 elements, %.0f at 1,024", backend, per[0], per[1])
		if per[0] != per[1] {
			t.Errorf("%s: %.0f allocations per round at 64 elements but %.0f at 1,024: a reduction allocates per element", backend, per[0], per[1])
		}
		// roundAllocs: the driver broadcast's event closure and bcastMsg,
		// the boxed float result, and two of the three generations' runs
		// with their slot and mark buffers (a ring with no generation open
		// keeps one spare run). A completion is a recycled record on PE 0's
		// recycled context. Under -race starting a helper goroutine adds two
		// on the parallel backends.
		const roundAllocs = 9
		if per[0] != roundAllocs && !(raceEnabled && backend != "sequential") {
			t.Errorf("%s: %.0f allocations per round of three generations, want %d", backend, per[0], roundAllocs)
		}
	}
}
