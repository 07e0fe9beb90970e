package charm

import (
	"testing"

	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

// The dense location tables exist to keep the steady-state send path flat:
// for an array with declared Bounds, resolve and eid minting must be pure
// arithmetic plus slice loads — no hashing, no map buckets, no
// allocations. These tests pin that down.

type denseChare struct{ V int64 }

func (d *denseChare) Pup(p *pup.Pup) { p.Int64(&d.V) }

func newDenseRT(t testing.TB, bounds []int, n int) (*Runtime, *Array) {
	t.Helper()
	rt := New(machine.New(machine.Testbed(4)))
	arr := rt.DeclareArray("dense", func() Chare { return &denseChare{} },
		[]Handler{func(obj Chare, ctx *Ctx, msg any) {}},
		ArrayOpts{Bounds: bounds})
	for i := 0; i < n; i++ {
		arr.Insert(Idx1(i), &denseChare{V: int64(i)})
	}
	return rt, arr
}

func TestDenseLinMapping(t *testing.T) {
	rt := New(machine.New(machine.Testbed(2)))
	a3 := rt.DeclareArray("a3", func() Chare { return &denseChare{} }, nil,
		ArrayOpts{Bounds: []int{2, 3, 4}})
	want := 0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				if got := a3.lin(Idx3(i, j, k)); got != want {
					t.Fatalf("lin(%d,%d,%d) = %d, want %d", i, j, k, got, want)
				}
				want++
			}
		}
	}
	// Out-of-bounds and wrong-kind indices fall back to the map path.
	for _, idx := range []Index{Idx3(2, 0, 0), Idx3(0, 3, 0), Idx3(0, 0, 4),
		Idx3(-1, 0, 0), Idx1(0), Idx2(0, 0), BitVec(0, 0)} {
		if got := a3.lin(idx); got != -1 {
			t.Fatalf("lin(%v) = %d, want -1", idx, got)
		}
	}
	unbounded := rt.DeclareArray("ub", func() Chare { return &denseChare{} }, nil, ArrayOpts{})
	if got := unbounded.lin(Idx1(0)); got != -1 {
		t.Fatalf("unbounded lin = %d, want -1", got)
	}
}

func TestDenseResolveMatchesMapPath(t *testing.T) {
	// A hint stored for a bounded array must resolve identically to the
	// same hint stored in the map (unbounded array).
	rt, arr := newDenseRT(t, []int{16}, 0)
	p := rt.pes[3] // not the home of anything; pure hint consumer
	key := elemKey{array: arr.id, idx: Idx1(7)}
	p.loc.put(arr, key, locEnt{pe: 2, eid: 11})
	if p.loc.locDense[arr.id] == nil {
		t.Fatal("hint for bounded array did not land in the dense table")
	}
	if len(p.loc.locCache) != 0 {
		t.Fatal("hint for bounded array leaked into the map")
	}
	pe, eid := rt.resolveEID(3, key)
	if pe != 2 || eid != 11 {
		t.Fatalf("resolveEID = (%d, %d), want (2, 11)", pe, eid)
	}
	// A miss on a dense-tabled array is authoritative: home PE, no eid.
	miss := elemKey{array: arr.id, idx: Idx1(8)}
	pe, eid = rt.resolveEID(3, miss)
	if pe != rt.homePE(miss) || eid != -1 {
		t.Fatalf("miss resolveEID = (%d, %d), want home (%d, -1)", pe, eid, rt.homePE(miss))
	}
}

// TestDenseResolveAllocs is the regression guard for the send path's two
// lookups: once warm, the send-side resolve and the commit-side eid lookup
// must not allocate, in either storage form. A map passes this too — the
// benchmarks below show the flat tables' latency win — but the guard keeps
// refactors from reintroducing per-send garbage (e.g. boxing the key).
func TestDenseResolveAllocs(t *testing.T) {
	for _, row := range []struct {
		name   string
		bounds []int
	}{{"dense", []int{64}}, {"map", nil}} {
		rt, arr := newDenseRT(t, row.bounds, 64)
		p := rt.pes[3]
		for i := 0; i < 64; i++ {
			p.loc.put(arr, elemKey{array: arr.id, idx: Idx1(i)}, locEnt{pe: int32(i % 4), eid: int32(i)})
		}
		key := elemKey{array: arr.id, idx: Idx1(33)}
		var sink int32
		if n := testing.AllocsPerRun(200, func() {
			_, eid := rt.resolveEID(3, key)
			sink = eid
		}); n != 0 {
			t.Errorf("resolveEID allocates %v per call on the %s path", n, row.name)
		}
		if n := testing.AllocsPerRun(200, func() {
			sink = rt.dir.eidOf(arr, &key)
		}); n != 0 {
			t.Errorf("eidOf allocates %v per call on the %s path", n, row.name)
		}
		_ = sink
	}
}

func benchResolve(b *testing.B, bounds []int) {
	rt := New(machine.New(machine.Testbed(4)))
	arr := rt.DeclareArray("bench", func() Chare { return &denseChare{} }, nil,
		ArrayOpts{Bounds: bounds})
	const n = 4096
	p := rt.pes[3]
	for i := 0; i < n; i++ {
		p.loc.put(arr, elemKey{array: arr.id, idx: Idx1(i)}, locEnt{pe: int32(i % 4), eid: int32(i)})
	}
	keys := make([]elemKey, n)
	for i := range keys {
		keys[i] = elemKey{array: arr.id, idx: Idx1(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		_, sink = rt.resolveEID(3, keys[i&(n-1)])
	}
	_ = sink
}

// BenchmarkResolveDense vs BenchmarkResolveMap measure the satellite's
// point: the flat table turns the per-send location lookup into two slice
// loads.
func BenchmarkResolveDense(b *testing.B) { benchResolve(b, []int{4096}) }
func BenchmarkResolveMap(b *testing.B)   { benchResolve(b, nil) }
