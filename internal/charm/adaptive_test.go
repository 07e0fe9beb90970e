package charm

import (
	"testing"

	"charmgo/internal/pup"
)

// tally counts PUP traversals of probe chares by mode.
type tally struct{ size, pack, unpack int }

// probe is a chare whose Pup counts its own traversals. The tally pointer is
// not PUP'd: the factory supplies it, like any //pup:skip field.
type probe struct {
	N int64
	t *tally
}

func (c *probe) Pup(p *pup.Pup) {
	switch p.Mode() {
	case pup.Sizing:
		c.t.size++
	case pup.Packing:
		c.t.pack++
	case pup.Unpacking:
		c.t.unpack++
	}
	p.Int64(&c.N)
}

// migCount counts KMigration records.
type migCount struct{ n int }

func (m *migCount) Emit(ev Event) uint64 {
	if ev.Kind == KMigration {
		m.n++
	}
	return 0
}

// spread is a strategy that moves every object to the next PE.
type spread struct{}

func (spread) Name() string { return "next-pe" }
func (spread) Balance(objs []LBObject, pes []LBPE) []Migration {
	var migs []Migration
	for _, o := range objs {
		migs = append(migs, Migration{Array: o.Array, Idx: o.Idx, ToPE: (o.PE + 1) % len(pes)})
	}
	return migs
}

// TestMigrationTraversals pins how many times a migrating object is walked:
// moveElement makes the one pack (PackTo sizes, then packs) and the one
// unpack, and every caller prices the move from that pack's length. An LB
// round adds the view's sizing pass; Replace re-homes the object it was
// handed with no PUP traversal at all. Every move, by every door, still
// bumps Stats.Migrations and emits its KMigration record.
func TestMigrationTraversals(t *testing.T) {
	const n = 8
	setup := func(opts ArrayOpts) (*Runtime, *Array, *tally, *migCount) {
		rt := testRT(4)
		tl, mc := &tally{}, &migCount{}
		rt.SetTrace(mc, nil)
		handlers := []Handler{
			epBump:   func(obj Chare, ctx *Ctx, msg any) { ctx.AtSync() },
			epRecord: nil,
			epResume: func(obj Chare, ctx *Ctx, msg any) {},
		}
		arr := rt.DeclareArray("probes", func() Chare { return &probe{t: tl} }, handlers, opts)
		for i := 0; i < n; i++ {
			arr.InsertOn(Idx1(i), &probe{N: int64(i), t: tl}, 2+i%2)
		}
		return rt, arr, tl, mc
	}
	check := func(name string, rt *Runtime, arr *Array, tl *tally, mc *migCount, moved int, want tally) {
		t.Helper()
		if tl.size > want.size || tl.pack != want.pack || tl.unpack != want.unpack {
			t.Errorf("%s: %d sizing + %d packing + %d unpacking traversals for %d moves, want <= %d + %d + %d",
				name, tl.size, tl.pack, tl.unpack, moved, want.size, want.pack, want.unpack)
		}
		if int(rt.Stats.Migrations) != moved || mc.n != moved {
			t.Errorf("%s: Stats.Migrations %d, KMigration records %d, want %d of each", name, rt.Stats.Migrations, mc.n, moved)
		}
		for i := 0; i < n; i++ {
			if c := arr.Get(Idx1(i)).(*probe); c.N != int64(i) {
				t.Errorf("%s: element %d lost its state: N=%d", name, i, c.N)
			}
		}
	}

	// An LB round through either entry point: the view sizes every object
	// once, the move sizes (inside PackTo), packs and unpacks once.
	rt, arr, tl, mc := setup(ArrayOpts{Migratable: true})
	rt.SetBalancer(spread{})
	if rep := rt.Rebalance(); rep.NumMoved != n {
		t.Fatalf("Rebalance moved %d, want %d", rep.NumMoved, n)
	}
	check("Rebalance", rt, arr, tl, mc, n, tally{2 * n, n, n})

	rt, arr, tl, mc = setup(ArrayOpts{UsesAtSync: true, ResumeEP: epResume})
	rt.SetBalancer(spread{})
	arr.Broadcast(epBump, nil)
	rt.Run()
	if rt.LBRounds() != 1 {
		t.Fatalf("AtSync run completed %d LB rounds, want 1", rt.LBRounds())
	}
	check("AtSync round", rt, arr, tl, mc, n, tally{2 * n, n, n})

	// The doors with no view: one sizing (PackTo's), one pack, one unpack.
	rt, arr, tl, mc = setup(ArrayOpts{})
	moves, bytes := rt.EvacuatePE(2, []int{0, 1})
	if len(moves) != n/2 || bytes != int64(n/2)*(8+migrationEnvelope) {
		t.Fatalf("EvacuatePE: %d moves, %d bytes", len(moves), bytes)
	}
	check("EvacuatePE", rt, arr, tl, mc, n/2, tally{n / 2, n / 2, n / 2})

	rt, arr, tl, mc = setup(ArrayOpts{})
	var migs []Migration
	for i := 0; i < n; i++ {
		migs = append(migs, Migration{Array: arr, Idx: Idx1(i), ToPE: 0})
	}
	if moved, bytes := rt.ApplyMigrations(migs); moved != n || bytes != n*(8+migrationEnvelope) {
		t.Fatalf("ApplyMigrations: %d moved, %d bytes", moved, bytes)
	}
	check("ApplyMigrations", rt, arr, tl, mc, n, tally{n, n, n})

	rt, arr, tl, mc = setup(ArrayOpts{})
	if bytes := rt.SetActivePEs(2); bytes != n*(8+migrationEnvelope) {
		t.Fatalf("shrink evacuated %d bytes, want %d", bytes, n*(8+migrationEnvelope))
	}
	check("shrink", rt, arr, tl, mc, n, tally{n, n, n})

	// Replace onto another PE keeps the instance it was handed.
	rt, arr, tl, mc = setup(ArrayOpts{})
	for i := 0; i < n; i++ {
		obj := &probe{N: int64(i), t: tl}
		arr.Replace(Idx1(i), obj, 0)
		if arr.Get(Idx1(i)) != Chare(obj) || arr.PEOf(Idx1(i)) != 0 {
			t.Fatalf("Replace(%d) did not re-home the object it was handed", i)
		}
	}
	check("Replace", rt, arr, tl, mc, n, tally{})
}

// TestApplyMigrationFilters walks the one apply loop's validity checks: every
// door skips a missing element and a move already in place; an LB round also
// refuses inactive and evacuating destinations but may still place onto a
// crashed PE nobody has detected; ApplyMigrations refuses that too; the
// evacuation and shrink doors take the destinations they are given.
func TestApplyMigrationFilters(t *testing.T) {
	const (
		inactive = 3
		evac     = 2
		dead     = 1
	)
	cases := []struct {
		name                  string
		idx, to               int
		any, lbRound, applied bool // moved under toAnyPE, toActivePE, toLivePE
	}{
		{"missing element", 9, 1, false, false, false},
		{"same PE", 0, 0, false, false, false},
		{"inactive PE", 0, inactive, true, false, false},
		{"evacuating PE", 0, evac, true, false, false},
		{"dead PE", 0, dead, true, true, false},
	}
	for _, c := range cases {
		for f, want := range map[migFilter]bool{toAnyPE: c.any, toActivePE: c.lbRound, toLivePE: c.applied} {
			rt := testRT(4)
			arr := declCounters(rt, ArrayOpts{})
			arr.InsertOn(Idx1(0), &counter{}, 0)
			rt.SetActivePEs(inactive)
			rt.SetPEEvacuating(evac, true)
			rt.CrashPE(dead)
			moved, bytes, _ := rt.applyMigrations([]Migration{{Array: arr, Idx: Idx1(c.idx), ToPE: c.to}}, f)
			if (moved == 1) != want || (bytes > 0) != want {
				t.Errorf("%s, filter %d: moved %d (%d bytes), want moved=%v", c.name, f, moved, bytes, want)
			}
			wantPE := 0
			if want {
				wantPE = c.to
			}
			if arr.PEOf(Idx1(0)) != wantPE {
				t.Errorf("%s, filter %d: element on PE %d, want %d", c.name, f, arr.PEOf(Idx1(0)), wantPE)
			}
		}
	}
	// The exported doors pick their filters.
	rt := testRT(4)
	arr := declCounters(rt, ArrayOpts{Migratable: true})
	arr.InsertOn(Idx1(0), &counter{}, 0)
	rt.CrashPE(dead)
	if moved, _ := rt.ApplyMigrations([]Migration{{Array: arr, Idx: Idx1(0), ToPE: dead}}); moved != 0 {
		t.Error("ApplyMigrations placed an element on a dead PE")
	}
	rt.SetBalancer(spread{}) // PE 0 -> PE 1, the dead one
	if rep := rt.Rebalance(); rep.NumMoved != 1 || arr.PEOf(Idx1(0)) != dead {
		t.Errorf("an LB round must still place onto a crashed-but-undetected PE: moved %d, on PE %d", rep.NumMoved, arr.PEOf(Idx1(0)))
	}
}

// TestLocTable drives the one owner of the two hint storage forms through a
// bounded array (in and out of bounds), one a slot past denseLocCap and an
// unbounded one.
func TestLocTable(t *testing.T) {
	rt := testRT(4)
	decl := func(name string, bounds []int) *Array {
		return rt.DeclareArray(name, func() Chare { return &counter{} }, nil, ArrayOpts{Bounds: bounds})
	}
	bounded, big, unbounded := decl("bounded", []int{16}), decl("big", []int{denseLocCap + 1}), decl("unbounded", nil)
	cases := []struct {
		name string
		a    *Array
		idx  Index
		flat bool
	}{
		{"bounded, in bounds", bounded, Idx1(7), true},
		{"bounded, out of bounds", bounded, Idx1(16), false},
		{"one past denseLocCap", big, Idx1(7), false},
		{"unbounded", unbounded, Idx1(7), false},
	}
	var tab locTable
	for _, c := range cases {
		k := elemKey{array: c.a.id, idx: c.idx}
		first, second := locEnt{pe: 1, eid: 11}, locEnt{pe: 2, eid: 22}
		if _, ok := tab.get(c.a, &k); ok {
			t.Fatalf("%s: hit in an empty table", c.name)
		}
		if _, had := tab.put(c.a, k, first); had {
			t.Fatalf("%s: first put reports a previous entry", c.name)
		}
		off := c.a.lin(c.idx)
		if inFlat := off >= 0 && c.a.id < len(tab.locDense) && tab.locDense[c.a.id] != nil && tab.locDense[c.a.id][off] == first; inFlat != c.flat {
			t.Fatalf("%s: stored flat=%v, want %v", c.name, inFlat, c.flat)
		}
		if _, inMap := tab.locCache[k]; inMap == c.flat {
			t.Fatalf("%s: stored in map=%v, want %v", c.name, inMap, !c.flat)
		}
		prev, had := tab.put(c.a, k, second)
		if !had || prev != first {
			t.Fatalf("%s: put returned (%v, %v), want the previous entry %v", c.name, prev, had, first)
		}
		// clone is deep: writes to either side do not show on the other.
		cl := tab.clone()
		tab.put(c.a, k, locEnt{pe: 3, eid: 33})
		if got, ok := cl.get(c.a, &k); !ok || got != second {
			t.Fatalf("%s: clone reads (%v, %v) after the original changed, want %v", c.name, got, ok, second)
		}
		cl.del(c.a, k)
		if got, ok := tab.get(c.a, &k); !ok || got.pe != 3 {
			t.Fatalf("%s: original reads (%v, %v) after the clone changed", c.name, got, ok)
		}
		// Undo as speculation does: re-put what put returned, or del.
		tab.put(c.a, k, prev)
		if got, ok := tab.get(c.a, &k); !ok || got != first {
			t.Fatalf("%s: re-put of the previous entry reads (%v, %v), want %v", c.name, got, ok, first)
		}
		tab.del(c.a, k)
		if _, ok := tab.get(c.a, &k); ok {
			t.Fatalf("%s: hit after del", c.name)
		}
		// A neighbouring key is untouched throughout.
		if _, ok := tab.get(c.a, &elemKey{array: c.a.id, idx: Idx1(3)}); ok {
			t.Fatalf("%s: neighbouring key hit", c.name)
		}
		tab.put(c.a, k, first)
	}
	tab.reset()
	for _, c := range cases {
		if _, ok := tab.get(c.a, &elemKey{array: c.a.id, idx: c.idx}); ok {
			t.Fatalf("%s: hit after reset", c.name)
		}
	}

	// resolveEID's two quirks sit on top of get: a miss answers the home PE,
	// and so does a hint naming a PE the job has shrunk away from.
	for _, c := range cases {
		k := elemKey{array: c.a.id, idx: c.idx}
		p := rt.pes[0]
		p.loc.put(c.a, k, locEnt{pe: 3, eid: 5})
		if pe, eid := rt.resolveEID(0, k); pe != 3 || eid != 5 {
			t.Fatalf("%s: resolveEID = (%d, %d), want the hint (3, 5)", c.name, pe, eid)
		}
		rt.activePEs = 3
		if pe, eid := rt.resolveEID(0, k); pe != rt.homePE(k) || eid != -1 {
			t.Fatalf("%s: hint at an inactive PE resolved to (%d, %d), want home (%d, -1)", c.name, pe, eid, rt.homePE(k))
		}
		rt.activePEs = 4
	}
}
