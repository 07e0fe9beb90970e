package charm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"charmgo/internal/pup"
)

// sendFrom sends v to epBump of arr[idx] as PE pe would, so the hint a
// forward teaches lands in pe's table.
func sendFrom(rt *Runtime, pe int, arr *Array, idx Index, v int64) {
	rt.eng.At(rt.eng.Now(), func() {
		ctx := rt.newCtx(pe, nil)
		ctx.Send(arr, idx, epBump, v)
		rt.finishExec(ctx, nil)
	})
}

// stateString is chaos.StateDigest without the hash (that package imports
// this one): every live element's index, placement and PUP bytes in
// (array, index) order.
func stateString(rt *Runtime) string {
	var b strings.Builder
	for _, arr := range rt.Arrays() {
		fmt.Fprintf(&b, "[%s]", arr.Name())
		for _, idx := range arr.Keys() {
			fmt.Fprintf(&b, "|%v@%d:%x", idx, arr.PEOf(idx), pup.Pack(arr.Get(idx)))
		}
	}
	return b.String()
}

func hintCount(rt *Runtime) int {
	n := 0
	for _, p := range rt.pes {
		n += len(p.loc.locCache)
		for _, d := range p.loc.locDense {
			for _, ent := range d {
				if ent.pe >= 0 {
					n++
				}
			}
		}
	}
	return n
}

// declPair declares one array with Bounds and one without, same handlers.
func declPair(rt *Runtime, bounds []int) (bounded, unbounded *Array) {
	bump := []Handler{epBump: func(obj Chare, ctx *Ctx, msg any) { obj.(*counter).N += msg.(int64) }}
	mk := func() Chare { return &counter{} }
	return rt.DeclareArray("bounded", mk, bump, ArrayOpts{Migratable: true, Bounds: bounds}),
		rt.DeclareArray("unbounded", mk, bump, ArrayOpts{Migratable: true})
}

// checkDirectory holds the directory's own invariants: every live element is
// at elems[its eid] and findable from its key in the one form the key has, an
// in-bounds key of a bounded array never enters the hash map, and every PE's
// slice is strictly ordered and holds exactly the elements whose pe names it.
func checkDirectory(t *testing.T, rt *Runtime) {
	t.Helper()
	d := &rt.dir
	for k := range d.hash {
		if rt.arrays[k.array].lin(k.idx) >= 0 {
			t.Fatalf("in-bounds key %v is in the hash map", k)
		}
	}
	live, perArr := 0, make([]int, len(rt.arrays))
	for id, el := range d.elems {
		if el == nil {
			continue
		}
		live++
		perArr[el.key.array]++
		a := rt.arrays[el.key.array]
		if int(el.eid) != id || d.eid(a, &el.key) != el.eid || el.dead {
			t.Fatalf("%v: at slot %d with eid %d (key → %d), dead=%v", el.key, id, el.eid, d.eid(a, &el.key), el.dead)
		}
		if off := a.lin(el.key.idx); off < 0 {
			if d.hash[el.key] != el.eid+1 {
				t.Fatalf("%v has no flat slot and no hash entry", el.key)
			}
		}
		if rt.pes[el.pe].find(&el.key) != el {
			t.Fatalf("%v lives on PE %d, whose slice does not find it", el.key, el.pe)
		}
	}
	for i, a := range rt.arrays {
		if a.Len() != perArr[i] {
			t.Fatalf("%s: Len %d, %d live records", a.name, a.Len(), perArr[i])
		}
	}
	onPEs := 0
	for _, p := range rt.pes {
		onPEs += len(p.sorted)
		for i, el := range p.sorted {
			if el.pe != p.id || d.elems[el.eid] != el {
				t.Fatalf("PE %d holds %v, which lives on PE %d (live record: %v)", p.id, el.key, el.pe, d.elems[el.eid] == el)
			}
			if i == 0 {
				continue
			}
			if prev := p.sorted[i-1].key; prev.array > el.key.array || prev.array == el.key.array && !prev.idx.Less(el.key.idx) {
				t.Fatalf("PE %d: %v does not sort before %v", p.id, prev, el.key)
			}
		}
	}
	if onPEs != live {
		t.Fatalf("%d elements on PEs, %d live records", onPEs, live)
	}
}

// TestDirectoryAgainstMapOracle drives a seeded program of inserts, destroys,
// re-inserts, migrations, Replaces, reconfigurations and sends (to live,
// destroyed and never-created keys) over a bounded array, a bounded array
// that is also handed keys outside its box, and an unbounded one — and after
// every step compares every read the directory serves with plain maps.
func TestDirectoryAgainstMapOracle(t *testing.T) {
	type rec struct {
		pe int
		n  int64
	}
	rng := rand.New(rand.NewSource(20))
	rt := testRT(8)
	inBox, free := declPair(rt, []int{5, 5})
	mixed := rt.DeclareArray("mixed", func() Chare { return &counter{} }, inBox.handlers,
		ArrayOpts{Migratable: true, Bounds: []int{4, 4}})
	arrays := []*Array{inBox, mixed, free}
	universe := make([][]Index, len(arrays))
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			universe[0] = append(universe[0], Idx2(i, j))
			universe[1] = append(universe[1], Idx2(i+1, j-1)) // row 4+ and column -1 are outside the 4×4 box
			universe[2] = append(universe[2], BitVec(uint64(i*8+j), 2))
		}
	}
	universe[1] = append(universe[1], Idx1(2), Idx3(1, 1, 1))
	universe[2] = append(universe[2], Idx1(7), Idx2(1, 1))

	oracle := make([]map[Index]rec, len(arrays))
	for i := range oracle {
		oracle[i] = map[Index]rec{}
	}
	everDead := map[elemKey]bool{}
	// At most one key at a time has messages parked at its home for want of a
	// live element, so the buffers do empty and reconfigurations get to compact.
	var parked struct {
		ai  int
		idx Index
		sum int64
		any bool
	}
	var reinserts, misses, compactions int

	check := func(step int, op string) {
		t.Helper()
		checkDirectory(t, rt)
		perPE := make([]int, rt.MaxPEs())
		for ai, a := range arrays {
			var want []Index
			for _, idx := range universe[ai] {
				r, ok := oracle[ai][idx]
				k := elemKey{array: a.id, idx: idx}
				el := a.lookup(idx)
				if (el != nil) != ok {
					t.Fatalf("step %d (%s): lookup(%v) live=%v, oracle says %v", step, op, k, el != nil, ok)
				}
				for _, p := range rt.pes {
					if hit := p.find(&k) != nil; hit != (ok && r.pe == p.id) {
						t.Fatalf("step %d (%s): PE %d find(%v) = %v, oracle has it on PE %d (live=%v)", step, op, p.id, k, hit, r.pe, ok)
					} else if !hit {
						misses++
					}
				}
				if !ok {
					if a.Get(idx) != nil || a.PEOf(idx) != -1 {
						t.Fatalf("step %d (%s): %v is not live, yet Get=%v PEOf=%d", step, op, k, a.Get(idx), a.PEOf(idx))
					}
					continue
				}
				want = append(want, idx)
				perPE[r.pe]++
				if got := a.Get(idx).(*counter).N; got != r.n || a.PEOf(idx) != r.pe {
					t.Fatalf("step %d (%s): %v is N=%d on PE %d, oracle says N=%d on PE %d", step, op, k, got, a.PEOf(idx), r.n, r.pe)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
			if got := a.Keys(); fmt.Sprint(got) != fmt.Sprint(want) || a.Len() != len(want) {
				t.Fatalf("step %d (%s): %s Keys() = %v (Len %d), oracle has %v", step, op, a.name, got, a.Len(), want)
			}
		}
		for pe, n := range perPE {
			if rt.ElementsOn(pe) != n {
				t.Fatalf("step %d (%s): ElementsOn(%d) = %d, oracle has %d", step, op, pe, rt.ElementsOn(pe), n)
			}
		}
	}

	for step := 0; step < 1500; step++ {
		ai := rng.Intn(len(arrays))
		a, idx := arrays[ai], universe[ai][rng.Intn(len(universe[ai]))]
		c := rng.Intn(10)
		if c < 3 && parked.any && rng.Intn(2) == 0 {
			ai, a, idx = parked.ai, arrays[parked.ai], parked.idx
		}
		r, isLive := oracle[ai][idx]
		pe := rng.Intn(rt.NumPEs())
		var op string
		switch {
		case c < 3 && !isLive:
			op = "insert"
			if everDead[elemKey{a.id, idx}] {
				reinserts++
			}
			v := rng.Int63n(100)
			if rng.Intn(2) == 0 {
				a.InsertOn(idx, &counter{N: v}, pe)
			} else {
				a.Insert(idx, &counter{N: v})
				pe = rt.homePE(elemKey{a.id, idx})
			}
			if parked.any && parked.ai == ai && parked.idx == idx {
				rt.Run() // what was parked for the key is delivered
				v += parked.sum
				parked.any = false
			}
			oracle[ai][idx] = rec{pe, v}
		case c < 3 || c == 3:
			if !isLive {
				continue
			}
			op = "destroy"
			a.Remove(idx)
			delete(oracle[ai], idx)
			everDead[elemKey{a.id, idx}] = true
		case c == 4 && isLive:
			op = "migrate"
			rt.applyMigrations([]Migration{{Array: a, Idx: idx, ToPE: pe}}, toAnyPE)
			oracle[ai][idx] = rec{pe, r.n}
		case c == 5 && isLive:
			op = "replace"
			v := rng.Int63n(100)
			a.Replace(idx, &counter{N: v}, pe)
			oracle[ai][idx] = rec{pe, v}
		case c == 6 && step%4 == 0:
			op = "reconfigure"
			n := 4 + rng.Intn(5)
			before := rt.tableEpoch
			rt.SetActivePEs(n)
			if rt.tableEpoch != before {
				compactions++
			}
			for i, m := range oracle {
				for idx, r := range m {
					if r.pe >= n {
						m[idx] = rec{rt.homePE(elemKey{arrays[i].id, idx}), r.n}
					}
				}
			}
		default:
			if !isLive && parked.any && (parked.ai != ai || parked.idx != idx) {
				continue
			}
			op = "send"
			v := rng.Int63n(100)
			sendFrom(rt, pe, a, idx, v)
			rt.Run()
			if isLive {
				oracle[ai][idx] = rec{r.pe, r.n + v}
			} else {
				if !parked.any {
					parked.ai, parked.idx, parked.sum, parked.any = ai, idx, 0, true
				}
				parked.sum += v
			}
		}
		check(step, op)
	}
	t.Logf("%d re-inserts, %d find misses, %d compactions", reinserts, misses, compactions)
	if reinserts == 0 || misses == 0 || compactions == 0 {
		t.Fatalf("the program never exercised a path: %d re-inserts, %d find misses, %d compactions", reinserts, misses, compactions)
	}
}

// TestCompactElementTable covers the one operation that renumbers: it refuses
// while anything still carries an eid, numbers the live elements densely in
// (array, index) order in both storage forms, kills every hint — stored, in
// flight or snapshotted — minted under the old numbering, and leaves routing,
// buffering and the run's final state exactly as they were.
func TestCompactElementTable(t *testing.T) {
	const n = 12
	rt := testRT(4)
	bounded, unbounded := declPair(rt, []int{n})
	arrays := []*Array{bounded, unbounded}
	for _, a := range arrays {
		for i := 0; i < n; i++ {
			a.Insert(Idx1(i), &counter{})
		}
	}
	// Move everything off its home, then send from every PE: each send is
	// forwarded by the home, which teaches the sender a hint.
	for _, a := range arrays {
		for i := 0; i < n; i++ {
			el := a.lookup(Idx1(i))
			rt.moveElement(el, (el.pe+1)%4, false)
			sendFrom(rt, i%4, a, Idx1(i), 1)
		}
	}
	rt.Run()
	if hintCount(rt) == 0 {
		t.Fatal("set-up taught no hints; the checks below would be vacuous")
	}
	for _, a := range arrays {
		for i := 0; i < n; i += 3 {
			a.Remove(Idx1(i))
		}
	}
	// A message for a never-created key, one per storage form (index 100 is
	// outside the bounded array's box): buffered at home under a minted eid.
	for _, a := range arrays {
		sendFrom(rt, 1, a, Idx1(100), 5)
	}
	rt.Run()
	eids := func() string {
		var b strings.Builder
		for _, a := range arrays {
			for _, idx := range a.Keys() {
				fmt.Fprintf(&b, "%v=%d ", elemKey{a.id, idx}, a.lookup(idx).eid)
			}
		}
		return b.String()
	}
	before, hints, slots := eids(), hintCount(rt), len(rt.dir.elems)
	if rt.CompactElementTable() {
		t.Fatal("compacted with messages buffered for uncreated elements")
	}
	if eids() != before || hintCount(rt) != hints || len(rt.dir.elems) != slots || rt.tableEpoch != 0 {
		t.Fatal("a refused compaction changed the tables")
	}
	// Drain the buffers by creating the keys.
	for _, a := range arrays {
		a.Insert(Idx1(100), &counter{})
	}
	rt.Run()
	for _, a := range arrays {
		if c := a.Get(Idx1(100)).(*counter); c.N != 5 {
			t.Fatalf("%s: buffered message not delivered on insert: N=%d", a.name, c.N)
		}
	}
	snap := rt.SnapshotLocCaches(nil)
	// A hint already on its way when the numbering changes.
	late := unbounded.lookup(Idx1(1))
	rt.updateLocCache(2, late.key, late.pe, rt.homePE(late.key), late.eid)
	if !rt.CompactElementTable() {
		t.Fatal("refused at a quiescent cut")
	}
	checkDirectory(t, rt)
	next := int32(0)
	for _, a := range arrays {
		for _, idx := range a.Keys() {
			if el := a.lookup(idx); el.eid != next {
				t.Fatalf("%v has eid %d, want %d: not dense in (array, index) order", el.key, el.eid, next)
			}
			next++
		}
		for i := 0; i < n; i += 3 {
			k := elemKey{a.id, Idx1(i)}
			if id := rt.dir.eid(a, &k); id != -1 {
				t.Fatalf("destroyed key %v kept eid %d through compaction", k, id)
			}
		}
	}
	if live := 2 * (n - n/3 + 1); int(next) != live || len(rt.dir.elems) != live || len(rt.dir.hash) != live/2+1 {
		t.Fatalf("%d eids over %d slots and %d hashed keys, want %d, %d and %d", next, len(rt.dir.elems), len(rt.dir.hash), live, live, live/2+1)
	}
	if hintCount(rt) != 0 {
		t.Fatalf("%d hints survived compaction", hintCount(rt))
	}
	rt.Run() // the late hint lands
	if hintCount(rt) != 0 {
		t.Fatal("a hint minted before compaction was written after it")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RestoreLocCaches accepted a pre-compaction snapshot")
			}
		}()
		rt.RestoreLocCaches(snap)
	}()
	// A destroyed key is unknown again: a send buffers at its home, and the
	// re-insert delivers it.
	for _, a := range arrays {
		sendFrom(rt, 3, a, Idx1(0), 9)
	}
	rt.Run()
	buffered := 0
	for _, msgs := range rt.pending {
		buffered += len(msgs)
	}
	if len(rt.pending) != 2 || buffered != 2 {
		t.Fatalf("sends to destroyed keys did not buffer: %d messages for %d keys, want 2 for 2", buffered, len(rt.pending))
	}
	for _, a := range arrays {
		a.InsertOn(Idx1(0), &counter{}, 2)
	}
	rt.Run()
	for _, a := range arrays {
		if c := a.Get(Idx1(0)).(*counter); c.N != 9 || a.PEOf(Idx1(0)) != 2 {
			t.Fatalf("%s: re-inserted element has N=%d on PE %d, want 9 on PE 2", a.name, c.N, a.PEOf(Idx1(0)))
		}
	}
	checkDirectory(t, rt)

	// A compaction in the middle of a run changes how messages route (the
	// hints are gone) and nothing else.
	scenario := func(compact bool) string {
		rt := testRT(4)
		bounded, unbounded := declPair(rt, []int{n})
		arrays := []*Array{bounded, unbounded}
		round := func(v int64) {
			for _, a := range arrays {
				for _, idx := range a.Keys() {
					el := a.lookup(idx)
					rt.moveElement(el, (el.pe+int(v))%4, false)
					sendFrom(rt, (idx.I()+1)%4, a, idx, v)
				}
			}
			rt.Run()
		}
		for _, a := range arrays {
			for i := 0; i < n; i++ {
				a.Insert(Idx1(i), &counter{})
			}
		}
		round(1)
		for _, a := range arrays {
			for i := 1; i < n; i += 3 {
				a.Remove(Idx1(i))
			}
		}
		if compact && !rt.CompactElementTable() {
			t.Fatal("mid-run compaction refused")
		}
		round(2)
		for _, a := range arrays {
			a.Insert(Idx1(4), &counter{N: 40})
		}
		round(3)
		return stateString(rt)
	}
	if with, without := scenario(true), scenario(false); with != without {
		t.Fatalf("a mid-run compaction changed the final state:\n%s\n%s", with, without)
	}
}
