package charm

import (
	"fmt"
	"sort"

	"charmgo/internal/des"
	"charmgo/internal/pup"
)

// ArrayOpts configures a chare array at declaration.
type ArrayOpts struct {
	// HomeMap overrides the default hash-based home-PE assignment
	// (§II-D: "Programmers can also define their own scheme").
	HomeMap func(idx Index, numPEs int) int
	// UsesAtSync marks the array's elements as participants in the
	// AtSync load-balancing barrier.
	UsesAtSync bool
	// Migratable marks the array's elements as movable by RTS-triggered
	// rebalancing (Runtime.Rebalance) even without AtSync participation.
	// UsesAtSync implies Migratable.
	Migratable bool
	// TrackComm records the per-destination communication volume of each
	// element (the communication side of the LB database, §III-A), for
	// communication-aware strategies. Costs a map per element.
	TrackComm bool
	// ResumeEP is the entry method invoked on every element when load
	// balancing completes (ResumeFromSync).
	ResumeEP EP
	// EntryNames labels the entry methods (parallel to the handlers
	// slice) for traces and profiles; missing names render as "ep<N>".
	EntryNames []string
	// Bounds declares a dense rectangular index space: with Bounds of
	// length d (1–3), every index is Idx1/Idx2/Idx3 with coordinate i in
	// [0, Bounds[i]). In-bounds indices are then stored in flat per-array
	// tables instead of hash maps — the storage, not a cache over one: an
	// array load on the send-side resolve and the eid paths. The element
	// directory's table is 4 B per possible index, allocated at declaration
	// (boxes beyond 4 Mi indices ignore Bounds); a PE's hint table is 8 B
	// per possible index, allocated at that PE's first hint for the array
	// and only for boxes within denseLocCap, so a run that never forwards
	// allocates none. Indices outside the bounds (or arrays without Bounds,
	// like AMR's bitvector octree) are stored in the maps.
	Bounds []int
	// PureHandlers declares that every entry method of this array is a
	// pure function of (chare state, message payload): it reads no mutable
	// app-global state and performs app-global writes only through
	// commit-deferred effects (ctx.Defer and friends). The optimistic
	// backend then amortizes state saving over PureHandlers elements —
	// PUP-imaging each only every K-th speculated execution and replaying
	// the committed deliveries in between on rollback (coast-forward; see
	// internal/charm/speculation.go). Arrays without the declaration keep
	// eager per-execution imaging, which is always safe. Declaring it on
	// an array whose handlers do consult mutable globals is detected at
	// the first divergent replay and panics.
	PureHandlers bool
}

// Array is a chare array: an indexed collection of migratable objects.
type Array struct {
	rt       *Runtime
	id       int
	name     string
	factory  func() Chare
	handlers []Handler
	opts     ArrayOpts

	// Reduction state (§II-C), a generation ring: redBase is the oldest
	// generation that may still be open, redOpen[g-redBase] its run (nil
	// once delivered). Completed head slots advance redBase, so the ring
	// stays as short as the spread between the slowest and fastest element.
	redBase uint64
	redOpen []*redRun

	// rankKeys is the canonical sorted index order backing element.redRank:
	// contributions land at vals[rank] without sorting. ranksDirty marks the
	// table stale after an insert or remove; it is rebuilt lazily at the
	// next reduction that needs it.
	rankKeys   []Index
	ranksDirty bool

	// spareVals/spareHave recycle the rank buffers of the last completed
	// generation into the next one (cleared at stash time), so steady-state
	// per-step reductions over large arrays allocate nothing.
	spareVals []any
	spareHave []bool

	// Dense index-space support (ArrayOpts.Bounds): linKind is the index
	// kind the bounds describe (0 when unbounded), linDims the extents
	// normalized to three axes, linCap their product. eidTab is the element
	// directory's key → eid table for in-bounds indices (eid+1; 0 = unminted)
	// and live its count of live elements; the directory's methods write both.
	linKind uint8
	linDims [3]int
	linCap  int
	eidTab  []int32
	live    int
}

// DeclareArray registers a chare array type: a factory producing empty
// elements (for migration and restart) and the entry-method table. EP
// values index into handlers.
func (rt *Runtime) DeclareArray(name string, factory func() Chare, handlers []Handler, opts ArrayOpts) *Array {
	if _, dup := rt.arrayNames[name]; dup {
		panic("charm: duplicate array name " + name)
	}
	a := &Array{
		rt:         rt,
		id:         len(rt.arrays),
		name:       name,
		factory:    factory,
		handlers:   handlers,
		opts:       opts,
		ranksDirty: true,
	}
	if n := len(opts.Bounds); n >= 1 && n <= 3 {
		a.linKind = [4]uint8{0, Kind1D, Kind2D, Kind3D}[n]
		a.linDims = [3]int{1, 1, 1}
		a.linCap = 1
		for i, b := range opts.Bounds {
			if b <= 0 {
				panic(fmt.Sprintf("charm: non-positive bound %d for array %s", b, name))
			}
			a.linDims[i] = b
			a.linCap *= b
		}
		if a.linCap > 1<<22 {
			// A flat table this size loses to the map; ignore the bounds.
			a.linKind, a.linCap = 0, 0
		} else {
			a.eidTab = make([]int32, a.linCap)
		}
	} else if len(opts.Bounds) != 0 {
		panic(fmt.Sprintf("charm: array %s declares %d-dimensional bounds; 1-3 supported", name, len(opts.Bounds)))
	}
	rt.arrays = append(rt.arrays, a)
	rt.arrayNames[name] = a
	return a
}

// lin maps an in-bounds index to its dense offset, or -1 when the array is
// unbounded or the index falls outside the declared box. Pure arithmetic —
// safe from phase context.
func (a *Array) lin(idx Index) int {
	if idx.Kind != a.linKind {
		return -1
	}
	// Coordinates are stored as uint64(int64(i)): a negative one compares huge.
	d := &a.linDims
	if idx.A >= uint64(d[0]) || idx.B >= uint64(d[1]) || idx.C >= uint64(d[2]) {
		return -1
	}
	return (int(idx.A)*d[1]+int(idx.B))*d[2] + int(idx.C)
}

// ArrayByName looks up a declared array.
func (rt *Runtime) ArrayByName(name string) *Array { return rt.arrayNames[name] }

// Arrays returns all declared arrays in declaration order.
func (rt *Runtime) Arrays() []*Array { return rt.arrays }

// Name returns the array's name.
func (a *Array) Name() string { return a.name }

// EntryName returns the trace name of entry method ep.
func (a *Array) EntryName(ep EP) string {
	if int(ep) < len(a.opts.EntryNames) && a.opts.EntryNames[ep] != "" {
		return a.opts.EntryNames[ep]
	}
	return fmt.Sprintf("ep%d", ep)
}

// Len returns the number of live elements.
func (a *Array) Len() int { return a.live }

// NewElement invokes the array's factory.
func (a *Array) NewElement() Chare { return a.factory() }

// Insert creates an element at its home PE (bulk construction before or
// during the run). Use Ctx.Insert for dynamic insertion on a specific PE.
func (a *Array) Insert(idx Index, obj Chare) {
	rt := a.rt
	pe := rt.homePE(elemKey{array: a.id, idx: idx})
	rt.insertElement(a, idx, obj, pe)
}

// InsertOn creates an element on an explicit PE.
func (a *Array) InsertOn(idx Index, obj Chare, pe int) {
	a.rt.insertElement(a, idx, obj, pe)
}

// Get returns the element's state, or nil if it does not exist. This is a
// simulation-level accessor (checkpointing, verification); application
// logic should communicate via entry methods.
func (a *Array) Get(idx Index) Chare {
	if el := a.lookup(idx); el != nil {
		return el.obj
	}
	return nil
}

// PEOf returns the PE currently hosting idx, or -1.
func (a *Array) PEOf(idx Index) int {
	if el := a.lookup(idx); el != nil {
		return el.pe
	}
	return -1
}

// lookup returns the live element at idx, or nil. Commit/global context,
// like every read of the element directory but peState.find.
func (a *Array) lookup(idx Index) *element {
	k := elemKey{array: a.id, idx: idx}
	if id := a.rt.dir.eid(a, &k); id >= 0 {
		return a.rt.dir.elems[id]
	}
	return nil
}

// Keys returns all live indices in deterministic sorted order.
func (a *Array) Keys() []Index {
	keys := make([]Index, 0, a.live)
	for _, el := range a.rt.dir.elems {
		if el != nil && el.key.array == a.id {
			keys = append(keys, el.key.idx)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	return keys
}

// Send invokes an entry method from outside any execution (drivers,
// checkpoint restore); it is stamped at the current virtual time from PE 0.
func (a *Array) Send(idx Index, ep EP, payload any) {
	rt := a.rt
	ctx := rt.newCtx(0, nil)
	ctx.SendOpt(a, idx, ep, payload, nil)
	// Driver-level sends do not occupy PE 0.
}

// Broadcast invokes ep on every element from the driver.
func (a *Array) Broadcast(ep EP, payload any) {
	rt := a.rt
	rt.eng.At(rt.eng.Now(), func() {
		ctx := rt.newCtx(0, nil)
		ctx.Broadcast(a, ep, payload, nil)
		rt.finishExec(ctx, nil)
	})
}

// Replace swaps an existing element's state for obj and re-homes it on pe.
// The fault-tolerance layer uses it to roll elements back to a checkpoint:
// obj is the instance it just unpacked, so the move needs no PUP round trip
// of its own.
func (a *Array) Replace(idx Index, obj Chare, pe int) {
	el := a.lookup(idx)
	if el == nil {
		panic("charm: Replace of missing element " + idx.String())
	}
	el.obj = obj
	// The retained speculation image (if any) describes the replaced state.
	a.rt.dropSave(el)
	if el.pe != pe {
		a.rt.rehome(el, pe)
	}
}

// Remove destroys an element from driver context (checkpoint rollback of a
// post-snapshot insertion).
func (a *Array) Remove(idx Index) {
	if el := a.lookup(idx); el != nil {
		a.rt.removeElement(el)
	}
}

// insertElement registers a new element on pe and returns its record.
// Commit/global context: it mutates the element directory.
func (rt *Runtime) insertElement(a *Array, idx Index, obj Chare, pe int) *element {
	key := elemKey{array: a.id, idx: idx}
	eid := rt.dir.eidOf(a, &key)
	if rt.dir.elems[eid] != nil {
		panic("charm: duplicate insert of " + key.String())
	}
	a.populationChanging()
	el := &element{key: key, obj: obj, pe: pe, eid: eid, redRank: -1}
	rt.dir.insert(a, el, rt.pes[pe])
	if a.opts.UsesAtSync {
		rt.lbTotal++
	}
	// Flush messages buffered at home before the element existed.
	if buffered, ok := rt.pending[eid]; ok {
		delete(rt.pending, eid)
		home := rt.homePE(key)
		for _, m := range buffered {
			rt.transmit(m, home, pe, rt.eng.Now())
		}
	}
	return el
}

// removeElement destroys an element. Its eid stays minted (stable for the
// key's lifetime), but no longer live, so the location manager buffers
// messages for it again.
func (rt *Runtime) removeElement(el *element) {
	a := rt.arrays[el.key.array]
	a.populationChanging()
	rt.dropSave(el)
	rt.dir.remove(a, el, rt.pes[el.pe])
	el.dead = true
	if a.opts.UsesAtSync {
		rt.lbTotal--
		if el.atSync {
			rt.lbArrived--
		}
		rt.maybeStartLB()
	}
}

// populationChanging runs before any insert or remove: open ranked
// reduction runs are demoted to spill mode (their placed values keyed back
// to indices through the still-valid rank table) and the rank table is
// marked stale.
func (a *Array) populationChanging() {
	for _, run := range a.redOpen {
		if run != nil && run.ranked {
			run.demote(a)
		}
	}
	a.ranksDirty = true
}

// rebuildRanks recomputes the canonical rank of every live element. Called
// lazily from commit context when a reduction needs ranks.
func (a *Array) rebuildRanks() {
	a.rankKeys = a.Keys()
	for r, idx := range a.rankKeys {
		a.lookup(idx).redRank = int32(r)
	}
	a.ranksDirty = false
}

// migrationEnvelope is the modeled header a migrating element travels with,
// on top of its PUP bytes.
const migrationEnvelope = 64

// moveElement migrates el to toPE, charging PUP serialization and transfer
// costs when charge is true. It is the only code that sizes or packs a
// migrating object, and returns the modeled size of the transfer — the bytes
// of the one pack it makes plus the envelope (0 when el is already there).
func (rt *Runtime) moveElement(el *element, toPE int, charge bool) int {
	from := el.pe
	if from == toPE {
		return 0
	}
	// A migration repacks the object into a fresh instance; the retained
	// speculation image (and its replay log) no longer matches it.
	rt.dropSave(el)
	// Re-home the state. In a real machine the object is packed and
	// unpacked; we exercise the same PUP path to keep Pup methods honest.
	// The pack buffer is pooled: at 256k-element rebalances the per-move
	// allocation would otherwise dominate the LB step's heap churn.
	data := pup.PackTo(pup.GetBuffer(), el.obj)
	size := len(data) + migrationEnvelope
	fresh := rt.arrays[el.key.array].NewElement()
	err := pup.Unpack(data, fresh)
	pup.PutBuffer(data)
	if err != nil {
		panic(fmt.Sprintf("charm: migration pup of %v failed: %v", el.key, err))
	}
	el.obj = fresh
	if charge {
		// Serialize out, transfer, deserialize in.
		pupCost := des.Time(float64(size) * 2e-10 * rt.mach.Config().BaseFreqGHz)
		src := rt.pes[from]
		if now := rt.eng.Now(); src.busy < now {
			src.busy = now
		}
		src.busy += pupCost
		rt.mach.PE(from).BusyTime += pupCost
	}
	rt.rehome(el, toPE)
	return size
}

// rehome moves el's runtime record from its PE to toPE — the two PEs' slices
// and el.pe, which is the location truth its home answers with (§II-D) — and
// counts and traces the migration, leaving el.obj as it is. moveElement calls
// it with the repacked object; Replace with the one it was handed.
func (rt *Runtime) rehome(el *element, toPE int) {
	from := el.pe
	rt.pes[from].removeSorted(el)
	el.pe = toPE
	rt.pes[toPE].insertSorted(el)
	rt.Stats.Migrations++
	if rt.trace != nil {
		rt.trace.Emit(Event{Kind: KMigration, At: rt.eng.Now(), PE: from,
			Arr: rt.arrays[el.key.array].name, Idx: el.traceIdx(), A: int64(from), B: int64(toPE)})
	}
}

// migFilter says which destinations a migration list may use.
type migFilter uint8

const (
	toAnyPE    migFilter = iota // the caller chose the destinations (evacuation, shrink)
	toActivePE                  // active and not evacuating
	toLivePE                    // active, not evacuating, and not crashed
)

// applyMigrations is the one loop that applies a migration list through the
// normal PUP path (moveElement). It skips elements that no longer exist and
// moves already in place, plus the destinations the filter refuses, and
// returns what its callers price the moves with: how many were applied, their
// total modeled bytes, and the longest single transfer.
func (rt *Runtime) applyMigrations(migs []Migration, f migFilter) (moved int, bytes int64, maxXfer des.Time) {
	for _, mg := range migs {
		el := mg.Array.lookup(mg.Idx)
		if el == nil || mg.ToPE == el.pe {
			continue
		}
		if f != toAnyPE && (mg.ToPE >= rt.activePEs || rt.pes[mg.ToPE].evac || f == toLivePE && rt.pes[mg.ToPE].dead) {
			continue
		}
		from := el.pe
		size := rt.moveElement(el, mg.ToPE, false)
		xfer := rt.mach.NetDelay(from, mg.ToPE, size) +
			rt.mach.SendOverhead(from) + rt.mach.RecvOverhead(mg.ToPE)
		if xfer > maxXfer {
			maxXfer = xfer
		}
		bytes += int64(size)
		moved++
	}
	return moved, bytes, maxXfer
}

// CompactElementTable renumbers the location tables densely over the live
// elements, dropping slots accumulated by destroyed keys (AMR coarsening,
// shrink). It runs only at a quiescent cut — no element message in flight,
// queued, or buffered — because renumbering invalidates every eid stamped
// on a message or cached hint; the location caches are dropped and the
// table epoch bumped so late-landing hints and stale snapshots cannot
// resurrect the old numbering. Global-event context. Returns false (doing
// nothing) when the quiescence precondition does not hold.
func (rt *Runtime) CompactElementTable() bool {
	if rt.inflight != 0 || len(rt.pending) != 0 {
		return false
	}
	rt.dir.compact(rt.arrays)
	for _, p := range rt.pes {
		p.loc.reset()
	}
	rt.tableEpoch++
	return true
}
