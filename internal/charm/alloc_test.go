package charm

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"charmgo/internal/machine"
	"charmgo/internal/parsim"
	"charmgo/internal/pup"
)

// pingPair bounces a nil-payload message between two elements, keeping the
// application out of the measurement so the numbers isolate the runtime's
// send→schedule→execute→commit path.
type pingPair struct {
	Peer, Left int
}

func (o *pingPair) Pup(p *pup.Pup) {
	p.Int(&o.Peer)
	p.Int(&o.Left)
}

const epPingPair EP = 0

// TestSteadyStateAllocsPerEvent pins the end-to-end delivery path at well
// under one heap allocation per engine event. The budget guards the
// pooling that makes paper-scale runs fit in memory: pooled messages,
// the per-PE recycled Ctx, the preallocated commit closures, and the
// engine's slab-allocated event store. The ISSUE acceptance bound is 2
// allocs/event; the runtime path measures ~0, so 0.5 leaves headroom for
// incidental warmup while still catching any reintroduced per-event
// allocation. The traced row holds the emit sites to the same budget: a
// record goes to the sink by value, and an element's index is rendered for
// its first traced event, not for each.
func TestSteadyStateAllocsPerEvent(t *testing.T) {
	const rounds = 50000
	for _, traced := range []bool{false, true} {
		rt := testRT(2)
		if traced {
			rt.SetTrace(&migCount{}, nil)
		}
		var arr *Array
		handlers := []Handler{
			epPingPair: func(obj Chare, ctx *Ctx, msg any) {
				o := obj.(*pingPair)
				o.Left--
				if o.Left <= 0 {
					ctx.Exit()
					return
				}
				ctx.Send(arr, Idx1(o.Peer), epPingPair, nil)
			},
		}
		arr = rt.DeclareArray("ping", func() Chare { return &pingPair{} }, handlers, ArrayOpts{EntryNames: []string{"ping"}})
		arr.InsertOn(Idx1(0), &pingPair{Peer: 1, Left: rounds}, 0)
		arr.InsertOn(Idx1(1), &pingPair{Peer: 0, Left: rounds}, 1)
		rt.Boot(func(ctx *Ctx) { ctx.Send(arr, Idx1(0), epPingPair, nil) })

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt.Run()
		runtime.ReadMemStats(&after)

		ev := rt.Engine().Executed()
		if ev == 0 {
			t.Fatal("no events executed")
		}
		perEvent := float64(after.Mallocs-before.Mallocs) / float64(ev)
		t.Logf("traced=%v: steady-state allocs/event = %.4f over %d events", traced, perEvent, ev)
		if perEvent > 0.5 {
			t.Fatalf("traced=%v: steady-state allocs/event = %.3f, want <= 0.5 (message/Ctx/commit pooling regressed)", traced, perEvent)
		}
	}
}

// TestBufferedEffectsAllocFree is the parallel backends' counterpart of the
// pin above: a delivery whose handler makes two Sends and one Contribute —
// all three buffered during the phase and replayed by the commit — performs
// no allocation at steady state, in either parallel mode. The effects are
// typed records in the PE's reused buffer, not a list, a slice growth and a
// closure each. Two fan elements on different shards take one trigger each
// per round, so one of the two deliveries (conservative) or both
// (optimistic) are launched; the four sink deliveries they cause ride
// along. The optimistic row runs with its window open and SnapInterval 4,
// so the measured rounds also speculate, pack an image every fourth
// commit, log the deliveries between and retire the interval: state saving
// works in storage the elements keep. The test contributes to one
// generation that never completes, so a reduction's per-generation
// bookkeeping stays out of the per-delivery number.
func TestBufferedEffectsAllocFree(t *testing.T) {
	const (
		epFan EP = iota
		epSink
	)
	for _, backend := range []string{"parallel", "optimistic"} {
		cfg := machine.Testbed(4)
		cfg.Backend, cfg.SnapInterval = backend, 4
		rt := New(machine.New(cfg))
		var arr *Array
		first := Reducer{Name: "first", Merge: func(a, _ any) any { return a }}
		var fans atomic.Int64 // the two fan phases run concurrently
		handlers := []Handler{
			epFan: func(obj Chare, ctx *Ctx, _ any) {
				fans.Add(1)
				ctx.Send(arr, Idx1(2), epSink, nil)
				ctx.Send(arr, Idx1(3), epSink, nil)
				ctx.Contribute(nil, first, Callback{})
			},
			epSink: func(Chare, *Ctx, any) {},
		}
		arr = rt.DeclareArray("fan", func() Chare { return &counter{} }, handlers, ArrayOpts{PureHandlers: true})
		for i := 0; i < 4; i++ {
			arr.InsertOn(Idx1(i), &counter{}, i)
		}
		fanEls := []*element{arr.lookup(Idx1(0)), arr.lookup(Idx1(1))}
		inject := func() {
			for i, el := range fanEls {
				el.redGen = 0 // every contribution joins generation 0
				m := getMsg()
				m.dest, m.destPE, m.ep, m.size, m.srcPE = el.key, -1, int32(epFan), 64, int32(i)
				rt.send(m, rt.eng.Now()) // simultaneous, so the two overlap
			}
		}
		round := func() {
			rt.eng.At(rt.eng.Now(), inject)
			rt.eng.Run()
		}
		round()
		arr.redOpen[0].expected = math.MaxInt // generation 0 stays open however many rounds join it
		// Warm the pools, the slab, every calendar bucket, the effect buffers
		// and — optimistic — every element's save.
		for i := 0; i < 4096; i++ {
			round()
		}
		fans.Store(0)
		saves := rt.SpecSaveStats()
		if n := testing.AllocsPerRun(200, round); n > 0 && !raceEnabled {
			t.Errorf("%s: %.0f allocations per round of two fan deliveries, want 0", backend, n)
		}
		if fans.Load() != 2*201 { // AllocsPerRun warms up with one extra call
			t.Fatalf("%s: %d fan deliveries in 201 rounds, want 402", backend, fans.Load())
		}
		if st := rt.eng.(*parsim.Engine).EngineStats(); st.Launched < 4000 {
			t.Fatalf("%s: stats %+v: want the fan deliveries launched", backend, st)
		}
		if backend != "optimistic" {
			continue
		}
		// 201 commits per fan element at K=4: each went through 50 intervals.
		now := rt.SpecSaveStats()
		if img, ret, logged := now.Snapshots-saves.Snapshots, now.Retired-saves.Retired, now.LoggedDeliveries-saves.LoggedDeliveries; img < 100 || ret < 100 || logged < 3*100 {
			t.Fatalf("measured rounds packed %d images, retired %d and logged %d deliveries: want the saves cycling (>= 100, 100, 300)", img, ret, logged)
		}
	}
}

// lastEvent is a trace sink that keeps the latest record.
type lastEvent struct{ e Event }

func (l *lastEvent) Emit(e Event) uint64 { l.e = e; return 0 }

// TestTracedDeliveryAllocFree pins a traced delivery to an array declared
// without EntryNames at zero allocations once its element's index has been
// minted: the record names the entry by an id minted at declaration, not by
// a string formatted per delivery.
func TestTracedDeliveryAllocFree(t *testing.T) {
	rt := testRT(2)
	sink := &lastEvent{}
	rt.SetTrace(sink, nil)
	arr := rt.DeclareArray("sink", func() Chare { return &counter{} }, []Handler{func(Chare, *Ctx, any) {}}, ArrayOpts{})
	arr.InsertOn(Idx1(0), &counter{}, 0)
	key := arr.lookup(Idx1(0)).key
	inject := func() {
		m := getMsg()
		m.dest, m.destPE, m.ep, m.size, m.srcPE = key, -1, 0, 64, 0
		rt.send(m, rt.eng.Now())
	}
	round := func() {
		rt.eng.At(rt.eng.Now(), inject)
		rt.eng.Run()
	}
	for i := 0; i < 64; i++ { // warm the pools, the calendar and the index's id
		round()
	}
	if n := testing.AllocsPerRun(200, round); n > 0 && !raceEnabled {
		t.Errorf("%.0f allocations per traced delivery, want 0", n)
	}
	if e, names := sink.e, rt.Names(); e.Kind != KEntryEnd || names.Subject(e) != "sink.ep0" || names.Name(e.Idx) != Idx1(0).String() {
		t.Errorf("last record %+v names %q index %q, want the end of sink.ep0 on %v", e, names.Subject(e), names.Name(e.Idx), Idx1(0))
	}
}

// TestEventRecordAlloc pins the trace record's shape: 64 bytes and no field
// the collector scans, so the recorder's log of them is one pointer-free
// allocation.
func TestEventRecordAlloc(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 64 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 64", n)
	}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Interface, reflect.Map, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the record must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(Event{}), "Event")
}

// TestLocationHintAllocs: a location hint from the home PE back to a sender
// is one allocation of at most 64 B, its locHint record; the event body is
// the runtime's preallocated hintFn, so no closure rides along, and landing
// the hint in an existing table allocates nothing.
func TestLocationHintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if n := unsafe.Sizeof(locHint{}); n > 64 {
		t.Errorf("unsafe.Sizeof(locHint{}) = %d, want <= 64", n)
	}
	rt := testRT(2)
	arr := declCounters(rt, ArrayOpts{})
	arr.InsertOn(Idx1(0), &counter{}, 1)
	el := arr.lookup(Idx1(0))
	hint := func() {
		rt.updateLocCache(0, el.key, el.pe, 1, el.eid)
		rt.eng.Run()
	}
	// Warm up: PE 0's first hint makes its table, and the calendar's
	// buckets grow as the clock walks through them.
	for i := 0; i < 8192; i++ {
		hint()
	}
	if ent, ok := rt.pes[0].loc.get(arr, &el.key); !ok || int(ent.pe) != el.pe {
		t.Fatalf("PE 0's hint for %v = %+v, %v; want PE %d", el.key, ent, ok, el.pe)
	}
	const hints = 1000
	// One P for the window: a goroutine that moves to another P mid-window
	// makes that P's allocation cache count a whole span of 64-byte slots
	// (≈ 5 KB) at once.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hints; i++ {
		hint()
	}
	runtime.ReadMemStats(&after)
	objs := float64(after.Mallocs-before.Mallocs) / hints
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / hints
	t.Logf("%.2f allocations, %.1f B per hint", objs, bytes)
	if objs > 1 || bytes > 64 {
		t.Fatalf("a hint costs %.2f allocations and %.1f B, want 1 of at most 64 B", objs, bytes)
	}
}

// A record's Arr id has 16 bits: an array past MaxArrays fails with an
// *ArrayLimitError where it is declared, rather than wrap onto another id.
func TestDeclareArrayPastLimit(t *testing.T) {
	rt := testRT(1)
	for len(rt.names.arrs) < MaxArrays {
		if _, err := rt.names.AddArray("filler"); err != nil {
			t.Fatalf("array id %d: %v", len(rt.names.arrs)+1, err)
		}
	}
	err := func() (err error) {
		defer func() { err, _ = recover().(error) }()
		declCounters(rt, ArrayOpts{})
		return nil
	}()
	var lim *ArrayLimitError
	if !errors.As(err, &lim) || lim.Name != "counters" {
		t.Fatalf("DeclareArray past the limit: %v, want an *ArrayLimitError naming the array", err)
	}
	if len(rt.Arrays()) != 0 {
		t.Fatalf("the refused array was registered: %d arrays", len(rt.Arrays()))
	}
}

// TestResolveAllocFree pins the location-manager lookup (the per-send hot
// path) at zero allocations once the element tables are built.
func TestResolveAllocFree(t *testing.T) {
	rt := testRT(8)
	arr := declCounters(rt, ArrayOpts{})
	for i := 0; i < 256; i++ {
		arr.Insert(Idx1(i), &counter{})
	}
	keys := make([]elemKey, 256)
	for i := range keys {
		keys[i] = elemKey{array: arr.id, idx: Idx1(i)}
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		_, _ = rt.resolveEID(0, keys[i%len(keys)])
		i++
	}); n > 0 {
		t.Fatalf("resolve allocates %.2f per lookup, want 0", n)
	}
}

// TestSnapshotSkipFastPathAllocs pins the infrequent-state-saving fast
// path at zero allocations: when a speculated execution touches an element
// that still holds a live image, touchElem must only bump the phase's
// skipped count and record the element in the shard's touched set — no
// packing, no image buffer, no metadata copies. This is the path taken
// K-1 times out of every K speculated executions, so a single allocation
// here would erase most of what sparse imaging saves.
func TestSnapshotSkipFastPathAllocs(t *testing.T) {
	sp := &shardSpec{}
	els := []*element{
		{save: &elemSave{live: true}},
		{save: &elemSave{live: true}},
		{save: &elemSave{live: true}},
	}
	// Warm once so sp.touched reaches its working capacity.
	for _, el := range els {
		sp.touchElem(el)
	}
	if n := testing.AllocsPerRun(1000, func() {
		sp.touched = sp.touched[:0]
		for _, el := range els {
			sp.touchElem(el)
			sp.touchElem(el) // dedup re-touch, the commonest case of all
		}
	}); n > 0 {
		t.Fatalf("snapshot-skipped touch allocates %.2f per phase, want 0", n)
	}
	if sp.freshImages != 0 || sp.skipped != 3*1002 {
		t.Fatalf("packed %d images and skipped %d, want 0 and %d", sp.freshImages, sp.skipped, 3*1002)
	}
}

// TestMsgQueueAllocSteadyState pins the PE scheduler queue: once the heap
// slice has grown to its working size, push/pop cycles must not allocate
// (messages themselves come from the pool).
func TestMsgQueueAllocSteadyState(t *testing.T) {
	var q msgQueue
	msgs := make([]*message, 64)
	for i := range msgs {
		msgs[i] = &message{prio: int64(i % 7), seq: uint64(i)}
	}
	for _, m := range msgs {
		q.push(m)
	}
	for len(q) > 0 {
		q.pop()
	}
	if n := testing.AllocsPerRun(1000, func() {
		for _, m := range msgs {
			q.push(m)
		}
		for len(q) > 0 {
			q.pop()
		}
	}); n > 0 {
		t.Fatalf("msgQueue push/pop allocates %.2f per cycle at steady state, want 0", n)
	}
}
