package charm

import (
	"fmt"
	"math"
	"sync/atomic"

	"charmgo/internal/ctrlpoint"
	"charmgo/internal/des"
	"charmgo/internal/parsim"
	"charmgo/internal/projections/metrics"
	"charmgo/internal/pup"
)

// This file is the runtime half of the optimistic (Time Warp) backend: the
// speculation controller internal/parsim calls, in its optimistic mode,
// around every phase it runs ahead of the commit frontier. The engine guarantees a speculation's
// commit closure never runs unless the speculation survives to its pop, so
// everything globally visible — sends, statistics, quiescence, reduction
// merges — needs no undo at all: the closure is simply dropped. What the
// controller must restore is the handful of shard-local mutations a phase
// is allowed to make (see runOne and Ctx): the PE's pump arming, the
// popped scheduler message, the recycled delivery context, the pending-
// delivery slot, the executed chare's state, and a location-cache hint.
//
// Chare state uses *infrequent state saving* (Rönngren & Ayani): an element
// is PUP-packed only when it has no retained image — which, by the commit
// hook's bookkeeping, happens every K-th committed execution. Between
// images, the commit of each delivery appends the delivery's inputs (the
// pooled message, its timestamp, and the resolve answers its sends
// observed) to the element's replay log. A rollback restores the retained
// image the way migration re-homes state — unpacked into a factory-fresh
// object, //pup:skip fields rebuilt by the factory, exactly the contract
// the charmvet specstate rule checks — and then *coast-forwards*:
// deterministically re-executes the logged committed handlers in an
// effect-suppressed replay mode (Ctx.replay) before discarding the
// speculated phase. The saving interval K adapts online from the observed
// rollback rate and image size (see tune), bounded by a ctrlpoint control
// point that also throttles the engine's optimism window under rollback
// storms.

// elemSave is one element's retained state image plus the replay log of
// committed deliveries executed since the image was taken. It lives on the
// element (element.save) across speculations; it is dropped — image buffer
// and retained messages returned to their pools — when the log reaches the
// saving interval, when a commit-context or multi-element execution
// mutates the element outside the log's single-element replay model, or
// when migration/destruction/recovery invalidates the state outright.
type elemSave struct {
	img []byte // pooled PUP image of el.obj at image time (committed state)

	// Runtime-side element fields a phase may mutate, at image time (load
	// accounting is commit-side and never rolls back).
	msgsSent  uint64
	bytesSent uint64
	pos       [3]float64
	hasPos    bool
	atSync    bool
	redGen    uint64
	comm      map[elemKey]uint64 // owned copy; never aliased to el.comm

	// log holds the committed deliveries since img, in commit order.
	// resolves is the flat arena of location-cache answers their sends
	// observed (each record owns the [resStart,resEnd) slice): the caches
	// may learn newer hints before a rollback, and Ctx.Now — which apps
	// fold into chare state — prices sends from these answers, so replay
	// must re-read the originals, not the live caches.
	log      []replayRec
	resolves []int32
}

// replayRec is one committed delivery in an element's replay log: the
// inputs that deterministically reproduce it, plus the after-values the
// commit observed, verified after re-execution as a divergence tripwire.
type replayRec struct {
	//charmvet:retain (replay log: the save owns the pooled message until the next image or an invalidation returns it via putMsg)
	m  *message
	at des.Time

	resStart, resEnd int

	// After-values at the original commit. elapsed doubles as the dynamic-
	// frequency tripwire: every other elapsed input is pinned by the record,
	// so a mismatch means PE speed changed between execution and replay — a
	// machine model infrequent saving cannot coast across (see DESIGN.md).
	elapsed   des.Time
	msgsSent  uint64
	bytesSent uint64
	redGen    uint64
	atSync    bool
}

// shardSpec is the undo log of one shard's in-flight speculation. A
// speculation is exactly one phase execution, so at most one dequeue and
// one location-cache write can be logged; touched elements accumulate
// (LocalInvoke can reach several chares in one execution).
type shardSpec struct {
	active bool

	// Dequeue undo (runOne): recorded on the driver in BeginSpec order,
	// filled in by the phase before it touches the field it shadows.
	p       *peState
	pumpAt  des.Time
	popped  *message
	spare   *Ctx
	pendM   *message
	pendEl  *element
	pendCtx *Ctx
	pendAt  des.Time

	// touched lists the elements this speculation executed (and must
	// restore on rollback); freshImages/freshBytes count the images the
	// phase packed, read by the driver after the phase's done-edge to feed
	// the cost model with deterministic inputs.
	touched     []*element
	freshImages int
	freshBytes  uint64

	// Location-cache undo (updateLocCache's phase body). cacheDense marks
	// a write to the array's flat hint table (cacheOff its slot, cacheNil
	// "the table itself was created by this speculation"); otherwise the
	// map fields apply.
	cacheP     *peState
	cacheKey   elemKey
	cacheEnt   locEnt
	cacheOff   int
	cacheDense bool
	cacheHad   bool
	cacheNil   bool
}

// Saving-interval and window-tuning model constants.
const (
	// defaultSnapInterval seeds the adaptive interval before the first
	// tuning period has gathered statistics.
	defaultSnapInterval = 16
	// maxSnapInterval bounds K: past this the replay chain a rollback must
	// re-execute stops being worth the bytes the skipped images save.
	maxSnapInterval = 64
	// tunePeriod is how many speculation outcomes (commits + rollbacks)
	// pass between recomputations of K and the window.
	tunePeriod = 1024
	// replayCostBytes prices re-executing one logged delivery during
	// coast-forward, in image-byte equivalents, for the cost model's
	// snapshot-bytes-vs-replay-work trade.
	replayCostBytes = 64.0
	// windowScaleOne is the window control point's neutral denominator:
	// effective window = reference * value / windowScaleOne.
	windowScaleOne = 16
)

// specController implements parsim.Controller over the runtime's shard
// (node) layout. BeginSpec/CommitSpec/RollbackSpec run on the engine's
// driving goroutine; the note/touch hooks run inside the speculated phase
// on whichever goroutine claimed it, ordered against the driver by the
// engine's post/claim/done atomics. The commit hook (onCommitted) and the
// tuner run on the driver in commit order, so every input to the adaptive
// decisions is deterministic — phase-written atomics feed only metrics,
// never policy.
type specController struct {
	rt     *Runtime
	eng    *parsim.Engine
	shards []shardSpec

	// Snapshot counters feed the optsim.* metrics family. Phases on
	// different shards pack and skip concurrently, so these are atomics —
	// the only speculation state shared across goroutines. Their final
	// (run-end) values are deterministic; mid-run reads are side-band.
	snapshots     atomic.Uint64
	snapshotBytes atomic.Uint64
	avoided       atomic.Uint64
	restores      atomic.Uint64

	// Driver-owned counters (commit order, deterministic).
	replays       uint64 // coast-forward handler re-executions
	invalidations uint64 // retained images dropped before their interval
	logged        uint64 // committed deliveries appended to replay logs

	// ---- adaptive saving interval + optimism window (driver-owned) ----
	fixedK     int // Config.SnapInterval: >=1 pins K and disables tuning
	k          int // current interval
	baseWindow des.Time
	dCommits   uint64 // CommitSpec calls
	dRollbacks uint64 // RollbackSpec calls
	dImgCount  uint64 // committed fresh images (cost-model S numeratorship)
	dImgBytes  uint64
	tuneTick   uint64
	lastRB     uint64 // engine counters at the last tuning period
	lastInline uint64

	sys   *ctrlpoint.System
	kCap  *ctrlpoint.Point // hill-climbed upper bound on the model's K
	winPt *ctrlpoint.Point // optimism-window scale, in windowScaleOne-ths
}

func newSpecController(rt *Runtime, shards, fixedK int, window des.Time) *specController {
	sc := &specController{
		rt:         rt,
		shards:     make([]shardSpec, shards),
		fixedK:     fixedK,
		k:          fixedK,
		baseWindow: window,
	}
	if sc.k <= 0 {
		sc.k = defaultSnapInterval
		// Adaptive mode: the control system owns the interval cap and the
		// window scale. Raising the cap is classic larger-grain (fewer,
		// cheaper-amortized images but longer replay chains); raising the
		// window exposes more overlap at more rollback risk.
		sc.sys = ctrlpoint.NewSystem()
		sc.kCap = sc.sys.Register("optsim.snap_interval_cap", 2, maxSnapInterval, maxSnapInterval, ctrlpoint.EffectLargerGrain)
		sc.winPt = sc.sys.Register("optsim.window_scale", 1, 2*windowScaleOne, 2*windowScaleOne, ctrlpoint.EffectMoreOverlap)
	}
	return sc
}

func (sc *specController) registerMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("optsim.snapshots", func() float64 { return float64(sc.snapshots.Load()) })
	reg.GaugeFunc("optsim.snapshot_bytes", func() float64 { return float64(sc.snapshotBytes.Load()) })
	reg.GaugeFunc("optsim.snapshot_restores", func() float64 { return float64(sc.restores.Load()) })
	reg.GaugeFunc("optsim.snapshots_avoided", func() float64 { return float64(sc.avoided.Load()) })
	reg.GaugeFunc("optsim.replays", func() float64 { return float64(sc.replays) })
	reg.GaugeFunc("optsim.save_invalidations", func() float64 { return float64(sc.invalidations) })
	reg.GaugeFunc("optsim.snap_interval", func() float64 { return float64(sc.curK()) })
	reg.GaugeFunc("optsim.window", func() float64 { return float64(sc.eng.Window()) })
}

// curK is the saving interval in force: the committed log of an element
// may grow to K-1 deliveries before the image is retired. Driver context.
func (sc *specController) curK() int {
	if sc.fixedK > 0 {
		return sc.fixedK
	}
	return sc.k
}

// specFor returns the undo log the phase running on pe should record into,
// or nil when the execution is not speculative (sequential and conservative
// backends, optimistic inline pops, commit context). One nil check on the
// non-speculative hot path.
func (rt *Runtime) specFor(pe int) *shardSpec {
	sc := rt.spec
	if sc == nil {
		return nil
	}
	if s := &sc.shards[rt.peShard[pe]]; s.active {
		return s
	}
	return nil
}

// BeginSpec opens shard s's undo log. Runs on the driver strictly before
// the phase is posted for whoever claims it.
func (sc *specController) BeginSpec(s int) {
	sp := &sc.shards[s]
	if sp.active {
		panic(fmt.Sprintf("charm: BeginSpec on shard %d with a speculation already open", s))
	}
	*sp = shardSpec{active: true, touched: sp.touched[:0]}
}

// CommitSpec closes a committed speculation's log. Fossil collection is
// lazy now: retained images persist on their elements across speculations
// — that is the whole point of infrequent saving — and are reclaimed at
// the next image or invalidation. The driver harvests the phase's
// image-packing counts here (safe and deterministic: the phase's done-edge
// precedes its pop) to feed the cost model.
func (sc *specController) CommitSpec(s int) {
	sp := &sc.shards[s]
	sc.dCommits++
	sc.dImgCount += uint64(sp.freshImages)
	sc.dImgBytes += sp.freshBytes
	for i := range sp.touched {
		sp.touched[i] = nil
	}
	*sp = shardSpec{touched: sp.touched[:0]}
	sc.tune()
}

// RollbackSpec undoes the phase's shard-local mutations, in reverse of the
// order the phase made them. The log may be partial — a phase that
// panicked mid-handler logged only what it reached — so every restore is
// guarded by its own recorded marker.
func (sc *specController) RollbackSpec(s int) {
	sp := &sc.shards[s]
	// Deactivate first: coast-forward replay re-executes committed handlers
	// below, and nothing they touch may be recorded into this undo log.
	sp.active = false

	// The dropped execution's buffered effects die with it: nothing it sent
	// entered the network, so the messages go back to the pool, and the
	// PE's buffer is empty for the replays below and the re-execution.
	if sp.p != nil {
		sp.p.fx.discard()
	}

	// Location-cache hint (mutually exclusive with a dequeue log — a
	// speculation is a single phase — but guarded independently anyway).
	if sp.cacheP != nil {
		switch {
		case sp.cacheDense && sp.cacheNil:
			sp.cacheP.locDense[sp.cacheKey.array] = nil
		case sp.cacheDense:
			sp.cacheP.locDense[sp.cacheKey.array][sp.cacheOff] = sp.cacheEnt
		case sp.cacheNil:
			sp.cacheP.locCache = nil
		case sp.cacheHad:
			sp.cacheP.locCache[sp.cacheKey] = sp.cacheEnt
		default:
			delete(sp.cacheP.locCache, sp.cacheKey)
		}
	}

	// Executed chares: restore the last retained image, then coast-forward
	// over the replay log so the element lands exactly on its committed
	// pre-speculation state.
	for i, el := range sp.touched {
		sv := el.save
		if sv == nil {
			panic(fmt.Sprintf("charm: rollback of %v with no retained image", el.key))
		}
		sc.restoreImage(el, sv)
		sc.coastForward(el, sv)
		sp.touched[i] = nil
		sc.restores.Add(1)
	}

	// The dequeue: push the popped message back (the queue's (prio, seq)
	// order is total, so re-pushing restores the identical pop order),
	// re-arm the pump, and return the pending-delivery slot and recycled
	// context to their pre-phase values. The context the dropped execution
	// used is the old spare pointer itself — the execution is dead, so
	// handing it back as the spare is exactly the recycling contract.
	if sp.p != nil {
		p := sp.p
		if sp.popped != nil {
			p.q.push(sp.popped)
		}
		p.pumpAt = sp.pumpAt
		p.ctxSpare = sp.spare
		p.pendM, p.pendEl, p.pendCtx, p.pendAt = sp.pendM, sp.pendEl, sp.pendCtx, sp.pendAt
	}

	*sp = shardSpec{touched: sp.touched[:0]}
	sc.dRollbacks++
	sc.tune()
}

// noteDequeue records the pump/queue/context state runOne is about to
// shadow. Phase context, on whichever goroutine claimed the phase.
func (sp *shardSpec) noteDequeue(p *peState) {
	sp.p = p
	sp.pumpAt = p.pumpAt
	sp.spare = p.ctxSpare
	sp.pendM, sp.pendEl, sp.pendCtx, sp.pendAt = p.pendM, p.pendEl, p.pendCtx, p.pendAt
}

// noteLocCache records the previous state of the location-cache slot the
// hint write (rt.cacheLoc) is about to overwrite — the flat-table slot for
// small bounded arrays, the map entry otherwise, mirroring cacheLoc's own
// dispatch. Phase context, on whichever goroutine claimed the phase.
func (sp *shardSpec) noteLocCache(rt *Runtime, p *peState, key elemKey) {
	sp.cacheP = p
	sp.cacheKey = key
	a := rt.arrays[key.array]
	if a.linCap > 0 && a.linCap <= denseLocCap {
		if off := a.lin(key.idx); off >= 0 {
			sp.cacheDense = true
			sp.cacheOff = off
			if t := p.locDense[key.array]; t != nil {
				sp.cacheEnt = t[off]
			} else {
				sp.cacheNil = true
			}
			return
		}
	}
	sp.cacheNil = p.locCache == nil
	if !sp.cacheNil {
		sp.cacheEnt, sp.cacheHad = p.locCache[key]
	}
}

// touchElem guarantees el is restorable if this speculation rolls back.
// With an image already retained the touch is free — the snapshot-skipped
// fast path, zero allocations — because the image plus the replay log
// reconstruct the element's committed state regardless of what this phase
// does to it. Without one, the element is packed now: the phase has not
// yet mutated the object, so the image is committed state and stays valid
// no matter the speculation's fate. Dedupes by element — one execution can
// reach the same chare twice through LocalInvoke, and only the first touch
// decides. Phase context, on whichever goroutine claimed the phase.
func (sp *shardSpec) touchElem(sc *specController, el *element) {
	for _, t := range sp.touched {
		if t == el {
			return
		}
	}
	if el.save == nil {
		sc.packImage(el)
		sp.freshImages++
		sp.freshBytes += uint64(len(el.save.img))
	} else {
		sc.avoided.Add(1)
	}
	sp.touched = append(sp.touched, el)
}

// packImage retires el's previous save (image buffer and retained replay
// messages back to their pools) and packs a fresh image of its committed
// state, reusing the save's backing storage. Worker or driver context —
// never both for one element: an element's save is only ever reached from
// its own shard's phase (touch) or its own shard's commits (append/drop),
// and the engine orders those.
func (sc *specController) packImage(el *element) {
	sv := el.save
	if sv == nil {
		sv = &elemSave{}
		el.save = sv
	} else {
		for i := range sv.log {
			putMsg(sv.log[i].m)
			sv.log[i] = replayRec{}
		}
		sv.log = sv.log[:0]
		sv.resolves = sv.resolves[:0]
		pup.PutBuffer(sv.img)
	}
	sv.img = pup.PackTo(pup.GetBuffer(), el.obj)
	sv.msgsSent, sv.bytesSent = el.msgsSent, el.bytesSent
	sv.pos, sv.hasPos = el.pos, el.hasPos
	sv.atSync, sv.redGen = el.atSync, el.redGen
	if el.comm == nil {
		sv.comm = nil
	} else {
		if sv.comm == nil {
			sv.comm = make(map[elemKey]uint64, len(el.comm))
		} else {
			clear(sv.comm)
		}
		//charmvet:ordered (map-to-map copy: the result is identical under any iteration order)
		for k, v := range el.comm {
			sv.comm[k] = v
		}
	}
	sc.snapshots.Add(1)
	sc.snapshotBytes.Add(uint64(len(sv.img)))
}

// restoreImage rolls el back to its image-time committed state: the PUP
// image is unpacked into a factory-fresh object, exactly as migration
// re-homes state, and the image-time meta fields are copied back (the comm
// map deeply — the save persists past this rollback, and replay mutates
// el.comm).
func (sc *specController) restoreImage(el *element, sv *elemSave) {
	fresh := sc.rt.arrays[el.key.array].NewElement()
	if err := pup.Unpack(sv.img, fresh); err != nil {
		panic(fmt.Sprintf("charm: rollback pup of %v failed: %v", el.key, err))
	}
	el.obj = fresh
	el.msgsSent, el.bytesSent = sv.msgsSent, sv.bytesSent
	el.pos, el.hasPos = sv.pos, sv.hasPos
	el.atSync, el.redGen = sv.atSync, sv.redGen
	if sv.comm == nil {
		el.comm = nil
	} else {
		comm := make(map[elemKey]uint64, len(sv.comm))
		//charmvet:ordered (map-to-map copy: the result is identical under any iteration order)
		for k, v := range sv.comm {
			comm[k] = v
		}
		el.comm = comm
	}
}

// coastForward re-executes the committed deliveries logged since el's
// image, in commit order, each in an effect-suppressed replay context:
// every global effect buffers into the PE's fxList and is discarded (the
// originals are already committed), sends re-price from the recorded
// resolve answers, and no message, load charge, or statistic escapes.
// Determinism of the phase/commit discipline guarantees the identical state
// trajectory; the recorded after-values are verified per entry as the
// tripwire. Driver context (inside RollbackSpec).
func (sc *specController) coastForward(el *element, sv *elemSave) {
	rt := sc.rt
	arr := rt.arrays[el.key.array]
	cfg := rt.mach.Config()
	fx := &rt.pes[el.pe].fx
	for i := range sv.log {
		rec := &sv.log[i]
		ctx := rt.newCtxAt(el.pe, el, rec.at)
		ctx.phase = true
		ctx.replay = true
		ctx.fx = fx // buffer — then discard — every global effect
		ctx.cause = rec.m.traceID
		ctx.res = sv.resolves[:rec.resEnd]
		ctx.resIdx = rec.resStart
		ctx.elapsed = rt.mach.RecvOverheadFrom(el.pe, rec.m.srcPE)
		ctx.chargeLoadWork(cfg.RecvOverheadLocal)
		arr.handlers[rec.m.ep](el.obj, ctx, rec.m.payload)
		fx.discard()
		if ctx.resIdx != rec.resEnd || ctx.elapsed != rec.elapsed ||
			el.msgsSent != rec.msgsSent || el.bytesSent != rec.bytesSent ||
			el.redGen != rec.redGen || el.atSync != rec.atSync {
			panic(fmt.Sprintf("charm: coast-forward replay of %v diverged at log entry %d/%d "+
				"(elapsed %v want %v, msgsSent %d want %d): handler state must be a pure function "+
				"of (chare, payload) — a Now()-dependence on dynamic PE speed, or payload mutation, "+
				"breaks infrequent saving (set SnapInterval: 1 to restore eager snapshots)",
				el.key, i, len(sv.log), ctx.elapsed, rec.elapsed, el.msgsSent, rec.msgsSent))
		}
		sc.replays++
	}
}

// onCommitted runs in every element delivery's commit on the optimistic
// backend — speculated and inline pops alike — and decides the fate of the
// element's retained image: extend the replay log with this delivery
// (taking ownership of its message as the replay input), retire the image
// when the log has reached the saving interval, or drop it when the
// execution mutated chares the single-element replay model cannot cover.
// Returns whether it took ownership of m. Driver context, commit order.
func (sc *specController) onCommitted(el *element, ctx *Ctx, m *message, at des.Time) bool {
	if len(ctx.extraEls) > 0 {
		// Multi-element execution (LocalInvoke reached other chares): the
		// per-element logs hold only single-element deliveries, so every
		// touched image goes stale.
		sc.dropSave(el)
		for _, ex := range ctx.extraEls {
			sc.dropSave(ex)
		}
		return false
	}
	sv := el.save
	if sv == nil {
		return false
	}
	if !sc.rt.arrays[el.key.array].opts.PureHandlers {
		// Handlers may consult mutable app-global state, which replay
		// cannot pin: stay eager — retire the image every commit, exactly
		// the pre-infrequent-saving behavior.
		sc.dropSave(el)
		return false
	}
	if len(sv.log)+1 >= sc.curK() {
		// The K-th execution since the image is due: retire now, so the
		// next speculative touch packs fresh and the coast-forward chain a
		// rollback must re-execute stays bounded at K-1 deliveries.
		sc.dropSave(el)
		return false
	}
	p := sc.rt.pes[ctx.pe]
	start := len(sv.resolves)
	sv.resolves = append(sv.resolves, p.resLog...)
	sv.log = append(sv.log, replayRec{
		//charmvet:retain (replay log: the save owns m until the next image or an invalidation returns it via putMsg)
		m:         m,
		at:        at,
		resStart:  start,
		resEnd:    len(sv.resolves),
		elapsed:   ctx.elapsed,
		msgsSent:  el.msgsSent,
		bytesSent: el.bytesSent,
		redGen:    el.redGen,
		atSync:    el.atSync,
	})
	sc.logged++
	return true
}

// dropSave invalidates el's retained image, returning the image buffer and
// the log's retained messages to their pools. Driver/global context (every
// caller — commit hooks, structural mutation, recovery — runs there).
func (sc *specController) dropSave(el *element) {
	sv := el.save
	if sv == nil {
		return
	}
	el.save = nil
	sc.invalidations++
	for i := range sv.log {
		putMsg(sv.log[i].m)
		sv.log[i] = replayRec{}
	}
	pup.PutBuffer(sv.img)
	sv.img = nil
}

// dropSave is the runtime-side hook structural mutations call: migration,
// destruction, checkpoint rollback, and Replace all leave the retained
// image describing a state trajectory that no longer exists.
func (rt *Runtime) dropSave(el *element) {
	if rt.spec != nil {
		rt.spec.dropSave(el)
	}
}

// tune recomputes the saving interval and the optimism window once per
// tuning period. Driver context; every input — the driver-owned outcome
// counters and the engine's Stats — is deterministic in commit order, so
// the adaptive decisions (and therefore snapshot counts, launch decisions,
// and Stats) are identical run to run.
func (sc *specController) tune() {
	if sc.sys == nil {
		return // fixed interval: nothing adapts
	}
	sc.tuneTick++
	if sc.tuneTick%tunePeriod != 0 {
		return
	}

	// Feed the control system one observation (lower = better): rollbacks
	// weighted against inline pops this period. Too much optimism shows up
	// as rollbacks; too little shows up as events the launcher never dared
	// to speculate (inline pops), i.e. lost overlap.
	es := sc.eng.EngineStats()
	dRB := es.RolledBack - sc.lastRB
	dIn := es.Inline - sc.lastInline
	sc.lastRB, sc.lastInline = es.RolledBack, es.Inline
	sc.sys.Observe(float64(4*dRB + dIn))

	// Rönngren–Ayani: with saving cost S (average image bytes), per-event
	// replay cost R, and rollback probability r per committed delivery, the
	// expected overhead per event C(K) = S/K + r·R·(K-1)/2 is minimized at
	// K* = sqrt(2S/(rR)). The control point caps the model's answer.
	S := 256.0
	if sc.dImgCount > 0 {
		S = float64(sc.dImgBytes) / float64(sc.dImgCount)
	}
	r := float64(sc.dRollbacks+1) / float64(sc.dCommits+sc.dRollbacks+2)
	kStar := int(math.Round(math.Sqrt(2 * S / (r * replayCostBytes))))
	if kc := sc.kCap.Value(); kStar > kc {
		kStar = kc
	}
	if kStar < 1 {
		kStar = 1
	}
	sc.k = kStar

	// Window throttling: scale the configured window — or, when optimism
	// is unbounded, the observed maximum GVT lag — by the control point.
	// At the point's maximum the window stays wide open (the seed
	// behavior); rollback storms walk it down.
	v := sc.winPt.Value()
	switch {
	case sc.baseWindow > 0:
		sc.eng.SetWindow(sc.baseWindow * des.Time(v) / windowScaleOne)
	case v >= sc.winPt.Max:
		sc.eng.SetWindow(0) // unbounded, as configured
	case es.MaxGVTLag > 0:
		sc.eng.SetWindow(es.MaxGVTLag * des.Time(v) / windowScaleOne)
	}
}

var _ parsim.Controller = (*specController)(nil)

// SpecSnapshotStats reports how many chare images the optimistic backend
// has packed and their total PUP bytes (zero on other backends).
func (rt *Runtime) SpecSnapshotStats() (snapshots, bytes uint64) {
	if rt.spec == nil {
		return 0, 0
	}
	return rt.spec.snapshots.Load(), rt.spec.snapshotBytes.Load()
}

// SpecSaveStats is the state-saving profile of an optimistic run: images
// packed vs skipped, rollback restores and coast-forward re-executions,
// and the adaptive policy's current interval and window.
type SpecSaveStats struct {
	Snapshots        uint64
	SnapshotBytes    uint64
	SnapshotsAvoided uint64
	Restores         uint64
	Replays          uint64
	LoggedDeliveries uint64
	Invalidations    uint64
	SnapInterval     int
	Adaptive         bool
	Window           float64
}

// SpecSaveStats reports the optimistic backend's state-saving counters
// (the zero value on other backends).
func (rt *Runtime) SpecSaveStats() SpecSaveStats {
	sc := rt.spec
	if sc == nil {
		return SpecSaveStats{}
	}
	return SpecSaveStats{
		Snapshots:        sc.snapshots.Load(),
		SnapshotBytes:    sc.snapshotBytes.Load(),
		SnapshotsAvoided: sc.avoided.Load(),
		Restores:         sc.restores.Load(),
		Replays:          sc.replays,
		LoggedDeliveries: sc.logged,
		Invalidations:    sc.invalidations,
		SnapInterval:     sc.curK(),
		Adaptive:         sc.fixedK <= 0,
		Window:           float64(sc.eng.Window()),
	}
}
