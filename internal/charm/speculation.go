package charm

import (
	"fmt"
	"math"

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
// is PUP-packed only when it has no live image — which, by the commit
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
// rollback rate and image size (see tune); the engine's optimism window is
// unbounded.

// elemSave is one element's state-saving storage: the retained image of its
// committed state plus the replay log of committed deliveries executed since
// the image was packed. It is allocated at the element's first speculative
// touch and then kept for as long as the element stays put, so steady-state
// saving allocates nothing: an interval that ends — the log reached the
// saving interval, the array is on the eager contract, a commit-context or
// multi-element execution mutated the element outside the log's
// single-element replay model, a load-balancing round reset its meters —
// only marks the save not live, hands the log's messages back to msgPool at
// that moment and truncates the log (retire), and the next touch packs into
// the same buffers. Only a structural change — migration, evacuation,
// destruction, Replace, RecoverReset — releases the storage (el.save = nil),
// so a departed element pins nothing.
type elemSave struct {
	// live marks a retained image: img, the meta fields and the log describe
	// the element's committed state. Not live, everything below is capacity.
	live bool
	img  []byte // PUP image of el.obj at image time, in a buffer the save owns

	// Runtime-side element fields a phase may mutate, at image time (load
	// accounting is commit-side and never rolls back).
	msgsSent  uint64
	bytesSent uint64
	pos       [3]float64
	hasPos    bool
	atSync    bool
	redGen    uint64
	hasComm   bool               // el.comm was non-nil at image time
	comm      map[elemKey]uint64 // owned copy; never aliased to el.comm

	// log holds the committed deliveries since img, in commit order.
	// resolves is the flat arena of location-cache answers their sends
	// observed (record i owns the slice from record i-1's resEnd to its
	// own): the caches may learn newer hints before a rollback, and Ctx.Now
	// — which apps fold into chare state — prices sends from these answers,
	// so replay must re-read the originals, not the live caches.
	log      []replayRec
	resolves []int32
}

// replayRec is one committed delivery in an element's replay log: the
// inputs that deterministically reproduce it, plus the after-values the
// commit observed, verified after re-execution as a divergence tripwire.
type replayRec struct {
	//charmvet:retain (replay log: the save owns the pooled message until its interval retires and returns it via putMsg)
	m  *message
	at des.Time

	// After-values at the original commit. elapsed doubles as the dynamic-
	// frequency tripwire: every other elapsed input is pinned by the record,
	// so a mismatch means PE speed changed between execution and replay — a
	// machine model infrequent saving cannot coast across (see DESIGN.md).
	// meters packs the element's other four phase-mutable fields (see
	// packMeters).
	elapsed des.Time
	meters  uint64

	resEnd int32 // end of this record's answers in the save's resolves arena
}

// The meters word of a replayRec: the low bits of the element's send
// counters and reduction generation plus its AtSync flag, each in a field of
// its own so a tripwire mismatch still names the meter that diverged. One
// delivery moves a counter by far less than its field's range, so comparing
// the low bits catches every divergence the full values would.
const (
	meterMsgsBits  = 20
	meterBytesBits = 32
	meterGenBits   = 11
)

func packMeters(el *element) uint64 {
	w := el.msgsSent & (1<<meterMsgsBits - 1)
	w |= el.bytesSent & (1<<meterBytesBits - 1) << meterMsgsBits
	w |= el.redGen & (1<<meterGenBits - 1) << (meterMsgsBits + meterBytesBits)
	if el.atSync {
		w |= 1 << 63
	}
	return w
}

// meterDiff names the first field in which two meters words differ, with
// both values ("" when the words are equal).
func meterDiff(got, want uint64) string {
	for _, f := range [...]struct {
		name        string
		shift, bits uint
	}{
		{"msgsSent", 0, meterMsgsBits},
		{"bytesSent", meterMsgsBits, meterBytesBits},
		{"redGen", meterMsgsBits + meterBytesBits, meterGenBits},
		{"atSync", 63, 1},
	} {
		mask := uint64(1)<<f.bits - 1
		if g, w := got>>f.shift&mask, want>>f.shift&mask; g != w {
			return fmt.Sprintf("%s %d want %d (low %d bits)", f.name, g, w, f.bits)
		}
	}
	return ""
}

// retire ends the save's interval: the log's messages go back to the pool
// now — not at the next image — so an element that is never speculated
// again holds no message or payload, and the records are unreachable from
// this moment on. The image buffer, the log's and arena's capacity and the
// comm map stay for the next interval.
func (sv *elemSave) retire() {
	for i := range sv.log {
		putMsg(sv.log[i].m)
	}
	clear(sv.log)
	sv.log = sv.log[:0]
	sv.resolves = sv.resolves[:0]
	sv.live = false
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
	// phase packed and skipped the touches that found a live one. The phase
	// owns its shard, so these are plain fields; the driver reads them after
	// the phase's done-edge, folding them into the controller's totals and
	// feeding the cost model with deterministic inputs.
	touched     []*element
	freshImages uint64
	freshBytes  uint64
	skipped     uint64

	// Location-hint undo (updateLocCache's phase body): the key written on
	// cacheP, the entry it replaced, and whether there was one.
	cacheP   *peState
	cacheKey elemKey
	cacheEnt locEnt
	cacheHad bool
}

// Saving-interval model constants.
const (
	// defaultSnapInterval seeds the adaptive interval before the first
	// tuning period has gathered statistics.
	defaultSnapInterval = 16
	// maxSnapInterval bounds K: past this the replay chain a rollback must
	// re-execute stops being worth the bytes the skipped images save.
	maxSnapInterval = 64
	// tunePeriod is how many speculation outcomes (commits + rollbacks)
	// pass between recomputations of K.
	tunePeriod = 1024
	// replayCostBytes prices re-executing one logged delivery during
	// coast-forward, in image-byte equivalents, for the cost model's
	// snapshot-bytes-vs-replay-work trade.
	replayCostBytes = 64.0
)

// specController implements parsim.Controller over the runtime's shard
// (node) layout. BeginSpec/CommitSpec/RollbackSpec run on the engine's
// driving goroutine; the note/touch hooks run inside the speculated phase
// on whichever goroutine claimed it, ordered against the driver by the
// engine's post/claim/done atomics. The commit hook (onCommitted) and the
// tuner run on the driver in commit order, so every input to the adaptive
// decisions is deterministic. Nothing here is shared between goroutines: a
// phase counts what it packed and skipped in its own shardSpec, and the
// driver folds that in when it closes the speculation.
type specController struct {
	rt     *Runtime
	shards []shardSpec

	// Driver-owned counters feeding the optsim.* metrics family (commit
	// order, deterministic; the gauges are evaluated on the driver too).
	snapshots     uint64 // images packed, folded in as speculations close
	snapshotBytes uint64
	avoided       uint64 // touches that found a live image
	restores      uint64 // element restores across all rollbacks
	replays       uint64 // coast-forward handler re-executions
	retired       uint64 // intervals ended on schedule: the K-th commit, the eager contract
	invalidations uint64 // live images dropped before their interval
	logged        uint64 // committed deliveries appended to replay logs

	// replayCtx is the one context coast-forward re-executes logged
	// deliveries in, reset per record.
	replayCtx Ctx

	// ---- adaptive saving interval (driver-owned) ----
	fixedK     int    // Config.SnapInterval: >=1 pins K and disables tuning
	k          int    // current interval
	dCommits   uint64 // CommitSpec calls
	dRollbacks uint64 // RollbackSpec calls
	dImgCount  uint64 // committed fresh images (cost-model S numeratorship)
	dImgBytes  uint64
	tuneTick   uint64
}

func newSpecController(rt *Runtime, shards, fixedK int) *specController {
	sc := &specController{
		rt:     rt,
		shards: make([]shardSpec, shards),
		fixedK: fixedK,
		k:      fixedK,
	}
	if sc.k <= 0 {
		sc.k = defaultSnapInterval
	}
	return sc
}

func (sc *specController) registerMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("optsim.snapshots", func() float64 { return float64(sc.snapshots) })
	reg.GaugeFunc("optsim.snapshot_bytes", func() float64 { return float64(sc.snapshotBytes) })
	reg.GaugeFunc("optsim.snapshot_restores", func() float64 { return float64(sc.restores) })
	reg.GaugeFunc("optsim.snapshots_avoided", func() float64 { return float64(sc.avoided) })
	reg.GaugeFunc("optsim.replays", func() float64 { return float64(sc.replays) })
	reg.GaugeFunc("optsim.save_retired", func() float64 { return float64(sc.retired) })
	reg.GaugeFunc("optsim.save_invalidations", func() float64 { return float64(sc.invalidations) })
	reg.GaugeFunc("optsim.snap_interval", func() float64 { return float64(sc.curK()) })
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
// the phase is posted for whoever claims it. A closed log is all zero (see
// close), so opening it is one store.
func (sc *specController) BeginSpec(s int) {
	sp := &sc.shards[s]
	if sp.active {
		panic(fmt.Sprintf("charm: BeginSpec on shard %d with a speculation already open", s))
	}
	sp.active = true
}

// close folds the phase's image counts into the controller's totals and
// returns the log to its closed, all-zero state by resetting what the phase
// set — a phase writes one of the dequeue and location-cache groups, not
// the whole struct. The value fields of a group (times, the cache key and
// entry) are only read behind its marker and rewritten with it.
func (sc *specController) close(sp *shardSpec) {
	sp.active = false
	sc.snapshots += sp.freshImages
	sc.snapshotBytes += sp.freshBytes
	sc.avoided += sp.skipped
	sp.freshImages, sp.freshBytes, sp.skipped = 0, 0, 0
	clear(sp.touched)
	sp.touched = sp.touched[:0]
	if sp.p != nil {
		sp.p, sp.popped, sp.spare = nil, nil, nil
		sp.pendM, sp.pendEl, sp.pendCtx = nil, nil, nil
	}
	if sp.cacheP != nil {
		sp.cacheP, sp.cacheHad = nil, false
	}
}

// tick counts one speculation outcome and retunes once per tunePeriod.
// Small enough to inline: 1023 calls in 1024 are a counter bump.
func (sc *specController) tick() {
	if sc.fixedK > 0 {
		return // fixed interval: nothing adapts
	}
	if sc.tuneTick++; sc.tuneTick%tunePeriod == 0 {
		sc.tune()
	}
}

// CommitSpec closes a committed speculation's log. Fossil collection is
// lazy: retained images persist on their elements across speculations —
// that is the whole point of infrequent saving — and are retired by the
// commit hook. The driver harvests the phase's image-packing counts here
// (safe and deterministic: the phase's done-edge precedes its pop) to feed
// the cost model.
func (sc *specController) CommitSpec(s int) {
	sp := &sc.shards[s]
	sc.dCommits++
	sc.dImgCount += sp.freshImages
	sc.dImgBytes += sp.freshBytes
	sc.close(sp)
	sc.tick()
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
		if a := sc.rt.arrays[sp.cacheKey.array]; sp.cacheHad {
			sp.cacheP.loc.put(a, sp.cacheKey, sp.cacheEnt)
		} else {
			sp.cacheP.loc.del(a, sp.cacheKey)
		}
	}

	// Executed chares: restore the live image, then coast-forward over the
	// replay log so the element lands exactly on its committed
	// pre-speculation state.
	for _, el := range sp.touched {
		sv := el.save
		if sv == nil || !sv.live {
			panic(fmt.Sprintf("charm: rollback of %v with no retained image", el.key))
		}
		sc.restoreImage(el, sv)
		sc.coastForward(el, sv)
		sc.restores++
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

	sc.close(sp)
	sc.dRollbacks++
	sc.tick()
}

// noteDequeue records the pump/queue/context state runOne is about to
// shadow. Phase context, on whichever goroutine claimed the phase.
func (sp *shardSpec) noteDequeue(p *peState) {
	sp.p = p
	sp.pumpAt = p.pumpAt
	sp.spare = p.ctxSpare
	sp.pendM, sp.pendEl, sp.pendCtx, sp.pendAt = p.pendM, p.pendEl, p.pendCtx, p.pendAt
}

// touchElem guarantees el is restorable if this speculation rolls back.
// With a live image the touch is free — the snapshot-skipped fast path,
// zero allocations — because the image plus the replay log reconstruct the
// element's committed state regardless of what this phase does to it.
// Without one, the element is packed now: the phase has not yet mutated the
// object, so the image is committed state and stays valid no matter the
// speculation's fate. Dedupes by element — one execution can reach the same
// chare twice through LocalInvoke, and only the first touch decides. Phase
// context, on whichever goroutine claimed the phase.
func (sp *shardSpec) touchElem(el *element) {
	for _, t := range sp.touched {
		if t == el {
			return
		}
	}
	if sv := el.save; sv != nil && sv.live {
		sp.skipped++
	} else {
		sp.freshImages++
		sp.freshBytes += uint64(len(el.packImage().img))
	}
	sp.touched = append(sp.touched, el)
}

// packImage opens a saving interval: it packs el's committed state into the
// element's save — allocated on the first touch, reused with its buffers
// from then on — and marks it live. Phase context — never concurrent with
// the driver for one element: a save is only ever reached from its own
// shard's phase (touch) or its own shard's commits (append/retire), and the
// engine orders those.
func (el *element) packImage() *elemSave {
	sv := el.save
	if sv == nil {
		sv = &elemSave{}
		el.save = sv
	}
	sv.img = pup.PackTo(sv.img, el.obj)
	sv.msgsSent, sv.bytesSent = el.msgsSent, el.bytesSent
	sv.pos, sv.hasPos = el.pos, el.hasPos
	sv.atSync, sv.redGen = el.atSync, el.redGen
	if sv.hasComm = el.comm != nil; sv.hasComm {
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
	sv.live = true
	return sv
}

// restoreImage rolls el back to its image-time committed state: the PUP
// image is unpacked into a factory-fresh object, exactly as migration
// re-homes state, and the image-time meta fields are copied back (the comm
// map deeply, into el's own map — the save persists past this rollback,
// and replay mutates el.comm).
func (sc *specController) restoreImage(el *element, sv *elemSave) {
	fresh, err := sc.rt.arrays[el.key.array].Unpack(sv.img)
	if err != nil {
		panic(fmt.Sprintf("charm: rollback of %v: %v", el.key, err))
	}
	el.obj = fresh
	el.dirty()
	el.msgsSent, el.bytesSent = sv.msgsSent, sv.bytesSent
	el.pos, el.hasPos = sv.pos, sv.hasPos
	el.atSync, el.redGen = sv.atSync, sv.redGen
	if !sv.hasComm {
		el.comm = nil
		return
	}
	if el.comm == nil {
		el.comm = make(map[elemKey]uint64, len(sv.comm))
	} else {
		clear(el.comm)
	}
	//charmvet:ordered (map-to-map copy: the result is identical under any iteration order)
	for k, v := range sv.comm {
		el.comm[k] = v
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
	ctx := &sc.replayCtx
	resStart := 0
	for i := range sv.log {
		rec := &sv.log[i]
		*ctx = Ctx{
			rt: rt, pe: el.pe, elem: el, start: rec.at,
			phase: true, replay: true,
			fx:    fx, // buffer — then discard — every global effect
			cause: rec.m.traceID,
			res:   sv.resolves[:rec.resEnd], resIdx: resStart,
		}
		ctx.elapsed = rt.mach.RecvOverheadFrom(el.pe, int(rec.m.srcPE))
		ctx.chargeLoadWork(cfg.RecvOverheadLocal)
		arr.handlers[rec.m.ep](el.obj, ctx, rec.m.payload)
		fx.discard()
		if meters := packMeters(el); ctx.resIdx != int(rec.resEnd) || ctx.elapsed != rec.elapsed || meters != rec.meters {
			var what string
			switch {
			case ctx.elapsed != rec.elapsed:
				what = fmt.Sprintf("elapsed %v want %v", ctx.elapsed, rec.elapsed)
			case meters != rec.meters:
				what = meterDiff(meters, rec.meters)
			default:
				what = fmt.Sprintf("%d location resolves want %d", ctx.resIdx-resStart, int(rec.resEnd)-resStart)
			}
			panic(fmt.Sprintf("charm: coast-forward replay of %v diverged at log entry %d/%d (%s): "+
				"handler state must be a pure function of (chare, payload) — a Now()-dependence on "+
				"dynamic PE speed, or payload mutation, breaks infrequent saving (set SnapInterval: 1 "+
				"to restore eager snapshots)", el.key, i, len(sv.log), what))
		}
		resStart = int(rec.resEnd)
		sc.replays++
	}
	*ctx = Ctx{}
}

// onCommitted runs in every element delivery's commit on the optimistic
// backend — speculated and inline pops alike — and decides the fate of the
// element's live image: extend the replay log with this delivery (taking
// ownership of its message as the replay input), retire the interval when
// the log has reached the saving interval, or invalidate it when the
// execution mutated chares the single-element replay model cannot cover.
// Returns whether it took ownership of m. Driver context, commit order.
func (sc *specController) onCommitted(el *element, ctx *Ctx, m *message, at des.Time) bool {
	if len(ctx.extraEls) > 0 {
		// Multi-element execution (LocalInvoke reached other chares): the
		// per-element logs hold only single-element deliveries, so every
		// touched image goes stale.
		sc.invalidateSave(el)
		for _, ex := range ctx.extraEls {
			sc.invalidateSave(ex)
		}
		return false
	}
	sv := el.save
	if sv == nil || !sv.live {
		return false
	}
	// Two scheduled ends of an interval. Handlers not declared pure may
	// consult mutable app-global state, which replay cannot pin: stay eager
	// — retire every commit, exactly the pre-infrequent-saving behavior.
	// Otherwise the K-th execution since the image is due: retire now, so
	// the next speculative touch packs fresh and the coast-forward chain a
	// rollback must re-execute stays bounded at K-1 deliveries.
	if !sc.rt.arrays[el.key.array].opts.PureHandlers || len(sv.log)+1 >= sc.curK() {
		sv.retire()
		sc.retired++
		return false
	}
	if sv.log == nil {
		// Sized once, not doubled into: a log holds at most K-1 records, the
		// adaptive K never passes maxSnapInterval, and a larger fixed one
		// grows past it by append.
		k := maxSnapInterval
		if sc.fixedK > 0 && sc.fixedK < k {
			k = sc.fixedK
		}
		sv.log = make([]replayRec, 0, k-1)
	}
	sv.resolves = append(sv.resolves, sc.rt.pes[ctx.pe].resLog...)
	sv.log = append(sv.log, replayRec{
		//charmvet:retain (replay log: the save owns m until its interval retires and returns it via putMsg)
		m:       m,
		at:      at,
		elapsed: ctx.elapsed,
		meters:  packMeters(el),
		resEnd:  int32(len(sv.resolves)),
	})
	sc.logged++
	return true
}

// invalidateSave ends el's interval early because something outside its
// replay log changed the element: a commit-context or multi-element
// execution, a load-balancing round's meter reset. The storage stays with
// the element. Driver/global context.
func (sc *specController) invalidateSave(el *element) {
	if sv := el.save; sv != nil && sv.live {
		sv.retire()
		sc.invalidations++
	}
}

// invalidateSave is the hook the runtime's commit-context meter resets
// call; see the controller's method.
func (rt *Runtime) invalidateSave(el *element) {
	if rt.spec != nil {
		rt.spec.invalidateSave(el)
	}
}

// dropSave is the hook structural mutations call: migration, evacuation,
// destruction, checkpoint rollback and Replace all leave the element's
// state trajectory somewhere its save cannot follow, so the interval is
// invalidated and the storage released with it — a departed or destroyed
// element pins neither buffers nor a log.
func (rt *Runtime) dropSave(el *element) {
	if rt.spec != nil {
		rt.spec.invalidateSave(el)
		el.save = nil
	}
}

// tune recomputes the saving interval; tick calls it once per tuning
// period. Driver context; every input is a driver-owned outcome counter,
// deterministic in commit order, so the interval (and therefore snapshot
// counts and Stats) is identical run to run.
//
// Rönngren–Ayani: with saving cost S (average image bytes), per-event replay
// cost R, and rollback probability r per committed delivery, the expected
// overhead per event C(K) = S/K + r·R·(K-1)/2 is minimized at
// K* = sqrt(2S/(rR)), clamped to [1, maxSnapInterval].
func (sc *specController) tune() {
	S := 256.0
	if sc.dImgCount > 0 {
		S = float64(sc.dImgBytes) / float64(sc.dImgCount)
	}
	r := float64(sc.dRollbacks+1) / float64(sc.dCommits+sc.dRollbacks+2)
	k := int(math.Round(math.Sqrt(2 * S / (r * replayCostBytes))))
	if k > maxSnapInterval {
		k = maxSnapInterval
	}
	if k < 1 {
		k = 1
	}
	sc.k = k
}

var _ parsim.Controller = (*specController)(nil)

// SpecSaveStats is the state-saving profile of an optimistic run: images
// packed vs skipped, rollback restores and coast-forward re-executions, how
// the images' intervals ended, and the adaptive policy's current interval.
// The image counts cover closed speculations (all of them once Run
// returns).
type SpecSaveStats struct {
	Snapshots        uint64
	SnapshotBytes    uint64
	SnapshotsAvoided uint64
	Restores         uint64
	Replays          uint64
	LoggedDeliveries uint64
	// Retired counts intervals that ended on schedule — the K-th commit
	// since the image, or every commit on the eager contract (SnapInterval 1
	// and arrays without PureHandlers). Invalidations counts live images
	// dropped before that: migration, destruction, recovery, a load-balancing
	// meter reset, a multi-element or commit-context execution.
	Retired       uint64
	Invalidations uint64
	SnapInterval  int
	Adaptive      bool
}

// SpecSaveStats reports the optimistic backend's state-saving counters
// (the zero value on other backends).
func (rt *Runtime) SpecSaveStats() SpecSaveStats {
	sc := rt.spec
	if sc == nil {
		return SpecSaveStats{}
	}
	return SpecSaveStats{
		Snapshots:        sc.snapshots,
		SnapshotBytes:    sc.snapshotBytes,
		SnapshotsAvoided: sc.avoided,
		Restores:         sc.restores,
		Replays:          sc.replays,
		LoggedDeliveries: sc.logged,
		Retired:          sc.retired,
		Invalidations:    sc.invalidations,
		SnapInterval:     sc.curK(),
		Adaptive:         sc.fixedK <= 0,
	}
}
