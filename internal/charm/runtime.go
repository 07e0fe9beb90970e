package charm

import (
	"fmt"
	"math"

	"charmgo/internal/des"
	"charmgo/internal/machine"
	"charmgo/internal/parsim"
	"charmgo/internal/projections/metrics"
	"charmgo/internal/pup"
)

// EP identifies an entry method of a chare array (an index into the handler
// table passed to DeclareArray).
type EP int

// PEH identifies a PE-level handler registered with DeclareNamedPEHandler.
type PEH int

// Chare is the interface chare state implements: serializable so the RTS
// can migrate and checkpoint it.
type Chare interface {
	pup.Pupable
}

// Handler is the body of an entry method: it receives the chare, an
// execution context, and the message payload.
type Handler func(obj Chare, ctx *Ctx, msg any)

// PEHandler is a PE-level handler (no chare target); TRAM and the
// collective trees use these.
type PEHandler func(ctx *Ctx, msg any)

type elemKey struct {
	array int
	idx   Index
}

func (k elemKey) String() string { return fmt.Sprintf("arr%d%v", k.array, k.idx) }

// element is the runtime-side record of one chare-array element.
type element struct {
	key elemKey
	obj Chare
	pe  int
	// eid is the element's dense id in the runtime's location tables,
	// stable for the key's whole lifetime (reinsertions of the same key
	// reuse it, so stale location hints keep routing exactly as the
	// map-based tables did). dead marks a destroyed element: messages
	// stamped with a pointer to it re-route through the location manager.
	eid  int32
	dead bool
	// atSync: the element has called AtSync and awaits ResumeFromSync.
	// hasPos: pos below is set.
	atSync bool
	hasPos bool
	// redRank is the element's rank in the array's canonical index order,
	// used to place reduction contributions without sorting; -1 until the
	// array's rank table has been built (see Array.rebuildRanks).
	redRank int32
	// idxName is key.idx's id in the trace name table, minted at the
	// element's first traced event (0 until then). Written in commit or
	// global context only; a cache of the key, so it is neither PUP'd nor
	// part of StateDigest.
	idxName uint32
	// imgOff and imgLen locate the element's image — its PUP bytes as of
	// the last LBView — in rt.images. The image is clean while imgGen
	// equals rt.imageGen: every hand-out or replacement of obj zeroes
	// imgGen (see dirty), and the next LBView repacks the element.
	imgOff, imgLen, imgGen uint32

	// Instrumentation (the automatic load database of §III-A). Load is
	// kept in integer femtoseconds (see Ctx.chargeLoad) so the measured
	// value is exactly independent of message arrival order; the balancer
	// view converts back to seconds.
	load      int64 // measured compute since last LB, speed-normalized, fs
	totalLoad int64
	msgsSent  uint64
	bytesSent uint64
	comm      map[elemKey]uint64 // bytes per destination (TrackComm arrays)
	pos       [3]float64

	redGen uint64 // reduction generation counter

	// save is the element's retained PUP image plus the replay log of
	// committed deliveries since it was packed (infrequent state saving,
	// see speculation.go). Owned by the element's own shard: only the
	// shard's phases (touchElem) and commits (onCommitted, RollbackSpec,
	// invalidateSave, dropSave) ever touch it, and the engine orders those.
	// A pointer, so an element that is never speculated costs one word.
	save *elemSave
}

// dirty marks el's image stale: obj is about to be handed out (a handler,
// Array.Get) or has been replaced.
func (el *element) dirty() { el.imgGen = 0 }

// image returns el's image in the arena and whether it is clean.
func (rt *Runtime) image(el *element) ([]byte, bool) {
	if el.imgGen != rt.imageGen {
		return nil, false
	}
	end := el.imgOff + el.imgLen
	return rt.images[el.imgOff:end:end], true
}

// traceIdx returns the id of the element's rendered index in names (see
// idxName).
func (el *element) traceIdx(names *Names) uint32 {
	if el.idxName == 0 {
		el.idxName = names.add(el.key.idx.String())
	}
	return el.idxName
}

type peState struct {
	id   int
	q    msgQueue
	seq  uint64 // enqueue sequence for FIFO tie-breaks
	busy des.Time
	// ctxSpare recycles the PE's delivery context between executions:
	// runOne takes it, the delivery commit releases it. Shard-local like
	// p.q, so the parallel backend needs no synchronization.
	ctxSpare *Ctx
	// msgs is the free list this PE's phases take their sends' messages
	// from, and its delivery commits recycle into: its shard's list on the
	// parallel backends, the driver list on the sequential one. Single
	// writer under the same ordering as ctxSpare (see msgList).
	msgs *msgList
	// fx is the PE's effect buffer: a buffered delivery's context points
	// at it (Ctx.fx) from its phase to the end of its commit. Shard-local
	// and reused exactly like ctxSpare.
	fx fxList

	// Pending delivery, valid between runOne's phase and its commit. The
	// engine runs commit(i) before phase(i+1) on the same shard, so at
	// most one delivery per PE is ever in flight — runOne stashes it here
	// and returns the preallocated commitDeliver/commitPE closure instead
	// of allocating a fresh one per event.
	pendM         *message
	pendEl        *element
	pendCtx       *Ctx
	pendAt        des.Time
	commitDeliver func()
	commitPE      func()
	// pumpAt is the time of the scheduled dequeue event, or -1 when none.
	pumpAt des.Time

	// sorted holds the elements living on this PE in (array, index) order:
	// searched for keyed lookups (find), walked for ordered ones. The one
	// part of the element directory a phase may read (see directory).
	sorted []*element

	// loc holds the PE's remote-location hints (see locTable).
	loc locTable

	// resLog collects the location-resolution answer of every array send
	// made by the in-flight phase (see Ctx.resolveFor). A logged delivery
	// copies it into the element's save so coast-forward replay re-routes
	// each send exactly as the original did, even after the live location
	// caches have drifted. Reused between deliveries; shard-local.
	resLog []int32

	// dead marks a crashed PE (internal/chaos): it executes nothing and
	// every message addressed to it is discarded until RecoverReset.
	dead bool
	// evac marks a PE predicted to fail (internal/chaos warn faults):
	// load balancing stops placing objects on it until the prediction
	// resolves. Unlike dead, an evacuating PE keeps executing.
	evac bool
}

// Runtime is the adaptive RTS: it owns the machine, the event engine, the
// chare arrays, and the location manager.
type Runtime struct {
	eng  des.Engine
	mach *machine.Machine

	// sendLoadFS and recvLoadFS are the load meter's per-message charges in
	// integer femtoseconds: the uniform node-local floor cost, the part every
	// message pays regardless of where the peer actually lives, so measured
	// load is a pure function of the element's own behavior (its compute and
	// its message counts) and never of its current placement. Placement-
	// dependent load would make every greedy decision a function of the
	// previous one, and placement could then never re-converge to the
	// failure-free mapping after a disturbance (evacuation, shrink/expand) —
	// which is what makes post-recovery digests byte-identical. treeHop is
	// one level of the combining tree (see barrierLatency). All three are
	// read once from the machine's configuration in New.
	sendLoadFS, recvLoadFS int64
	treeHop                float64

	// par is the parsim engine on the parallel backends (both modes), nil
	// on the sequential one: element-handler contexts whose phase may run
	// off its pop buffer their global effects (see Ctx.fx) so handler
	// bodies can run concurrently, and PE→shard mapping follows the node
	// layout.
	par     *parsim.Engine
	peShard []int // PE id -> shard (node) id
	// spec is the optimistic backend's speculation controller (nil
	// elsewhere): per-shard undo logs that phases record into so a
	// straggler can roll their shard-local mutations back.
	spec *specController

	pes            []*peState
	arrays         []*Array
	arrayNames     map[string]*Array
	peHandlers     []PEHandler
	peHandlerEntry []uint32 // each handler's trace name id

	// Location authority (§II-D): dir answers where element k is (see
	// directory); pending buffers messages for not-yet-created elements at
	// their home, keyed by eid. Commit/global state: phases read neither.
	dir     directory
	pending map[int32][]*message
	// tableEpoch counts CompactElementTable calls; location-cache
	// snapshots record it so a snapshot can never resurrect eids from a
	// pre-compaction numbering.
	tableEpoch uint64

	// Preallocated event bodies (message arrival, PE pump, location hint,
	// ExecuteOnPE's enqueue): method values created once, so no sharded
	// event allocates a closure.
	arriveFn des.CommitFn
	pumpFn   des.PhaseFn
	hintFn   des.PhaseFn
	execFn   des.CommitFn
	// atSyncFn is AtSync's barrier arrival, buffered as a plain effect.
	atSyncFn func()

	// The image arena (see element.imgOff): every migratable element's
	// PUP bytes, packed once per LBView and shared by that round's view,
	// migrations and checkpoint cut. imageGen counts the refills and is never
	// 0, the generation of a dirty element.
	images   []byte
	imageGen uint32
	// viewObjs and viewEdges are the last LB round's view, reused by the
	// next (see balance).
	viewObjs  []LBObject
	viewEdges []CommEdge

	// The runtime's message free lists (see msgList): msgs is the driver's,
	// shardMsgs one per shard on the parallel backends.
	msgs      msgList
	shardMsgs []msgList

	// In-flight application messages, for quiescence detection.
	inflight int
	qdWatch  []*dueCB
	// dueSpare recycles completion records (see dueCB).
	dueSpare []*dueCB

	// Collective state (open reductions live per array — see Array.redOpen).
	bcastPEH PEH
	funcPEH  PEH
	mcastPEH PEH

	// Load balancing (AtSync protocol).
	balancer     Strategy
	lbTotal      int // elements in AtSync arrays
	lbArrived    int
	lbInProgress bool
	lbCount      int // completed LB rounds

	// Malleability: PEs >= activePEs are evacuated and receive no work.
	activePEs int

	exited bool
	booted bool
	Stats  RuntimeStats

	// Observability (internal/projections): a nil trace is the untraced
	// fast path; names is the trace's name table, minted into whether or
	// not a recorder is installed; metrics is always present.
	trace   TraceSink
	names   Names
	metrics *metrics.Registry

	// Fault injection and rollback recovery (internal/chaos). epoch counts
	// rollbacks: messages are stamped in transmit and discarded on arrival
	// when stale. filter intercepts every transmit (drops, delay spikes).
	// lbResumeHook fires at each LB resume point — the quiescent cut where
	// in-memory checkpoints are taken.
	epoch        uint64
	filter       FaultFilter
	lbResumeHook func(round int) des.Time
}

// RuntimeStats aggregates counters for introspection, tests, and the
// control system.
type RuntimeStats struct {
	MsgsSent      uint64
	BytesSent     uint64
	MsgsForwarded uint64 // location-manager forwards (cache misses)
	MsgsDelivered uint64
	Migrations    uint64
	LBInvocations uint64
	QDRounds      uint64   // quiescence detections completed
	EntryTime     des.Time // total virtual compute across PEs
	MsgsDropped   uint64   // lost to injected network faults
	MsgsDiscarded uint64   // dead-PE or stale-epoch discards
}

// New creates a runtime over a machine. The machine config's Backend field
// selects the event engine: sequential (the default calendar-queue engine)
// or the parallel engine of internal/parsim in its conservative
// ("parallel") or Time Warp ("optimistic") mode; all produce bit-identical
// runs.
func New(m *machine.Machine) *Runtime {
	cfg := m.Config()
	rt := &Runtime{
		mach:       m,
		sendLoadFS: int64(math.Round(cfg.SendOverheadLocal * 1e15)),
		recvLoadFS: int64(math.Round(cfg.RecvOverheadLocal * 1e15)),
		treeHop:    cfg.Alpha + cfg.SendOverhead + cfg.RecvOverhead,
		arrayNames: map[string]*Array{},
		dir:        directory{hash: map[elemKey]int32{}},
		pending:    map[int32][]*message{},
		activePEs:  m.NumPEs(),
		metrics:    metrics.NewRegistry(),
		imageGen:   1, // no element is clean before the first LBView
	}
	rt.arriveFn = rt.arriveCommit
	rt.pumpFn = rt.pumpPhase
	rt.hintFn = rt.hintPhase
	rt.execFn = rt.execCommit
	rt.atSyncFn = rt.arriveAtSync
	rt.bcastPEH = rt.DeclareNamedPEHandler("rts:bcast", rt.bcastHandler)
	rt.funcPEH = rt.DeclareNamedPEHandler("rts:func", rt.funcHandler)
	rt.mcastPEH = rt.DeclareNamedPEHandler("rts:mcast", rt.mcastHandler)
	rt.registerRuntimeMetrics()
	popts := parsim.Options{Shards: m.NumNodes(), Workers: cfg.ParallelWorkers}
	backend, err := machine.ParseBackend(cfg.Backend)
	if err != nil {
		// CLIs validate the name at the flag; reaching here is a caller bug.
		panic("charm: " + err.Error())
	}
	switch backend {
	case "sequential":
		rt.eng = des.NewEngine()
	case "parallel":
		popts.Lookahead = des.Time(cfg.Alpha)
	case "optimistic":
		// Time Warp needs an undo controller: the engine rolls back a
		// shard by asking it to restore the phase's shard-local mutations
		// (the withheld commit closure already holds every global effect).
		if err := cfg.ValidateSpeculation(); err != nil {
			panic("charm: " + err.Error()) // as for the backend name: CLIs validate at the flag
		}
		rt.spec = newSpecController(rt, m.NumNodes(), cfg.SnapInterval)
		popts.Controller = rt.spec
	}
	if rt.eng == nil {
		rt.par = parsim.New(popts)
		rt.par.RegisterMetrics(rt.metrics)
		rt.eng = rt.par
		if rt.spec != nil {
			rt.spec.registerMetrics(rt.metrics)
		}
	}
	// One backing slab for every peState: at paper-scale PE counts (8k–64k
	// virtual PEs) per-PE allocations and map headers dominate the boot
	// heap, so the states live in a single array and the per-PE maps stay
	// nil until first use.
	back := make([]peState, m.NumPEs())
	rt.pes = make([]*peState, m.NumPEs())
	rt.peShard = make([]int, m.NumPEs())
	if rt.par != nil {
		rt.shardMsgs = make([]msgList, m.NumNodes())
	}
	for i := range rt.pes {
		back[i].id = i
		back[i].pumpAt = -1
		rt.pes[i] = &back[i]
		rt.peShard[i] = i / cfg.PEsPerNode
		back[i].msgs = &rt.msgs
		if rt.par != nil {
			back[i].msgs = &rt.shardMsgs[rt.peShard[i]]
		}
	}
	return rt
}

// Engine exposes the event engine (for timers, the power controller, and
// tests).
func (rt *Runtime) Engine() des.Engine { return rt.eng }

// ShardOf maps a PE to its engine shard (its node): intra-node interactions
// may be instantaneous, so a node is the smallest unit the parallel backend
// can execute independently. The chaos failure detector uses it to schedule
// zero-cost control events on a PE's shard.
func (rt *Runtime) ShardOf(pe int) int { return rt.peShard[pe] }

// Machine returns the machine the runtime executes on.
func (rt *Runtime) Machine() *machine.Machine { return rt.mach }

// NumPEs returns the number of currently active PEs (§III-D malleability:
// shrink reduces this without restarting the job).
func (rt *Runtime) NumPEs() int { return rt.activePEs }

// MaxPEs returns the machine's physical PE count.
func (rt *Runtime) MaxPEs() int { return len(rt.pes) }

// Now returns the current virtual time.
func (rt *Runtime) Now() des.Time { return rt.eng.Now() }

// homePE maps an element to its home PE: the PE responsible for knowing its
// current location (§II-D Scalable Location Management).
func (rt *Runtime) homePE(k elemKey) int {
	arr := rt.arrays[k.array]
	if arr.opts.HomeMap != nil {
		return arr.opts.HomeMap(k.idx, rt.activePEs)
	}
	return int(k.idx.Hash() % uint64(rt.activePEs))
}

// DeclareNamedPEHandler registers a PE-level handler under a trace name.
func (rt *Runtime) DeclareNamedPEHandler(name string, h PEHandler) PEH {
	rt.peHandlers = append(rt.peHandlers, h)
	rt.peHandlerEntry = append(rt.peHandlerEntry, rt.names.Intern(name))
	return PEH(len(rt.peHandlers) - 1)
}

// Boot runs fn as the main chare on PE 0 at the current virtual time,
// before or during execution.
//
//charmvet:unreached entry point: the main chare (Charm++'s mainchare) a program starts its entry methods from
func (rt *Runtime) Boot(fn func(ctx *Ctx)) {
	rt.booted = true
	rt.eng.At(rt.eng.Now(), func() {
		ctx := rt.newCtx(0, nil)
		fn(ctx)
		rt.finishExec(ctx, nil)
	})
}

// Run executes the simulation until no events remain or Exit is called,
// returning the time the machine drained (the busy horizon of the slowest
// PE, which can extend past the last event's start time).
func (rt *Runtime) Run() des.Time {
	rt.eng.Run()
	end := rt.eng.Now()
	for _, p := range rt.pes {
		if p.busy > end {
			end = p.busy
		}
	}
	return end
}

// Exited reports whether Exit was called.
func (rt *Runtime) Exited() bool { return rt.exited }

// exit stops the engine after the current event.
func (rt *Runtime) exit() {
	rt.exited = true
	rt.eng.Stop()
}

// ---- send / deliver / execute ----

const (
	prioControl = int64(-1) << 40 // collective-tree and RTS control traffic
	prioDefault = int64(0)
)

// send routes m, whose send-side costs have already been charged, stamping
// it onto the wire at time t.
func (rt *Runtime) send(m *message, t des.Time) {
	rt.Stats.MsgsSent++
	rt.Stats.BytesSent += uint64(m.size)
	if m.destPE < 0 {
		rt.inflight++ // element-targeted app message: QD-counted
		dst, eid := rt.resolveEID(int(m.srcPE), m.dest)
		m.destEID = eid
		if rt.trace != nil {
			m.traceID = rt.trace.Emit(Event{Kind: KMsgSend, At: t, PE: m.srcPE, Ref: m.cause, A: int64(dst), B: int64(m.size)})
		}
		rt.transmit(m, int(m.srcPE), dst, t)
		return
	}
	if rt.trace != nil {
		m.traceID = rt.trace.Emit(Event{Kind: KMsgSend, At: t, PE: m.srcPE, Ref: m.cause, A: int64(m.destPE), B: int64(m.size)})
	}
	rt.transmit(m, int(m.srcPE), int(m.destPE), t)
}

// resolveEID consults the sender's location knowledge — local directory,
// then location cache, then the home-PE guess — returning the guessed PE
// and, when known, the element's dense id (-1 otherwise). It reads only the
// sender's shard-local state, so it is safe from phase context.
func (rt *Runtime) resolveEID(srcPE int, k elemKey) (int, int32) {
	p := rt.pes[srcPE]
	if el := p.find(&k); el != nil {
		return el.pe, el.eid // local delivery
	}
	// A hint naming a PE the job has since shrunk away from reads as a miss.
	if ent, ok := p.loc.get(rt.arrays[k.array], &k); ok && int(ent.pe) < rt.activePEs {
		return int(ent.pe), ent.eid
	}
	return rt.homePE(k), -1
}

// transmit moves m from PE src to PE dst over the network and enqueues it.
// Arrival is a commit-only sharded event on the destination's node (arrive
// touches the location manager and quiescence state); the body is the
// preallocated rt.arriveFn, so the steady-state send path schedules without
// allocating. The epoch is stamped here, where a message meets the wire, so
// no way onto it can skip the stamp. A caller that is not sending a fresh
// message holds one arrive just checked, or one out of a queue or buffer that
// a rollback drains, and for those the stamp rewrites the value it finds.
func (rt *Runtime) transmit(m *message, src, dst int, t des.Time) {
	m.epoch = rt.epoch
	var extra des.Time
	if rt.filter != nil {
		// Fault injection: transmits happen in commit order — identical
		// across backends — so a seeded filter reproduces exactly.
		drop, delay := rt.filter.OnTransmit(src, dst, int(m.size), t)
		if drop {
			rt.dropInjected(m, dst, t)
			return
		}
		extra = delay
	}
	arrival := rt.mach.Transmit(src, dst, int(m.size), t) + extra
	rt.eng.AtShardCommit(rt.ShardOf(dst), arrival, rt.arriveFn, m, int64(dst))
}

// arriveCommit is the preallocated commit body of every network arrival.
func (rt *Runtime) arriveCommit(a any, b int64, _ des.Time) {
	rt.arrive(a.(*message), int(b))
}

// arrive lands m on PE dst: element messages that miss are forwarded via
// the home PE (location-manager protocol); PE messages are enqueued as is.
// Commit context: arrive indexes the global location tables.
func (rt *Runtime) arrive(m *message, dst int) {
	if m.epoch != rt.epoch {
		// A pre-rollback message surfacing after recovery: its epoch — and
		// its quiescence accounting — died with the rollback, so it is
		// dropped without touching the inflight counter.
		rt.Stats.MsgsDiscarded++
		rt.msgs.put(m)
		return
	}
	if rt.pes[dst].dead {
		rt.discard(m)
		return
	}
	if m.destPE >= 0 {
		rt.enqueue(m, dst)
		return
	}
	// Resolve the dense id at most once per message lifetime: messages
	// stamped by a sender's cache or an earlier hop skip the key tables.
	eid := m.destEID
	if eid < 0 {
		eid = rt.dir.eidOf(rt.arrays[m.dest.array], &m.dest)
		m.destEID = eid
	}
	el := rt.dir.elems[eid]
	if el != nil && el.pe == dst {
		m.el = el // stamp for map-free execution on the fast path
		rt.enqueue(m, dst)
		return
	}
	// The element is not here.
	home := rt.homePE(m.dest)
	if dst != home {
		// Forward to home, which always knows the current location.
		m.hops++
		rt.Stats.MsgsForwarded++
		rt.transmit(m, dst, home, rt.eng.Now())
		return
	}
	if el != nil {
		// Home forwards to the owner and updates the sender's cache so
		// future sends go direct.
		m.hops++
		rt.Stats.MsgsForwarded++
		rt.updateLocCache(int(m.srcPE), m.dest, el.pe, dst, eid)
		rt.transmit(m, dst, el.pe, rt.eng.Now())
		return
	}
	// Element does not exist yet: buffer at home until insertion.
	//charmvet:retain (home-PE buffering: the runtime owns the message until the element exists and delivery commits)
	rt.pending[eid] = append(rt.pending[eid], m)
}

// locHint is one location hint in flight from a home PE to a sender: the
// entry to cache for key, and the epochs it was minted under.
type locHint struct {
	key               elemKey
	ent               locEnt
	epoch, tableEpoch uint64
}

// updateLocCache ships the owner hint from the home PE back to the sender
// as a zero-cost control event that lands after the home→sender network
// latency. An instantaneous cross-PE cache write would let information
// travel faster than the network's minimum latency — unphysical, and fatal
// to the parallel backend's lookahead reasoning — so the hint arrives like
// any other message and the cache stays strictly shard-local state. The
// body is the preallocated rt.hintFn, the sender in the integer argument.
func (rt *Runtime) updateLocCache(srcPE int, key elemKey, ownerPE, homePE int, eid int32) {
	at := rt.eng.Now() + rt.mach.NetDelay(homePE, srcPE, 24)
	h := &locHint{key: key, ent: locEnt{pe: int32(ownerPE), eid: eid}, epoch: rt.epoch, tableEpoch: rt.tableEpoch}
	rt.eng.AtShardFn(rt.ShardOf(srcPE), at, rt.hintFn, h, int64(srcPE))
}

// hintPhase is the phase body of every location-hint arrival (a *locHint
// for PE b). Epoch reads from a phase are race-free: rollbacks bump the
// epoch — and compaction the table epoch — only inside global events, which
// never overlap a phase. A hint minted under an older table numbering must
// die rather than poison the cache with a remapped eid.
func (rt *Runtime) hintPhase(a any, b int64, _ des.Time) func() {
	h, pe := a.(*locHint), int(b)
	if rt.epoch == h.epoch && rt.tableEpoch == h.tableEpoch {
		// The event runs on pe's shard: the write is shard-local, and a
		// speculated one is undone from what it replaced.
		p := rt.pes[pe]
		prev, had := p.loc.put(rt.arrays[h.key.array], h.key, h.ent)
		if sp := rt.specFor(pe); sp != nil {
			sp.cacheP, sp.cacheKey, sp.cacheEnt, sp.cacheHad = p, h.key, prev, had
		}
	}
	return nil
}

// enqueue places m in dst's scheduler queue and pumps the PE.
func (rt *Runtime) enqueue(m *message, dst int) {
	if rt.pes[dst].dead {
		rt.discard(m)
		return
	}
	if rt.trace != nil && m.traceID != 0 {
		rt.trace.Emit(Event{Kind: KMsgRecv, At: rt.eng.Now(), PE: int32(dst), Ref: m.traceID, A: int64(m.hops)})
	}
	p := rt.pes[dst]
	m.seq = p.seq
	p.seq++
	p.q.push(m)
	rt.pump(p)
}

// pump schedules the PE's next dequeue if it is not already scheduled. The
// event body is the preallocated rt.pumpFn; the epoch at arming time rides
// in the event's integer argument, so the hot path allocates nothing.
func (rt *Runtime) pump(p *peState) {
	if p.pumpAt >= 0 || p.q.len() == 0 || p.dead {
		return
	}
	t := rt.eng.Now()
	if p.busy > t {
		t = p.busy
	}
	p.pumpAt = t
	rt.eng.AtShardFn(rt.ShardOf(p.id), t, rt.pumpFn, p, int64(rt.epoch))
}

// pumpPhase is the phase body of every PE dequeue event. b carries the
// epoch at arming time: a pump scheduled before a rollback must not touch
// pumpAt or the queue — the recovery reset already re-pumped the PE. (Epoch
// reads from a phase are race-free: rollbacks bump the epoch only inside
// global events, which never overlap a phase.)
func (rt *Runtime) pumpPhase(a any, b int64, at des.Time) func() {
	p := a.(*peState)
	if rt.epoch != uint64(b) {
		return nil
	}
	return rt.runOne(p, at)
}

// runOne executes the highest-priority queued message on p. It is the
// phase half of a sharded event: element entry methods — the app's real
// compute — run here, touching only this PE's state, and the returned
// commit closure applies the global effects (statistics, quiescence,
// rescheduling) in deterministic order. On the sequential backend the
// engine runs phase and commit back to back, reproducing the historical
// single-pass behaviour exactly.
func (rt *Runtime) runOne(p *peState, at des.Time) func() {
	// Under the optimistic backend this phase may be speculative: record
	// every shard-local mutation in the shard's undo log so a straggler
	// can roll it back (see speculation.go).
	sp := rt.specFor(p.id)
	if sp != nil {
		sp.noteDequeue(p)
	}
	p.pumpAt = -1
	if p.q.len() == 0 {
		return nil
	}
	m := p.q.pop()
	if sp != nil {
		//charmvet:retain (rollback re-pushes the popped message before anything recycles it; on commit the slot is cleared without a recycle)
		sp.popped = m
	}

	if m.destPE >= 0 {
		// PE-level handlers (collective fan-out, TRAM batch unpacking,
		// shipped functions) reach global state freely, so the whole
		// execution belongs in the commit. The closure is built once per
		// PE and reads the pending delivery from p.
		//charmvet:retain (single-slot handoff to commitPE; commit(i) runs before phase(i+1), so the slot empties before recycling)
		p.pendM, p.pendAt = m, at
		if p.commitPE == nil {
			p.commitPE = func() {
				m, at := p.pendM, p.pendAt
				p.pendM = nil
				ctx := p.takeCtx(rt, nil, rt.eng.Now())
				ctx.cause = m.traceID
				ctx.elapsed = rt.mach.RecvOverheadFrom(p.id, int(m.srcPE))
				if rt.trace != nil {
					rt.trace.Emit(Event{Kind: KEntryBegin, At: at, PE: int32(p.id), Ref: m.traceID, Entry: rt.peHandlerEntry[m.ep]})
				}
				rt.peHandlers[m.ep](ctx, m.payload)
				if rt.trace != nil {
					rt.trace.Emit(Event{Kind: KEntryEnd, At: at + ctx.elapsed, PE: int32(p.id), Ref: m.traceID, Entry: rt.peHandlerEntry[m.ep]})
				}
				rt.finishExec(ctx, nil)
				p.msgs.put(m)
				rt.settle(p.msgs)
				rt.checkQD()
				rt.pump(p)
				p.releaseCtx(ctx)
			}
		}
		return p.commitPE
	}

	// Fast path: the arrival commit stamped the destination element. The
	// stamp goes stale if the element migrated or died between enqueue and
	// execution, so fall back to the shard-local directory before rerouting
	// (a destroy+reinsert of the same key lands there under a new record).
	el := m.el
	if el == nil || el.dead || el.pe != p.id {
		if el = p.find(&m.dest); el == nil {
			// The element migrated away between enqueue and execution:
			// re-route through the location manager. The message stays
			// in flight, so quiescence counters are untouched.
			return func() {
				m.hops++
				rt.Stats.MsgsForwarded++
				m.el = nil
				rt.transmit(m, p.id, rt.homePE(m.dest), rt.eng.Now())
				rt.pump(p)
			}
		}
	}
	if sp != nil {
		sp.touchElem(el)
	}
	if rt.spec != nil {
		p.resLog = p.resLog[:0]
	}
	ctx := p.takeCtx(rt, el, at)
	ctx.phase = true
	if rt.par != nil && !rt.par.AtPop(rt.peShard[p.id]) {
		// The phase may run off its pop — on a helper, or settled ahead of
		// it — so its global effects wait for the commit. One the driver
		// runs at its own pop is in commit position and applies them
		// directly, as on the sequential engine.
		ctx.fx = &p.fx
	}
	ctx.cause = m.traceID
	// The clock takes the locality-aware receive cost (a node-local sender
	// skips the network stack), but the load meter takes the uniform
	// node-local floor: measured load must be a pure function of the
	// element's own behavior, never of where its peers currently live, or
	// greedy placement cannot re-converge to the failure-free mapping after
	// a disturbance (see Runtime.recvLoadFS).
	ctx.elapsed = rt.mach.RecvOverheadFrom(p.id, int(m.srcPE))
	ctx.loadFS += rt.recvLoadFS
	arr := rt.arrays[m.dest.array]
	handler := arr.handlers[m.ep]
	el.dirty()
	func() {
		defer func() {
			if r := recover(); r != nil {
				panic(fmt.Sprintf("charm: entry method %d of %s%v on PE %d at t=%.6fs: %v",
					m.ep, arr.name, m.dest.idx, p.id, float64(at), r))
			}
		}()
		handler(el.obj, ctx, m.payload)
	}()
	// The commit closure is built once per PE; the pending delivery rides
	// in p (commit(i) runs before phase(i+1) on this shard, so at most one
	// is in flight), keeping the steady-state execute path allocation-free.
	//charmvet:retain (single-slot handoff to commitDeliver; commit(i) runs before phase(i+1), so the slot empties before recycling)
	p.pendM, p.pendEl, p.pendCtx, p.pendAt = m, el, ctx, at
	if p.commitDeliver == nil {
		p.commitDeliver = func() {
			m, el, ctx, at := p.pendM, p.pendEl, p.pendCtx, p.pendAt
			p.pendM, p.pendEl, p.pendCtx = nil, nil, nil
			ctx.flushFX()
			rt.inflight--
			rt.Stats.MsgsDelivered++
			if rt.trace != nil {
				// After flushFX, so the execution's sends (inline on the
				// sequential backend, replayed here on the parallel one) hold
				// the same log positions on both backends.
				arr := rt.arrays[m.dest.array]
				ev := Event{Kind: KEntryBegin, At: at, PE: int32(p.id), Ref: m.traceID,
					Arr: arr.traceName, Entry: arr.entryNames[m.ep], Idx: el.traceIdx(&rt.names)}
				rt.trace.Emit(ev)
				ev.Kind, ev.At = KEntryEnd, at+ctx.elapsed
				rt.trace.Emit(ev)
			}
			rt.finishExec(ctx, el)
			if rt.spec == nil || !rt.spec.onCommitted(el, ctx, m, at) {
				p.msgs.put(m)
			}
			rt.settle(p.msgs)
			rt.checkQD()
			rt.pump(p)
			p.releaseCtx(ctx)
		}
	}
	return p.commitDeliver
}

// finishExec charges the context's accumulated cost to the PE and element.
func (rt *Runtime) finishExec(ctx *Ctx, el *element) {
	p := rt.pes[ctx.pe]
	start := rt.eng.Now()
	end := start + ctx.elapsed
	if end > p.busy {
		p.busy = end
	}
	rt.mach.PE(ctx.pe).BusyTime += ctx.elapsed
	rt.Stats.EntryTime += ctx.elapsed
	if el != nil {
		// Already speed-normalized per charge, so LB strategies see
		// intrinsic object load even on slowed (DVFS/interference) PEs.
		el.load += ctx.loadFS
		el.totalLoad += ctx.loadFS
	}
	if ctx.exitReq {
		rt.exit()
	}
}

// MaxBusy returns the latest busy horizon across active PEs — the earliest
// time a global barrier could complete.
func (rt *Runtime) MaxBusy() des.Time {
	var m des.Time
	for _, p := range rt.pes[:rt.activePEs] {
		if p.busy > m {
			m = p.busy
		}
	}
	if now := rt.eng.Now(); now > m {
		m = now
	}
	return m
}

// IncInflight registers library-managed application work (e.g. TRAM data
// items riding inside aggregated messages) with the quiescence detector.
func (rt *Runtime) IncInflight(n int) { rt.inflight += n }

// DecInflight retires library-managed work and re-checks quiescence.
func (rt *Runtime) DecInflight(n int) {
	rt.inflight -= n
	rt.checkQD()
}

// ExecuteOnPE schedules fn to run on PE pe after delay, as a normal
// scheduler message (it queues behind the PE's current work). Transport
// libraries use it for flush timers. The message is built here and enqueued
// by a commit-only event whose body is the preallocated rt.execFn, with the
// epoch at arming time in the integer argument. A negative delay schedules
// into the past, which the engine refuses with a panic.
func (rt *Runtime) ExecuteOnPE(pe int, delay des.Time, fn func(ctx *Ctx)) {
	m := rt.msgs.get()
	m.destPE = int32(pe)
	m.ep = int32(rt.funcPEH)
	m.payload = funcMsg{fn: func(ctx *Ctx, _ any) { fn(ctx) }}
	m.prio = prioControl
	m.size = 16
	m.srcPE = int32(pe)
	rt.eng.AtShardCommit(rt.ShardOf(pe), rt.eng.Now()+delay, rt.execFn, m, int64(rt.epoch))
}

// execCommit is the commit body of every ExecuteOnPE event: it enqueues the
// message a (a *message) unless a rollback since arming (epoch b) voided it.
func (rt *Runtime) execCommit(a any, b int64, _ des.Time) {
	m := a.(*message)
	if rt.epoch != uint64(b) {
		rt.msgs.put(m) // a flush timer armed before a rollback
		return
	}
	rt.enqueue(m, int(m.destPE))
}

// ProbablePE returns fromPE's best guess of where element idx of arr lives
// (location cache, falling back to the home PE) — what a sender knows
// without querying.
func (rt *Runtime) ProbablePE(arr *Array, idx Index, fromPE int) int {
	pe, _ := rt.resolveEID(fromPE, elemKey{array: arr.id, idx: idx})
	return pe
}

// barrierLatency models an optimized tree barrier/reduction over the active
// PEs.
func (rt *Runtime) barrierLatency() des.Time {
	return des.Time(float64(log2ceil(rt.activePEs)) * rt.treeHop)
}
