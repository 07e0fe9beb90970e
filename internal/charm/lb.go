package charm

import (
	"cmp"
	"slices"

	"charmgo/internal/des"
	"charmgo/internal/pup"
)

// LBObject is one migratable object as seen by a load-balancing strategy:
// its instrumented load, its size (migration cost), and optional spatial
// coordinates for geometric strategies.
type LBObject struct {
	Array  *Array
	Idx    Index
	PE     int
	Load   float64 // speed-normalized seconds since the previous LB
	Bytes  int
	Pos    [3]float64
	HasPos bool
	Msgs   uint64
	SentB  uint64
	// Comm lists per-destination communication volumes (populated for
	// TrackComm arrays), sorted heaviest-first.
	Comm []CommEdge
}

// CommEdge is one edge of the instrumented communication graph.
type CommEdge struct {
	ToArray *Array
	ToIdx   Index
	Bytes   uint64
}

// LBPE is one PE as seen by a strategy.
type LBPE struct {
	ID int
	// Speed is the PE's measured relative performance (DVFS level and
	// external interference folded in), 1.0 being a dedicated PE at base
	// frequency. Strategies divide load by Speed when placing objects.
	Speed float64
}

// Migration is one strategy decision.
type Migration struct {
	Array *Array
	Idx   Index
	ToPE  int
}

// Strategy computes a new object mapping; implementations live in
// internal/lb. The runtime reuses objs' storage in its next round, so a
// strategy must not keep it past Balance.
type Strategy interface {
	Name() string
	Balance(objs []LBObject, pes []LBPE) []Migration
}

// StrategyCostModeler optionally refines the modeled decision time of a
// strategy; the default is a centralized O(n log n) model.
type StrategyCostModeler interface {
	DecisionCost(nObjs, nPEs int) float64
}

// LBReport summarizes one completed load-balancing round for introspection
// (MetaLB, tests, the control system).
type LBReport struct {
	Round       int
	Time        des.Time // when the LB completed
	Duration    des.Time // barrier + decision + migration span
	NumObjs     int
	NumMoved    int
	MaxLoad     float64 // before, speed-adjusted
	AvgLoad     float64 // before
	MaxLoadPost float64 // strategy's predicted post-balance max
}

// SetBalancer installs the LB strategy invoked at AtSync barriers. A nil
// strategy makes AtSync a pure barrier (NoLB baselines).
func (rt *Runtime) SetBalancer(s Strategy) { rt.balancer = s }

// Balancer returns the installed strategy.
func (rt *Runtime) Balancer() Strategy { return rt.balancer }

// LBRounds returns the number of completed LB rounds.
func (rt *Runtime) LBRounds() int { return rt.lbCount }

// StallActivePEs advances every active PE's busy horizon to at least t,
// modeling a global protocol (reconfiguration, restart) during which no
// application work proceeds.
func (rt *Runtime) StallActivePEs(t des.Time) {
	for p := 0; p < rt.activePEs; p++ {
		if rt.pes[p].busy < t {
			rt.pes[p].busy = t
		}
	}
}

// balance is the part of a load-balancing round its two entry points share:
// the instrumented view at instant start, the strategy's decision and its
// modeled cost, and the migrations. It returns the round's report with
// Duration left for the caller — the entry points differ in whether the
// closing barrier counts — plus the decision time and the span of the
// transfer phase (the max cost of any single move: they proceed in parallel
// across PEs).
func (rt *Runtime) balance(start des.Time) (rep LBReport, decision, maxXfer des.Time) {
	rt.viewObjs, rt.viewEdges = rt.view(rt.viewObjs[:0], rt.viewEdges[:0])
	objs, pes := rt.viewObjs, rt.viewPEs()
	if rt.trace != nil {
		rt.trace.Emit(Event{Kind: KLBStart, At: start, PE: -1, A: int64(rt.lbCount), B: int64(len(objs))})
	}
	var migs []Migration
	if rt.balancer != nil {
		migs = rt.balancer.Balance(objs, pes)
		if cm, ok := rt.balancer.(StrategyCostModeler); ok {
			decision = des.Time(cm.DecisionCost(len(objs), len(pes)))
		} else {
			n := float64(len(objs))
			decision = des.Time(2e-4 + 2e-7*n*float64(log2ceil(len(objs)+1)))
		}
	}
	if rt.trace != nil {
		rt.trace.Emit(Event{Kind: KLBDecision, At: start + decision, PE: -1, Entry: rt.names.Intern(rt.strategyName()), A: int64(len(migs))})
	}
	// An LB round may still place onto a crashed PE nobody has detected yet.
	moved, _, maxXfer := rt.applyMigrations(migs, toActivePE)
	return rt.summarize(objs, pes, start, moved), decision, maxXfer
}

// endRound records a completed round: the trace record and the counters.
func (rt *Runtime) endRound(at, dur des.Time, moved int) {
	if rt.trace != nil {
		rt.trace.Emit(Event{Kind: KLBDone, At: at, PE: -1, A: int64(rt.lbCount), B: int64(moved), Dur: dur})
	}
	rt.lbCount++
	rt.Stats.LBInvocations++
	rt.metrics.Counter("lb.rounds").Inc()
	rt.metrics.Counter("lb.migrations").Add(uint64(moved))
}

// Rebalance runs the installed strategy immediately from driver context,
// outside the AtSync protocol — the RTS-triggered balancing used by
// shrink/expand and the cloud experiments. The round starts when the slowest
// PE drains and its modeled duration, closing barrier included, is applied
// inline as a global stall.
func (rt *Runtime) Rebalance() LBReport {
	start := rt.MaxBusy()
	rep, decision, maxXfer := rt.balance(start)
	rep.Duration = decision + maxXfer + rt.barrierLatency()
	end := start + rep.Duration
	rt.StallActivePEs(end)
	rt.endRound(end, rep.Duration, rep.NumMoved)
	rt.ResetLoadStats()
	return rep
}

// resetMeters opens a new LB database window for el (§III-A): the measured
// load and the send counters read "since the last round" on every path. A
// commit-context reset, so a retained speculation image — which holds the
// pre-reset meters, and replay cannot reconstruct them — is invalidated.
func (rt *Runtime) resetMeters(el *element) {
	el.load = 0
	el.msgsSent = 0
	el.bytesSent = 0
	el.comm = nil
	rt.invalidateSave(el)
}

// ResetLoadStats zeroes the per-object instrumentation window.
func (rt *Runtime) ResetLoadStats() {
	for _, p := range rt.pes {
		for _, el := range p.sorted {
			rt.resetMeters(el)
		}
	}
}

// strategyName names the installed balancer for traces ("none" when nil).
func (rt *Runtime) strategyName() string {
	if rt.balancer == nil {
		return "none"
	}
	return rt.balancer.Name()
}

// maybeStartLB fires the LB step once every AtSync element has arrived.
func (rt *Runtime) maybeStartLB() {
	if rt.lbInProgress || rt.lbTotal == 0 || rt.lbArrived < rt.lbTotal {
		return
	}
	rt.lbInProgress = true
	// The barrier completes when the slowest PE drains, plus a tree
	// reduction to detect it.
	t := rt.MaxBusy() + rt.barrierLatency()
	rt.atEpoch(t, rt.runLB)
}

// LBView builds the strategy's view of the current objects and PEs. It
// refills the image arena: each migratable object is packed once, and that
// image prices it here (Bytes), moves it in this round's migrations and
// stands in the checkpoint cut that follows, for as long as it stays clean.
func (rt *Runtime) LBView() ([]LBObject, []LBPE) {
	objs, _ := rt.view(nil, nil)
	return objs, rt.viewPEs()
}

// view is LBView's object half, appending to objs and edges (the backing of
// every object's Comm); an LB round passes the previous round's, which its
// strategy is done with.
func (rt *Runtime) view(objs []LBObject, edges []CommEdge) ([]LBObject, []CommEdge) {
	// Count first, so objs and edges grow at most once, exactly.
	nObjs, nEdges := 0, 0
	for p := 0; p < rt.activePEs; p++ {
		for _, el := range rt.pes[p].sorted {
			if rt.inView(el) {
				nObjs++
				nEdges += len(el.comm)
			}
		}
	}
	objs = slices.Grow(objs, nObjs)
	edges = slices.Grow(edges, nEdges)
	if rt.imageGen++; rt.imageGen == 0 {
		rt.imageGen = 1
	}
	rt.images = rt.images[:0]
	for p := 0; p < rt.activePEs; p++ {
		for _, el := range rt.pes[p].sorted {
			if !rt.inView(el) {
				continue
			}
			off := len(rt.images)
			rt.images = pup.Append(rt.images, el.obj)
			el.imgOff, el.imgLen, el.imgGen = uint32(off), uint32(len(rt.images)-off), rt.imageGen
			o := LBObject{
				Array:  rt.arrays[el.key.array],
				Idx:    el.key.idx,
				PE:     p,
				Load:   float64(el.load) * 1e-15,
				Bytes:  int(el.imgLen) + migrationEnvelope,
				Pos:    el.pos,
				HasPos: el.hasPos,
				Msgs:   el.msgsSent,
				SentB:  el.bytesSent,
			}
			if len(el.comm) > 0 {
				first := len(edges)
				for dst, bytes := range el.comm { //charmvet:ordered (collected into edges, then sorted below)
					edges = append(edges, CommEdge{
						ToArray: rt.arrays[dst.array],
						ToIdx:   dst.idx,
						Bytes:   bytes,
					})
				}
				o.Comm = edges[first:len(edges):len(edges)]
				slices.SortFunc(o.Comm, func(a, b CommEdge) int {
					if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
						return c
					}
					if c := cmpIndex(a.ToIdx, b.ToIdx); c != 0 {
						return c
					}
					return cmp.Compare(a.ToArray.id, b.ToArray.id)
				})
			}
			objs = append(objs, o)
		}
	}
	return objs, edges
}

// viewPEs is LBView's PE half.
func (rt *Runtime) viewPEs() []LBPE {
	// Evacuating PEs (predicted failures, internal/chaos) are excluded
	// from the strategy's placement targets: objects still ON one are
	// listed (so a stateless strategy re-places them), but nothing new
	// lands there. Strategies already tolerate non-contiguous PE ids.
	pes := make([]LBPE, 0, rt.activePEs)
	for p := 0; p < rt.activePEs; p++ {
		if rt.pes[p].evac {
			continue
		}
		pes = append(pes, LBPE{ID: p, Speed: rt.mach.Speed(p)})
	}
	return pes
}

// runLB executes one AtSync load-balancing round at the barrier's instant:
// balance now, and schedule the resume for when the decision, the transfers
// and a closing barrier have passed.
func (rt *Runtime) runLB() {
	start := rt.eng.Now()
	rep, decision, maxXfer := rt.balance(start)
	rep.Duration = decision + maxXfer
	resumeAt := start + decision + maxXfer + rt.barrierLatency()
	rt.atEpoch(resumeAt, func() {
		rt.lbInProgress = false
		rt.endRound(resumeAt, resumeAt-start, rep.NumMoved)
		// The listener is part of the round, so it must fire before the
		// resume hook: the in-memory checkpoint scheme snapshots at the
		// hook (see SetLBResumeHook), and observer state mutated after its
		// own cut would be rolled back without ever being replayed —
		// losing one observation per recovery.
		// The post-migration, pre-resume instant is a quiescent cut: the
		// in-memory checkpoint scheme snapshots here (see SetLBResumeHook).
		if rt.lbResumeHook != nil {
			if stall := rt.lbResumeHook(rt.lbCount); stall > 0 {
				rt.StallActivePEs(resumeAt + stall)
			}
		}
		rt.resumeFromSync(false)
	})
}

// inView reports whether el is one of the objects a strategy places.
func (rt *Runtime) inView(el *element) bool {
	opts := &rt.arrays[el.key.array].opts
	return opts.UsesAtSync || opts.Migratable
}

// resumeFromSync delivers ResumeFromSync (the array's ResumeEP) to the AtSync
// elements waiting at the barrier, opening each one's next instrumentation
// window — or, with all set, to every AtSync element: the replay of this
// same cut after a checkpoint restore, where RecoverReset already cleared
// the barrier.
func (rt *Runtime) resumeFromSync(all bool) {
	for p := 0; p < rt.activePEs; p++ {
		for _, el := range rt.pes[p].sorted {
			arr := rt.arrays[el.key.array]
			if !arr.opts.UsesAtSync || !(all || el.atSync) {
				continue
			}
			if el.atSync {
				el.atSync = false
				rt.lbArrived--
			}
			rt.resetMeters(el)
			rt.inflight++
			rt.enqueue(localMsg(rt.msgs.get(), el, arr.opts.ResumeEP, nil, prioDefault, 16), p)
		}
	}
}

// summarize builds the round's report (Duration is the caller's to fill in).
func (rt *Runtime) summarize(objs []LBObject, pes []LBPE, start des.Time, moved int) LBReport {
	// pes may be a strict subset of the active PEs (evacuating PEs are
	// excluded as targets) while objs may still sit on an excluded PE, so
	// the per-PE tables are sized by id, not by len(pes). An excluded
	// PE's speed reads as its base 1.0 for the pre-balance stats.
	maxID := rt.activePEs - 1
	for _, p := range pes {
		if p.ID > maxID {
			maxID = p.ID
		}
	}
	speed := make([]float64, maxID+1)
	for i := range speed {
		speed[i] = 1.0
	}
	for _, p := range pes {
		speed[p.ID] = p.Speed
	}
	eff := func(pe int, l float64) float64 {
		if pe <= maxID && speed[pe] > 0 {
			return l / speed[pe]
		}
		return l
	}
	loadPer := make([]float64, maxID+1)
	for _, o := range objs {
		loadPer[o.PE] += o.Load
	}
	maxL, avg := 0.0, 0.0
	for p, l := range loadPer {
		e := eff(p, l)
		if e > maxL {
			maxL = e
		}
		avg += e
	}
	if len(pes) > 0 {
		avg /= float64(len(pes))
	}
	// Post-balance prediction.
	post := make([]float64, maxID+1)
	for _, o := range objs {
		pe := o.PE
		if el := o.Array.lookup(o.Idx); el != nil {
			pe = el.pe
		}
		post[pe] += o.Load
	}
	maxPost := 0.0
	for p, l := range post {
		if e := eff(p, l); e > maxPost {
			maxPost = e
		}
	}
	return LBReport{
		Round:       rt.lbCount,
		Time:        start,
		NumObjs:     len(objs),
		NumMoved:    moved,
		MaxLoad:     maxL,
		AvgLoad:     avg,
		MaxLoadPost: maxPost,
	}
}
