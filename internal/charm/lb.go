package charm

import (
	"sort"

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
// internal/lb.
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

// OnLB registers a listener called after every LB round.
func (rt *Runtime) OnLB(fn func(LBReport)) { rt.lbListener = fn }

// LBRounds returns the number of completed LB rounds.
func (rt *Runtime) LBRounds() int { return rt.lbCount }

// PauseLB suspends AtSync processing (used during shrink/expand
// reconfiguration).
func (rt *Runtime) PauseLB(paused bool) {
	rt.lbPaused = paused
	if !paused {
		rt.maybeStartLB()
	}
}

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
	objs, pes := rt.LBView()
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
		rt.trace.Emit(Event{Kind: KLBDecision, At: start + decision, PE: -1, Entry: rt.strategyName(), A: int64(len(migs))})
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
	if rt.lbListener != nil {
		rt.lbListener(rep)
	}
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
	if rt.lbPaused || rt.lbInProgress || rt.lbTotal == 0 || rt.lbArrived < rt.lbTotal {
		return
	}
	rt.lbInProgress = true
	// The barrier completes when the slowest PE drains, plus a tree
	// reduction to detect it.
	t := rt.MaxBusy() + rt.barrierLatency()
	rt.atEpoch(t, rt.runLB)
}

// LBView builds the strategy's view of the current objects and PEs.
func (rt *Runtime) LBView() ([]LBObject, []LBPE) {
	var objs []LBObject
	for p := 0; p < rt.activePEs; p++ {
		for _, el := range rt.pes[p].sorted {
			arr := rt.arrays[el.key.array]
			if !arr.opts.UsesAtSync && !arr.opts.Migratable {
				continue
			}
			o := LBObject{
				Array:  arr,
				Idx:    el.key.idx,
				PE:     p,
				Load:   float64(el.load) * 1e-15,
				Bytes:  pup.Size(el.obj) + migrationEnvelope,
				Pos:    el.pos,
				HasPos: el.hasPos,
				Msgs:   el.msgsSent,
				SentB:  el.bytesSent,
			}
			if len(el.comm) > 0 {
				for dst, bytes := range el.comm {
					o.Comm = append(o.Comm, CommEdge{
						ToArray: rt.arrays[dst.array],
						ToIdx:   dst.idx,
						Bytes:   bytes,
					})
				}
				sort.Slice(o.Comm, func(i, j int) bool {
					if o.Comm[i].Bytes != o.Comm[j].Bytes {
						return o.Comm[i].Bytes > o.Comm[j].Bytes
					}
					return o.Comm[i].ToIdx.Less(o.Comm[j].ToIdx)
				})
			}
			objs = append(objs, o)
		}
	}
	// Evacuating PEs (predicted failures, internal/chaos) are excluded
	// from the strategy's placement targets: objects still ON one are
	// listed (so a stateless strategy re-places them), but nothing new
	// lands there. Strategies already tolerate non-contiguous PE ids.
	pes := make([]LBPE, 0, rt.activePEs)
	base := rt.mach.Config().BaseFreqGHz
	for p := 0; p < rt.activePEs; p++ {
		if rt.pes[p].evac {
			continue
		}
		pes = append(pes, LBPE{ID: p, Speed: rt.mach.PE(p).Speed(base)})
	}
	return objs, pes
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
		if rt.lbListener != nil {
			rt.lbListener(rep)
		}
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
			rt.enqueue(localMsg(el, arr.opts.ResumeEP, nil, prioDefault, 16), p)
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
