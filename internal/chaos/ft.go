package chaos

import (
	"errors"
	"fmt"
	"sort"

	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/des"
	"charmgo/internal/malleable"
)

// ErrRetryBudgetExhausted: failures kept landing on in-flight restores
// until the controller's restart budget ran out. The campaign is declared
// unrecoverable rather than looping forever on a machine that is dying
// faster than it can be healed.
var ErrRetryBudgetExhausted = errors.New("chaos: recovery restart budget exhausted")

// replacementBoot is the modeled cost of wiring a hot standby process into a
// fully evacuated PE's slot when a predicted failure lands.
const replacementBoot des.Time = 1e-4

// evacModel prices proactive evacuation: the malleable layer's shrink/expand
// cost model.
var evacModel = malleable.DefaultCostModel()

// Options configures the fault-tolerance controller.
type Options struct {
	// CheckpointEveryRounds takes a checkpoint at every Nth load-balancing
	// resume point (the natural quiescent cut of AtSync applications).
	// Zero disables automatic checkpointing; the driver then calls
	// CheckpointNow itself at its own quiescent cuts (as PDES does at
	// window boundaries).
	CheckpointEveryRounds int
	// HeartbeatPeriod and HeartbeatTimeout tune the failure detector;
	// zero means the defaults.
	HeartbeatPeriod  des.Time
	HeartbeatTimeout des.Time
	// Replication is the checkpoint replication degree R — how many
	// remote copies of each PE's shard the in-memory scheme keeps. Zero
	// means 1, the classic double (buddy) scheme. Raising R lets up to R
	// overlapping failures converge at R times the checkpoint memory and
	// stream cost.
	Replication int
	// Restart replays the checkpoint cut's kick after a rollback. Nil
	// falls back to re-enqueueing every AtSync element's resume entry —
	// correct for applications checkpointing at LB resume points.
	Restart func()
	// OnCheckpoint snapshots driver-side state (step counters, result
	// accumulators) paired with the chare checkpoint. It is NOT called
	// when a checkpoint is skipped, so the driver snapshot always matches
	// the chare snapshot that rollback will restore.
	OnCheckpoint func()
	// OnRollback restores the driver-side state saved by OnCheckpoint,
	// discarding results appended during the segment being rolled back.
	OnRollback func()
}

// RecoveryStat records one completed recovery, in virtual seconds. A
// single recovery heals every failure that landed before its restore
// finished: overlapping crashes restart the restore against the surviving
// replica set rather than starting a second recovery, so one record may
// cover several PEs.
type RecoveryStat struct {
	// PE is the first failed PE (kept from the single-failure schema);
	// PEs lists every PE this recovery healed, sorted.
	PE  int   `json:"pe"`
	PEs []int `json:"pes"`
	// Restarts counts restore attempts abandoned because another failure
	// landed mid-restore; zero for an uncontested recovery.
	Restarts int `json:"restarts,omitempty"`
	// Fallbacks counts replica holders skipped (dead or copy lost) when
	// choosing restore sources — nonzero only when R > 1 saved the run.
	Fallbacks   int     `json:"fallbacks,omitempty"`
	CrashAt     float64 `json:"crash_at"`
	DetectedAt  float64 `json:"detected_at"`
	RestoredAt  float64 `json:"restored_at"`
	ResumedAt   float64 `json:"resumed_at"`
	RestartCost float64 `json:"restart_cost"`
	// DigestOK asserts that the post-rollback state digest equals the
	// checkpoint's digest: the restore re-materialized the checkpointed
	// bytes, it did not merely advance a clock.
	DigestOK bool `json:"digest_ok"`
}

// DetectionLatency is how long the first failure went unnoticed.
func (r RecoveryStat) DetectionLatency() float64 { return r.DetectedAt - r.CrashAt }

// RecoveryTime spans first notice to the application running again.
func (r RecoveryStat) RecoveryTime() float64 { return r.ResumedAt - r.DetectedAt }

// EvacRecord records the outcome of one warn (predicted failure) fault.
type EvacRecord struct {
	PE          int     `json:"pe"`
	WarnedAt    float64 `json:"warned_at"`
	EvacuatedAt float64 `json:"evacuated_at,omitempty"`
	LandedAt    float64 `json:"landed_at"`
	// Moved and Bytes size the evacuation; EvacCost and BootCost are the
	// modeled stalls it charged.
	Moved    int     `json:"moved"`
	Bytes    int64   `json:"bytes"`
	EvacCost float64 `json:"evac_cost"`
	BootCost float64 `json:"boot_cost"`
	// Absorbed: the PE was fully evacuated when the crash landed, so a
	// standby took its slot with zero rollback. False means the
	// prediction outran the evacuation window and the crash was handled
	// by the ordinary detect-and-rollback path.
	Absorbed bool `json:"absorbed"`
}

// warnState tracks one delivered fault prediction until it resolves.
type warnState struct {
	f         Fault
	evacuated bool
	landed    bool
	rec       EvacRecord
	// moves remembers where each evacuated element went so the controller
	// can migrate them back to the replacement PE if no load-balancing
	// round re-places them first (applications without a balancer).
	moves   []charm.Migration
	lbRound int
}

// Controller owns the full fault-tolerance loop: it checkpoints at
// quiescent cuts, listens to the heartbeat detector, and on a detected
// failure performs a real rollback — PUP-restoring every chare from the
// degree-R in-memory checkpoint, fencing the corrupted segment's messages
// by epoch, and replaying from the cut. Because the cut is quiescent,
// the replay is a rigid time-shift of the failure-free execution and the
// application's final values are bit-identical to a run with no faults.
//
// Beyond the single-failure loop it handles:
//
//   - overlapping failures: the heartbeat keeps observing during recovery;
//     a crash landing mid-restore restarts the restore against the
//     surviving replica set (capped at maxRestarts), so cascades
//     of up to R overlapping crashes converge;
//   - predicted failures: a warn fault marks its PE doomed; at the next
//     quiescent cut every chare is migrated off it and its replica slots
//     are retargeted, so the crash lands on an empty PE and costs zero
//     rollback.
type Controller struct {
	rt   *charm.Runtime
	mem  *ckpt.Mem
	opts Options
	det  *detector
	inj  *injector

	locSnap    *charm.LocCacheSnapshot
	ckptDigest string

	// One recovery in flight at a time; nested failures extend it.
	recovering      bool
	failed          []int // sorted set of PEs the in-flight recovery heals
	restarts        int
	fallbacks       int
	recGen          int // invalidates stale restore/finish events
	firstDetectedAt float64
	lastRestoredAt  float64
	restartCost     float64
	digestOK        bool

	warns   []*warnState
	err     error
	crashAt map[int]float64

	// Records lists every completed recovery, in completion order; Evacs
	// every resolved fault prediction, in landing order.
	Records []RecoveryStat
	Evacs   []EvacRecord
}

// Enable arms a fault plan and the recovery machinery on a runtime. Call
// after declaring arrays and before Run.
func Enable(rt *charm.Runtime, plan Plan, opts Options) (*Controller, error) {
	if err := plan.Validate(rt.NumPEs()); err != nil {
		return nil, err
	}
	c := &Controller{rt: rt, mem: ckpt.NewMem(rt), opts: opts, crashAt: map[int]float64{}}
	if opts.Replication > 0 {
		c.mem.SetDegree(opts.Replication)
	}
	c.inj = newInjector(c, plan)
	c.det = newDetector(c, opts.HeartbeatPeriod, opts.HeartbeatTimeout)
	// The heartbeat chain keeps the engine alive until the app exits, so
	// it is only armed when the plan can actually kill someone; a
	// drop-only plan that stalls the app should drain and be diagnosed,
	// not heartbeat forever. Warns count: an unevacuated prediction
	// degrades to a crash that must be detected.
	armed := plan.Crashes()+plan.Warns() > 0
	if armed {
		if err := c.det.checkTimeout(); err != nil {
			return nil, err
		}
	}
	rt.SetLBResumeHook(c.onLBResume)
	c.inj.arm()
	if armed {
		c.det.start()
	}
	return c, nil
}

// Mem exposes the in-memory checkpointer.
//
//charmvet:unreached test oracle: TestCheckpointAdoptsCleanImages compares every cut it holds against a fresh pack
func (c *Controller) Mem() *ckpt.Mem { return c.mem }

// Err reports the terminal error that aborted recovery, if any.
func (c *Controller) Err() error { return c.err }

// Survived returns the number of failures healed: PEs restored by
// completed recoveries plus predicted crashes absorbed by evacuation.
func (c *Controller) Survived() int {
	if c.err != nil {
		return 0
	}
	n := 0
	for _, r := range c.Records {
		n += len(r.PEs)
	}
	for _, e := range c.Evacs {
		if e.Absorbed {
			n++
		}
	}
	return n
}

// maxRestarts caps how many times an in-flight restore may be restarted by
// further failures before the campaign is declared unrecoverable
// (ErrRetryBudgetExhausted): 2R+2.
func (c *Controller) maxRestarts() int { return 2*c.mem.Degree() + 2 }

func (c *Controller) anyDead() bool {
	for pe := 0; pe < c.rt.NumPEs(); pe++ {
		if c.rt.PEDead(pe) {
			return true
		}
	}
	return false
}

// noteCrash is the single bookkeeping point for a physical PE death: the
// crash instant is recorded for the eventual RecoveryStat, the checkpoint
// layer learns that the PE's resident replica copies are gone, and the
// runtime kills the PE. Runs inside the global event that is the crash.
func (c *Controller) noteCrash(pe int) {
	c.crashAt[pe] = float64(c.rt.Now())
	c.mem.NoteFailure(pe)
	c.rt.CrashPE(pe)
}

// CheckpointNow takes a degree-R in-memory checkpoint at the current
// instant, which must be a quiescent cut (no application messages in
// flight). It stalls every PE for the checkpoint's modeled duration and
// returns the total stall applied (checkpoint plus any evacuation or
// heal work performed at the same cut).
//
// If a PE is already dead — the failure struck but the detector has not
// fired yet — or a recovery is in progress, the cut is SKIPPED (returns
// 0): capturing the stalled, partially-corrupted state would poison the
// next rollback. OnCheckpoint is skipped too, keeping the driver snapshot
// paired with the last good chare snapshot.
//
// The cut is also where fault predictions are acted on: pending warns
// evacuate their doomed PEs (before the capture, so the checkpoint and
// its replica holder sets reflect the post-evacuation world), and
// absorbed crashes whose evacuees were not re-placed by a balancer round
// get them migrated back.
func (c *Controller) CheckpointNow() des.Time {
	if c.recovering || c.err != nil || c.anyDead() {
		return 0
	}
	extra := c.healAbsorbed()
	extra += c.evacuateDueWarns()
	dur := c.mem.Checkpoint()
	c.locSnap = c.rt.SnapshotLocCaches(c.locSnap)
	if c.opts.OnCheckpoint != nil {
		c.opts.OnCheckpoint()
	}
	c.ckptDigest = c.mem.Snapshot().Digest()
	c.rt.StallActivePEs(c.rt.MaxBusy() + dur)
	return dur + extra
}

// onLBResume is the runtime's LB-resume hook: the resume point is
// quiescent, so it is where AtSync applications checkpoint.
func (c *Controller) onLBResume(round int) des.Time {
	if c.opts.CheckpointEveryRounds <= 0 {
		return 0
	}
	if round%c.opts.CheckpointEveryRounds != 0 {
		return 0
	}
	c.CheckpointNow() // applies its own stall
	return 0
}

// evacDests lists the PEs an evacuation may target: ring successors of pe
// that are alive and not themselves predicted to fail, in ring order (the
// same order the replica mapping uses).
func (c *Controller) evacDests(pe int) []int {
	n := c.rt.NumPEs()
	var out []int
	for i := 1; i < n; i++ {
		h := (pe + i) % n
		if c.rt.PEDead(h) || c.rt.PEEvacuating(h) {
			continue
		}
		out = append(out, h)
	}
	return out
}

// evacuateDueWarns drains every pending prediction at a quiescent cut:
// all chares leave the doomed PE through the PUP migration path
// (round-robin over the live ring successors) and the modeled evacuation
// cost is applied as a global stall. Returns the total stall.
func (c *Controller) evacuateDueWarns() des.Time {
	var total des.Time
	for _, w := range c.warns {
		if w.evacuated || w.landed {
			continue
		}
		dests := c.evacDests(w.f.PE)
		if len(dests) == 0 {
			continue // no live target; the prediction will land as a crash
		}
		moves, bytes, dur := malleable.EvacuatePE(c.rt, w.f.PE, dests, evacModel)
		w.moves = moves
		w.evacuated = true
		w.lbRound = c.rt.LBRounds()
		w.rec.EvacuatedAt = float64(c.rt.Now())
		w.rec.Moved = len(moves)
		w.rec.Bytes = bytes
		w.rec.EvacCost = float64(dur)
		total += dur
		c.rt.Metrics().Counter("chaos.evacuations").Inc()
		if h := c.rt.Trace(); h != nil {
			h.Emit(charm.Event{Kind: charm.KFault, At: c.rt.Now(), PE: int32(w.f.PE), Entry: c.rt.Names().Intern(string(charm.FaultEvacuate))})
		}
	}
	return total
}

// healAbsorbed resolves landed predictions at a quiescent cut. If a
// load-balancing round already ran since the evacuation, the (stateless)
// strategy has re-placed the evacuees and placement has re-converged;
// otherwise the evacuated elements are migrated back to the replacement
// PE now. Either way the warn stops being tracked.
func (c *Controller) healAbsorbed() des.Time {
	var total des.Time
	kept := c.warns[:0]
	for _, w := range c.warns {
		if !w.landed {
			kept = append(kept, w)
			continue
		}
		if w.rec.Absorbed && c.rt.LBRounds() == w.lbRound {
			for i := range w.moves {
				w.moves[i].ToPE = w.f.PE
			}
			start := c.rt.MaxBusy()
			_, bytes := c.rt.ApplyMigrations(w.moves)
			dur := evacModel.EvacuationCost(bytes)
			c.rt.StallActivePEs(start + dur)
			total += dur
		}
	}
	c.warns = kept
	return total
}

// warnDelivered runs at a warn fault's prediction instant: the PE is
// marked doomed (excluded from future replica holder sets and from
// load-balancing targets) and the evacuation is left for the next
// quiescent cut.
func (c *Controller) warnDelivered(f Fault) {
	rt := c.rt
	if c.err != nil || rt.Exited() || rt.PEDead(f.PE) || rt.PEEvacuating(f.PE) {
		return
	}
	c.warns = append(c.warns, &warnState{f: f, rec: EvacRecord{PE: f.PE, WarnedAt: float64(rt.Now())}})
	c.mem.Doom(f.PE, true)
	rt.SetPEEvacuating(f.PE, true)
	rt.Metrics().Counter("chaos.warnings").Inc()
	if h := rt.Trace(); h != nil {
		h.Emit(charm.Event{Kind: charm.KFault, At: rt.Now(), PE: int32(f.PE), Entry: rt.Names().Intern(string(charm.FaultWarn))})
	}
}

// warnLands runs at a warn fault's predicted crash instant. A fully
// evacuated PE dies empty: a hot standby takes its slot inside the same
// global event, charged as a uniform boot stall — zero rollback, zero
// epochs, nothing for the detector to find. A PE that still hosts
// elements (the prediction outran the evacuation window, or a recovery
// is in flight) dies for real and takes the ordinary rollback path.
func (c *Controller) warnLands(f Fault) {
	rt := c.rt
	if c.err != nil || rt.Exited() {
		return
	}
	var w *warnState
	for _, x := range c.warns {
		if !x.landed && x.f.PE == f.PE && x.f.At == f.At {
			w = x
			break
		}
	}
	if w == nil {
		return
	}
	w.landed = true
	rt.SetPEEvacuating(f.PE, false)
	c.mem.Doom(f.PE, false)
	// The node dies either way: its resident checkpoint copies are gone.
	c.mem.NoteFailure(f.PE)
	w.rec.LandedAt = float64(rt.Now())
	if w.evacuated && !c.recovering && !rt.PEDead(f.PE) && rt.ElementsOn(f.PE) == 0 {
		rt.StallActivePEs(rt.MaxBusy() + replacementBoot)
		w.rec.Absorbed = true
		w.rec.BootCost = float64(replacementBoot)
		rt.Metrics().Counter("chaos.crashes_absorbed").Inc()
		if h := rt.Trace(); h != nil {
			h.Emit(charm.Event{Kind: charm.KFault, At: rt.Now(), PE: int32(f.PE), Entry: rt.Names().Intern(string(charm.FaultCrash))})
			h.Emit(charm.Event{Kind: charm.KFault, At: rt.Now(), PE: int32(f.PE), Entry: rt.Names().Intern(string(charm.FaultReplace))})
		}
	} else if !rt.PEDead(f.PE) {
		c.noteCrash(f.PE)
	}
	c.Evacs = append(c.Evacs, w.rec)
	if !w.rec.Absorbed {
		// Nothing left to heal; stop tracking now.
		c.dropWarn(w)
	}
}

func (c *Controller) dropWarn(w *warnState) {
	kept := c.warns[:0]
	for _, x := range c.warns {
		if x != w {
			kept = append(kept, x)
		}
	}
	c.warns = kept
}

func (c *Controller) inFailed(pe int) bool {
	for _, p := range c.failed {
		if p == pe {
			return true
		}
	}
	return false
}

func (c *Controller) addFailed(pe int) {
	if c.inFailed(pe) {
		return
	}
	c.failed = append(c.failed, pe)
	sort.Ints(c.failed)
}

// failureDetected runs in the detector's deadline event. The first
// detection of a cascade opens a recovery; detections landing while a
// restore is in flight extend its failed set and restart the restore
// against the surviving replicas, within the restart budget.
func (c *Controller) failureDetected(pe int, at des.Time) {
	rt := c.rt
	if c.err != nil || rt.Exited() || !rt.PEDead(pe) {
		return
	}
	if c.recovering {
		if c.inFailed(pe) {
			return
		}
		c.addFailed(pe)
		c.restarts++
		rt.Metrics().Counter("chaos.nested_recoveries").Inc()
		if h := rt.Trace(); h != nil {
			h.Emit(charm.Event{Kind: charm.KFault, At: at, PE: int32(pe), Entry: rt.Names().Intern(string(charm.FaultDetect))})
		}
		if c.restarts > c.maxRestarts() {
			c.unrecoverable(fmt.Errorf(
				"chaos: PE %d failed during recovery of PEs %v: %w (budget %d)",
				pe, c.failed, ErrRetryBudgetExhausted, c.maxRestarts()))
			return
		}
		c.scheduleRestore(at)
		return
	}
	c.recovering = true
	c.digestOK = true
	c.restarts = 0
	c.fallbacks = 0
	c.restartCost = 0
	c.failed = []int{pe}
	c.firstDetectedAt = float64(at)
	rt.Metrics().Counter("chaos.detections").Inc()
	if h := rt.Trace(); h != nil {
		h.Emit(charm.Event{Kind: charm.KFault, At: at, PE: int32(pe), Entry: rt.Names().Intern(string(charm.FaultDetect))})
	}
	c.scheduleRestore(at)
}

// scheduleRestore arms (or, after a nested failure, re-arms) the restore
// a couple of network latencies after detection. The generation counter
// invalidates any restore or finish event from a superseded attempt.
func (c *Controller) scheduleRestore(at des.Time) {
	c.recGen++
	gen := c.recGen
	c.rt.Engine().At(at+2*c.det.alpha, func() {
		if gen != c.recGen || c.err != nil {
			return
		}
		c.beginRestore()
	})
}

// beginRestore performs one restore attempt for the accumulated failed
// set: plan (replica-liveness decision BEFORE reviving anyone), epoch
// fence, PUP restore from the chosen replica holders, location-cache
// restore, driver-state rollback, digest assertion, and a stall covering
// the modeled restart cost before the replay kick. A failure landing
// before the kick restarts this whole procedure; the generation guard
// retires the superseded kick.
func (c *Controller) beginRestore() {
	rt := c.rt
	if !c.mem.HasCheckpoint() {
		c.unrecoverable(fmt.Errorf("chaos: cannot recover PEs %v: %w",
			c.failed, ckpt.ErrNoCheckpoint))
		return
	}
	// A crash that landed after the detection that scheduled this restore
	// is healed by the same attempt: gather every currently-dead PE.
	for pe := 0; pe < rt.NumPEs(); pe++ {
		if rt.PEDead(pe) {
			c.addFailed(pe)
		}
	}
	plan, err := c.mem.PlanRecovery(c.failed)
	if err != nil {
		c.unrecoverable(fmt.Errorf("chaos: recover PEs %v: %w", c.failed, err))
		return
	}
	c.fallbacks += plan.Fallbacks
	rt.RecoverReset() // epoch++, revive PEs, drop queues/reductions/QD
	dur, err := c.mem.StartRecovery(plan)
	if err != nil {
		c.unrecoverable(fmt.Errorf("chaos: recover PEs %v: %w", c.failed, err))
		return
	}
	rt.RestoreLocCaches(c.locSnap)
	if c.opts.OnRollback != nil {
		c.opts.OnRollback()
	}
	if StateDigest(rt) != c.ckptDigest {
		c.digestOK = false
		rt.Metrics().Counter("chaos.digest_mismatches").Inc()
	}
	c.lastRestoredAt = float64(rt.Now())
	c.restartCost += float64(dur)
	kick := rt.MaxBusy() + dur
	rt.StallActivePEs(kick)
	c.recGen++
	gen := c.recGen
	rt.Engine().At(kick, func() {
		if gen != c.recGen || c.err != nil {
			return
		}
		c.finishRecovery(float64(kick))
	})
}

// finishRecovery closes the recovery window at the replay kick: the
// checkpoint layer is back at full replication degree, the record is
// appended, and the application is kicked from the cut.
func (c *Controller) finishRecovery(resumedAt float64) {
	rt := c.rt
	c.mem.FinishRecovery()
	rec := RecoveryStat{
		PE: c.failed[0], PEs: c.failed,
		Restarts: c.restarts, Fallbacks: c.fallbacks,
		DetectedAt: c.firstDetectedAt, RestoredAt: c.lastRestoredAt,
		ResumedAt: resumedAt, RestartCost: c.restartCost,
		DigestOK: c.digestOK,
	}
	first := true
	for _, pe := range c.failed {
		if at, ok := c.crashAt[pe]; ok && (first || at < rec.CrashAt) {
			rec.CrashAt = at
			first = false
		}
	}
	c.Records = append(c.Records, rec)
	c.recovering = false
	c.failed = nil
	rt.Metrics().Counter("chaos.recoveries").Inc()
	if h := rt.Trace(); h != nil {
		for _, pe := range rec.PEs {
			h.Emit(charm.Event{Kind: charm.KFault, At: rt.Now(), PE: int32(pe), Entry: rt.Names().Intern(string(charm.FaultRecover))})
		}
	}
	// The detector chain never stopped observing; nothing to re-arm.
	if c.opts.Restart != nil {
		c.opts.Restart()
	} else {
		rt.ResumeRestoredElements()
	}
}

// unrecoverable latches a terminal, typed recovery error: the campaign
// cannot be healed (all replicas lost, no checkpoint, or the restart
// budget exhausted).
func (c *Controller) unrecoverable(err error) {
	if c.err != nil {
		return
	}
	c.rt.Metrics().Counter("chaos.unrecoverable").Inc()
	c.fail(err)
}

// fail latches a terminal error and stops the engine: the application is
// stalled with no way forward, so letting the run spin would hang it.
func (c *Controller) fail(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	c.rt.Engine().Stop()
}
