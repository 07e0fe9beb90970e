package charm

// Fault injection and rollback-recovery support: the runtime-side half of
// the paper's double in-memory checkpoint/restart scheme. The chaos package
// (internal/chaos) schedules faults and drives the recovery protocol; this
// file owns the transitions that must see runtime internals — killing a PE,
// discarding its queue, fencing stale messages by epoch, and rebuilding a
// consistent post-rollback state from which a checkpoint restore replays.
//
// The correctness argument is time-translation invariance: a checkpoint is
// taken only at quiescent cuts (the LB resume point, or an app-declared
// equivalent such as a PDES window boundary), where no application messages
// are in flight, no reductions are open, and every PE is about to restart
// from the same kind of kick. Restoring chare state, location caches, and
// per-element bookkeeping to exactly the cut's contents, stalling every PE
// to a common horizon, and replaying the cut's kick therefore reproduces
// the failure-free run's post-cut execution shifted rigidly in time — so
// every computed value (reductions, residuals, energies) is bit-identical.

import (
	"charmgo/internal/des"
)

// FaultFilter intercepts every network transmit. Implementations must be
// deterministic functions of their own seeded state and the call sequence:
// transmits happen in commit order — identical across backends — so a
// seeded RNG consulted here reproduces exactly.
type FaultFilter interface {
	// OnTransmit may drop the message or add extra latency. A dropped
	// message is lost permanently (no retransmit — the runtime models a
	// lossy fault); the quiescence accounting is retired by the runtime.
	OnTransmit(srcPE, dstPE, size int, at des.Time) (drop bool, extraDelay des.Time)
}

// SetFaultFilter installs the transmit interceptor (nil removes it).
func (rt *Runtime) SetFaultFilter(f FaultFilter) { rt.filter = f }

// SetLBResumeHook installs a hook called at every load-balancing resume
// point — after migrations have landed, before ResumeFromSync messages are
// enqueued. That instant is a provably quiescent cut, which makes it the
// checkpoint site of the double in-memory scheme. The hook receives the
// number of completed LB rounds; a positive return value stalls every
// active PE for that long, modeling the checkpoint cost.
func (rt *Runtime) SetLBResumeHook(fn func(round int) des.Time) { rt.lbResumeHook = fn }

// Epoch returns the current recovery epoch — the number of rollbacks
// performed so far. Messages are stamped at send and discarded on arrival
// when their epoch is stale.
func (rt *Runtime) Epoch() uint64 { return rt.epoch }

// PEDead reports whether pe has crashed and not yet been revived.
func (rt *Runtime) PEDead(pe int) bool { return rt.pes[pe].dead }

// CrashPE kills a PE at the current instant: its queued messages are
// discarded, future arrivals are dropped on the floor, and it executes
// nothing until RecoverReset revives it. Must run inside a global event so
// the crash lands at a deterministic phase boundary on both backends.
func (rt *Runtime) CrashPE(pe int) {
	p := rt.pes[pe]
	if p.dead {
		return
	}
	p.dead = true
	for _, m := range p.q {
		if m.destPE < 0 {
			rt.inflight--
		}
		rt.Stats.MsgsDiscarded++
		putMsg(m)
	}
	p.q = nil
	rt.mach.ResetNIC(pe)
	if rt.trace != nil {
		rt.trace.Emit(Event{Kind: KFault, At: rt.eng.Now(), PE: pe, Entry: string(FaultCrash)})
	}
	rt.checkQD()
}

// discard drops a live (current-epoch) message addressed to a dead PE,
// retiring its quiescence accounting.
func (rt *Runtime) discard(m *message) {
	if m.destPE < 0 {
		rt.inflight--
	}
	rt.Stats.MsgsDiscarded++
	putMsg(m)
	rt.checkQD()
}

// dropInjected loses a message to an injected network fault.
func (rt *Runtime) dropInjected(m *message, dst int, t des.Time) {
	if m.destPE < 0 {
		rt.inflight--
	}
	rt.Stats.MsgsDropped++
	putMsg(m)
	if rt.trace != nil {
		rt.trace.Emit(Event{Kind: KFault, At: t, PE: dst, Entry: string(FaultDrop)})
	}
	rt.checkQD()
}

// LocCacheSnapshot is an opaque copy of every PE's location hints, taken at
// checkpoint time and restored at rollback. Restoring (rather than
// clearing) matters for exact replay: the failure-free run proceeds past
// the cut with warm caches, so a rolled-back run must resume with the same
// cache contents or its messages route — and therefore arrive — in a
// different order.
type LocCacheSnapshot struct {
	tables []locTable // by PE
	// tableEpoch records the element-table numbering the cached eids refer
	// to; restoring across a CompactElementTable would stamp messages with
	// remapped ids, so Restore refuses it.
	tableEpoch uint64
}

// SnapshotLocCaches deep-copies every PE's location hints.
func (rt *Runtime) SnapshotLocCaches() *LocCacheSnapshot {
	s := &LocCacheSnapshot{tables: make([]locTable, len(rt.pes)), tableEpoch: rt.tableEpoch}
	for i, p := range rt.pes {
		s.tables[i] = p.loc.clone()
	}
	return s
}

// RestoreLocCaches replaces every PE's location hints with a copy of the
// snapshot's (empty tables when s is nil).
func (rt *Runtime) RestoreLocCaches(s *LocCacheSnapshot) {
	if s != nil && s.tableEpoch != rt.tableEpoch {
		panic("charm: RestoreLocCaches across an element-table compaction")
	}
	for i, p := range rt.pes {
		if s == nil {
			p.loc.reset()
		} else {
			p.loc = s.tables[i].clone()
		}
	}
}

// RecoverReset rolls the runtime's transient state back to a quiescent cut:
// it bumps the epoch (discarding every in-flight message on arrival),
// revives dead PEs, empties every scheduler queue, clears collective and
// quiescence state, and resets per-element bookkeeping exactly as a
// load-balancing resume would. Callers (the chaos recovery driver) then
// restore chare state from a checkpoint, restore the location caches, and
// replay the cut's kick. Must run inside a global event.
func (rt *Runtime) RecoverReset() {
	rt.epoch++
	rt.inflight = 0
	for eid, buffered := range rt.pending { //charmvet:ordered (drain to pool, order-insensitive)
		for _, m := range buffered {
			putMsg(m)
		}
		delete(rt.pending, eid)
	}
	for _, a := range rt.arrays {
		a.redBase = 0
		a.redOpen = nil
	}
	rt.qdWatch = nil
	rt.lbArrived = 0
	rt.lbInProgress = false
	// The checkpoint cut had every link idle; bookings made by the
	// now-discarded traffic must not delay the replay's transmits.
	rt.mach.ResetAllNICs()
	for _, p := range rt.pes {
		p.dead = false
		for _, m := range p.q {
			putMsg(m)
		}
		p.q = nil
		p.pumpAt = -1
		for _, el := range p.sorted {
			// The checkpoint was taken at a cut where no element had called
			// AtSync and all reduction generations were equal; mid-phase
			// crashes leave both ragged, so reset them uniformly (the
			// reduction rings are empty, making generation reuse safe).
			el.atSync = false
			el.redGen = 0
			rt.resetMeters(el)
			// Retained speculation images predate the checkpoint restore.
			rt.dropSave(el)
		}
	}
	if rt.trace != nil {
		rt.trace.Emit(Event{Kind: KFault, At: rt.eng.Now(), PE: -1, Entry: string(FaultRollback)})
	}
}

// ResumeRestoredElements re-enqueues ResumeFromSync for every element of
// every AtSync array — the load-balancing resume (resumeFromSync) of the cut
// the checkpoint was taken at. The caller must first stall every PE to a
// common horizon so the replayed deliveries start from a uniform state.
func (rt *Runtime) ResumeRestoredElements() { rt.resumeFromSync(true) }

// atEpoch schedules a global event that self-cancels if a rollback happens
// first: work scheduled under one epoch must not leak into the next.
func (rt *Runtime) atEpoch(t des.Time, fn func()) {
	epoch := rt.epoch
	rt.eng.At(t, func() {
		if rt.epoch == epoch {
			fn()
		}
	})
}
