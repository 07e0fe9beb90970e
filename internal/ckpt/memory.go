package ckpt

import (
	"errors"
	"fmt"
	"sort"

	"charmgo/internal/charm"
	"charmgo/internal/des"
)

// Typed recovery errors. Callers (the chaos controller, application
// drivers) branch on these with errors.Is to distinguish recoverable
// conditions from protocol violations.
var (
	// ErrNoCheckpoint: recovery was requested before any in-memory
	// checkpoint was taken.
	ErrNoCheckpoint = errors.New("ckpt: no in-memory checkpoint to recover from")
	// ErrPEOutOfRange: the failed PE id is not a valid PE of this runtime.
	ErrPEOutOfRange = errors.New("ckpt: failed PE out of range")
	// ErrRecoveryInProgress: FailAndRecover (the instantaneous
	// convenience API) was called while a two-step recovery window was
	// open. The controller restarts an in-flight recovery through
	// PlanRecovery/StartRecovery instead.
	ErrRecoveryInProgress = errors.New("ckpt: recovery already in progress")
	// ErrAllReplicasLost: every holder of a failed PE's checkpoint shard
	// has itself failed since the last checkpoint. The data is gone; only
	// a disk checkpoint (or a rerun) can help.
	ErrAllReplicasLost = errors.New("ckpt: every replica of the failed PE's checkpoint shard is lost")
)

// ReplicasOf is the replica mapping as a pure function: the deterministic
// holder set of pe's checkpoint shard is its next r ring successors (r = 1
// is the classic double scheme's buddy). r is clamped to numPEs-1 (a PE
// never holds its own remote copy). Operator tooling (cmd/ckptinfo) shares
// it so the printed map is the one the restore path actually uses.
func ReplicasOf(pe, numPEs, r int) []int {
	if numPEs <= 1 || r <= 0 {
		return nil
	}
	if r > numPEs-1 {
		r = numPEs - 1
	}
	out := make([]int, 0, r)
	for i := 1; len(out) < r; i++ {
		out = append(out, (pe+i)%numPEs)
	}
	return out
}

// ReplicaMemoryBytes returns, for a degree-r replication of s over n PEs,
// the worst per-PE resident checkpoint bytes (own shard plus the r shards
// it holds for others) and the cluster-wide total. Operators use it to
// judge the R-vs-memory tradeoff before raising the degree.
func ReplicaMemoryBytes(s *Snapshot, numPEs, r int) (worstPE, total int64) {
	per := s.PerPEBytes(numPEs)
	resident := make([]int64, numPEs)
	for pe := 0; pe < numPEs; pe++ {
		resident[pe] += per[pe]
		for _, h := range ReplicasOf(pe, numPEs, r) {
			resident[h] += per[pe]
		}
	}
	for _, b := range resident {
		total += b
		if b > worstPE {
			worstPE = b
		}
	}
	return worstPE, total
}

// MemCheckpointTime models a degree-r in-memory checkpoint of s on n PEs:
// every PE serializes its shard once and ships r copies to its holders,
// in parallel across PEs, followed by a barrier.
func MemCheckpointTime(s *Snapshot, numPEs, r int, tm TimeModel) des.Time {
	per := s.PerPEBytes(numPEs)
	var worst float64
	for _, b := range per {
		t := float64(b)/tm.SerializeBW + float64(r)*float64(b)/tm.MemBW
		if t > worst {
			worst = t
		}
	}
	return des.Time(tm.Base/3 + worst + tm.Barrier)
}

// RecoveryPlan is the liveness decision of one restore attempt: which PEs
// are being restored and which holder streams each one's shard. It is
// computed by PlanRecovery BEFORE the runtime revives dead PEs, so the
// decision cannot race the revive order.
type RecoveryPlan struct {
	// Failed is the sorted, deduplicated set of PEs being restored.
	Failed []int
	// Sources is parallel to Failed: the live replica holder chosen to
	// stream each failed PE's shard (the nearest ring successor whose
	// copy survives).
	Sources []int
	// Fallbacks counts holders that were skipped because they were dead
	// or had lost their copies — nonzero only when R > 1 saved the run.
	Fallbacks int
}

// Mem implements degree-R in-memory checkpointing, generalizing the
// double scheme of FTC-Charm++ (§III-B): each PE keeps a checkpoint of
// its own chares in local memory and a copy of each of R predecessors'
// shards. When a PE fails, a replacement PE receives the shard from the
// nearest live holder and every PE rolls back to the last checkpoint, so
// execution continues without touching the file system. R=1 is the
// classic buddy ring.
//
// Mem owns the replica-liveness bookkeeping: the controller reports
// physical crashes through NoteFailure, and PlanRecovery decides — from
// the holder table of the last checkpoint and the crashes seen since —
// which copies still exist. A PE that crashed loses its resident copies
// even if a replacement process has already taken its slot; copies come
// back only when a recovery's restore streams re-seed them
// (FinishRecovery) or a fresh checkpoint is taken.
type Mem struct {
	rt    *charm.Runtime
	model TimeModel

	degree int // R: remote copies per PE (>=1)

	snap    *Snapshot // the logical content of the distributed checkpoints
	holders [][]int   // per PE, the shard's holder set at the last checkpoint
	lost    map[int]bool
	doomed  map[int]bool

	// recovering is set between StartRecovery and FinishRecovery.
	recovering bool
	failedPEs  []int

	// Checkpoints and Restarts count completed operations;
	// RestartedRestores counts restore attempts that superseded an
	// in-flight one (a failure landed mid-restore).
	Checkpoints       int
	Restarts          int
	RestartedRestores int
}

// NewMem creates the in-memory checkpointer for a runtime at degree 1.
func NewMem(rt *charm.Runtime) *Mem {
	return &Mem{rt: rt, model: DefaultModel(rt.NumPEs()), degree: 1,
		lost: map[int]bool{}, doomed: map[int]bool{}}
}

// SetModel overrides the timing model.
func (m *Mem) SetModel(tm TimeModel) { m.model = tm }

// SetDegree sets the replication degree R (clamped to [1, numPEs-1]).
// It applies from the next Checkpoint; the holder table of an existing
// checkpoint is immutable.
func (m *Mem) SetDegree(r int) {
	if r < 1 {
		r = 1
	}
	if max := m.rt.NumPEs() - 1; r > max && max >= 1 {
		r = max
	}
	m.degree = r
}

// Degree returns the replication degree R.
func (m *Mem) Degree() int { return m.degree }

// Doom excludes pe from (or, with false, readmits it to) the holder sets
// of future checkpoints: a PE predicted to fail must not be handed
// anyone's only surviving copy. Takes effect at the next Checkpoint.
func (m *Mem) Doom(pe int, doomed bool) {
	if doomed {
		m.doomed[pe] = true
	} else {
		delete(m.doomed, pe)
	}
}

// NoteFailure records that pe physically crashed: every checkpoint copy
// resident in its memory — its own shard and the replica shards it held —
// is gone until restore streams or a fresh checkpoint re-seed it. Call at
// the crash instant, not at detection, so the liveness decision reflects
// physical reality.
func (m *Mem) NoteFailure(pe int) { m.lost[pe] = true }

// Holders returns pe's shard holder set as of the last checkpoint (nil
// before the first).
func (m *Mem) Holders(pe int) []int {
	if m.holders == nil || pe >= len(m.holders) {
		return nil
	}
	return m.holders[pe]
}

// Checkpoint takes a degree-R in-memory checkpoint (CkStartMemCheckpoint)
// and returns its modeled duration: every PE serializes its elements once
// and ships R copies to its holder set, in parallel, followed by a
// barrier. A successful checkpoint re-establishes full redundancy: the
// lost-copy ledger is cleared.
func (m *Mem) Checkpoint() des.Time {
	m.snap = Capture(m.rt)
	m.Checkpoints++
	m.rt.Metrics().Counter("ckpt.mem_checkpoints").Inc()
	n := m.rt.NumPEs()
	m.holders = make([][]int, n)
	for pe := 0; pe < n; pe++ {
		hs := make([]int, 0, m.degree)
		for i := 1; i < n && len(hs) < m.degree; i++ {
			h := (pe + i) % n
			if m.doomed[h] {
				continue
			}
			hs = append(hs, h)
		}
		m.holders[pe] = hs
	}
	m.lost = map[int]bool{}
	return MemCheckpointTime(m.snap, n, m.degree, m.model)
}

// HasCheckpoint reports whether a checkpoint exists to recover from.
func (m *Mem) HasCheckpoint() bool { return m.snap != nil }

// Recovering reports whether a StartRecovery is awaiting FinishRecovery,
// and for which PEs.
func (m *Mem) Recovering() (bool, []int) { return m.recovering, m.failedPEs }

// Snapshot returns the current checkpoint content (nil before the first
// Checkpoint). Read-only: tools such as cmd/ckptinfo inspect it.
func (m *Mem) Snapshot() *Snapshot { return m.snap }

// PlanRecovery chooses, for each failed PE, the nearest holder whose copy
// of that PE's shard still exists: not in the failed set, not currently
// dead, and not recorded lost since the last checkpoint. It MUST be
// called before the runtime revives the dead PEs (RecoverReset), so the
// liveness it sees is the physical state at the decision instant — this
// is what makes the choice race-free against the revive order.
//
// It returns ErrAllReplicasLost (wrapped, naming the PE) when a failed
// PE's entire holder set is gone, and is callable while a previous
// restore is still in flight: restarting recovery against the surviving
// replica set is exactly the overlapping-failure path.
func (m *Mem) PlanRecovery(failed []int) (*RecoveryPlan, error) {
	if m.snap == nil {
		return nil, ErrNoCheckpoint
	}
	n := m.rt.NumPEs()
	set := map[int]bool{}
	plan := &RecoveryPlan{}
	for _, pe := range failed {
		if pe < 0 || pe >= n {
			return nil, fmt.Errorf("%w: PE %d", ErrPEOutOfRange, pe)
		}
		if !set[pe] {
			set[pe] = true
			plan.Failed = append(plan.Failed, pe)
		}
	}
	if len(plan.Failed) == 0 {
		return nil, fmt.Errorf("ckpt: plan recovery: empty failed set")
	}
	sort.Ints(plan.Failed)
	for _, pe := range plan.Failed {
		hs := m.Holders(pe)
		src := -1
		for i, h := range hs {
			if set[h] || m.lost[h] || m.rt.PEDead(h) {
				continue
			}
			src = h
			plan.Fallbacks += i
			break
		}
		if src < 0 {
			return nil, fmt.Errorf("ckpt: PE %d (holders %v): %w", pe, hs, ErrAllReplicasLost)
		}
		plan.Sources = append(plan.Sources, src)
	}
	if plan.Fallbacks > 0 {
		m.rt.Metrics().Counter("ckpt.replica_fallbacks").Add(uint64(plan.Fallbacks))
	}
	return plan, nil
}

// StartRecovery executes the restore for a planned recovery: replacement
// PEs take the failed PEs' identities, their shards are reconstructed
// from the plan's source holders, and every other chare rolls back to the
// last checkpoint. It returns the modeled restart duration; the caller
// advances virtual time by that much and then calls FinishRecovery to
// close the window.
//
// Calling it while a previous restore window is open RESTARTS recovery:
// the superseded attempt's streams are abandoned (counted in
// RestartedRestores) and the window continues under the new plan — the
// back-to-back restart cost is the sum of both modeled durations, which
// the caller accumulates by stalling twice.
//
// Restart uses several consistency barriers, which is why its cost grows
// with PE count even as per-PE data shrinks (Fig 10). The restore streams
// double as re-replication: when FinishRecovery closes the window, every
// shard is once again held at full degree.
func (m *Mem) StartRecovery(plan *RecoveryPlan) (des.Time, error) {
	if m.snap == nil {
		return 0, ErrNoCheckpoint
	}
	if m.recovering {
		m.RestartedRestores++
		m.rt.Metrics().Counter("ckpt.restore_restarts").Inc()
	}
	m.recovering = true
	m.failedPEs = append([]int(nil), plan.Failed...)
	m.Restarts++
	m.rt.Metrics().Counter("ckpt.mem_restarts").Inc()
	if h := m.rt.Trace(); h != nil {
		h.Emit(charm.Event{Kind: charm.KCheckpoint, At: m.rt.Now(), PE: -1,
			Entry: string(charm.CheckpointRestore), A: m.snap.TotalBytes()})
	}

	// Roll every element back to the checkpoint, placing it on its
	// checkpoint-time PE (replacements inherit the failed PEs' ids).
	err := rebuild(m.rt, m.snap, "recover", func(arr *charm.Array, es *ElemSnap, obj charm.Chare) {
		if arr.Get(es.Idx) != nil {
			arr.Replace(es.Idx, obj, es.PE)
		} else {
			arr.InsertOn(es.Idx, obj, es.PE)
		}
	})
	if err != nil {
		m.recovering = false
		return 0, err
	}
	// Elements created after the checkpoint are rolled away.
	for _, as := range m.snap.Arrays {
		inSnap := make(map[charm.Index]bool, len(as.Elems))
		for _, es := range as.Elems {
			inSnap[es.Idx] = true
		}
		arr := m.rt.ArrayByName(as.Name)
		for _, idx := range arr.Keys() {
			if !inSnap[idx] {
				arr.Remove(idx)
			}
		}
	}

	// Timing: each source holder streams its failed partner's shard to
	// the replacement (streams from distinct holders run concurrently; a
	// holder serving two replacements serializes them); everyone else
	// restores locally; then several barriers re-establish consistency.
	per := m.snap.PerPEBytes(m.rt.NumPEs())
	var worstLocal float64
	for _, b := range per {
		if t := float64(b) / m.model.SerializeBW; t > worstLocal {
			worstLocal = t
		}
	}
	perSource := map[int]float64{}
	var worstStream float64
	for i, pe := range plan.Failed {
		var b float64
		if pe < len(per) {
			b = float64(per[pe])
		}
		src := plan.Sources[i]
		perSource[src] += b/m.model.MemBW + b/m.model.SerializeBW
		if perSource[src] > worstStream {
			worstStream = perSource[src]
		}
	}
	barriers := 4*m.model.Barrier + m.model.CoordPerPE*float64(m.rt.NumPEs())/8
	return des.Time(m.model.Base/2 + worstLocal + worstStream + barriers), nil
}

// FinishRecovery closes the recovery window opened by StartRecovery.
// The restore streams re-seeded every replica slot, so the lost-copy
// ledger is cleared: redundancy is back at full degree. Failures reported
// after this point start a fresh recovery.
func (m *Mem) FinishRecovery() {
	m.recovering = false
	m.failedPEs = nil
	m.lost = map[int]bool{}
}

// FailAndRecover simulates the hard failure of a PE and an instantaneous
// recovery: PlanRecovery and StartRecovery immediately followed by
// FinishRecovery. It returns the modeled restart duration. Callers that
// advance virtual time across the restore (the chaos controller) use the
// multi-step API so that mid-restore failures restart the protocol.
func (m *Mem) FailAndRecover(failedPE int) (des.Time, error) {
	if m.recovering {
		return 0, fmt.Errorf("%w (recovering PEs %v, new failure on PE %d)",
			ErrRecoveryInProgress, m.failedPEs, failedPE)
	}
	plan, err := m.PlanRecovery([]int{failedPE})
	if err != nil {
		return 0, err
	}
	d, err := m.StartRecovery(plan)
	if err != nil {
		return 0, err
	}
	m.FinishRecovery()
	return d, nil
}
