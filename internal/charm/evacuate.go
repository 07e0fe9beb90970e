package charm

// Proactive-evacuation support: the runtime-side half of fault-prediction
// handling (the paper's §III-B evacuation response, the cloud-preemption
// scenario of the adaptive-RTS line of work). When an external signal
// predicts a PE's death, the fault-tolerance driver (internal/chaos) marks
// the PE evacuating — excluding it as a load-balancing destination — and,
// at the next quiescent cut, migrates every chare off it through the
// normal PUP path. A fully evacuated PE hosts no elements when the
// predicted failure lands, so its death costs no rollback: a standby
// process takes over its slot and the run continues in the same epoch.

// SetPEEvacuating marks pe as evacuating ahead of a predicted failure (or,
// with false, clears the mark). While set, load-balancing strategies do
// not see pe as a placement target and migrations onto it are refused.
// Must be called from commit/global-event context.
func (rt *Runtime) SetPEEvacuating(pe int, v bool) { rt.pes[pe].evac = v }

// PEEvacuating reports whether pe is marked evacuating.
func (rt *Runtime) PEEvacuating(pe int) bool { return rt.pes[pe].evac }

// ElementsOn returns the number of array elements resident on pe — zero
// once an evacuation has fully drained it.
func (rt *Runtime) ElementsOn(pe int) int { return len(rt.pes[pe].sorted) }

// EvacuatePE migrates every array element off pe through the normal PUP
// migration path, assigning destinations round-robin over dests in the
// PE's deterministic element order. It must run at a quiescent cut (no
// application messages in flight) from commit/global-event context — the
// same invariant the checkpoint layer relies on — so the moves are a pure
// relocation, invisible to message routing beyond stale-hint forwarding.
//
// It returns the moves (ToPE is the destination each element landed on) and
// the total modeled bytes, for the caller's cost model.
func (rt *Runtime) EvacuatePE(pe int, dests []int) (moves []Migration, bytes int64) {
	if len(dests) == 0 {
		return nil, 0
	}
	for i, el := range rt.pes[pe].sorted {
		moves = append(moves, Migration{
			Array: rt.arrays[el.key.array], Idx: el.key.idx, ToPE: dests[i%len(dests)],
		})
	}
	_, bytes, _ = rt.applyMigrations(moves, toAnyPE)
	return moves, bytes
}

// ApplyMigrations applies a precomputed migration list through the normal
// PUP path, skipping elements that no longer exist, moves that are already
// in place, and destinations that are inactive, dead, or evacuating. The
// fault-tolerance driver uses it to return evacuated elements to a
// replaced PE when no load-balancing round has re-placed them. Quiescent
// commit/global-event context, like EvacuatePE.
func (rt *Runtime) ApplyMigrations(migs []Migration) (moved int, bytes int64) {
	moved, bytes, _ = rt.applyMigrations(migs, toLivePE)
	return moved, bytes
}
