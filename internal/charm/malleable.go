package charm

// SetActivePEs reconfigures the job to run on the first n PEs (§III-D
// malleability). On shrink, elements on evacuated PEs migrate to their new
// home PEs; on expand, the new PEs become eligible targets and the next
// load-balancing round spreads work onto them. Location caches are flushed
// because home assignments depend on the active PE count.
//
// The timing of the shrink/expand protocol (evacuation transfers, process
// restart, reconnection) is modeled by internal/malleable; this method is
// the instantaneous reconfiguration primitive it builds on.
//
// It returns the modeled bytes of the elements a shrink evacuated (0 on
// expand), for the caller's cost model.
func (rt *Runtime) SetActivePEs(n int) (evacBytes int64) {
	if n < 1 || n > len(rt.pes) {
		panic("charm: active PE count out of range")
	}
	old := rt.activePEs
	rt.activePEs = n
	// Evacuate chares from the removed PEs (§III-D: "evacuate chares from
	// nodes which would be removed") to their homes under the new PE count.
	var evac []Migration
	for p := n; p < old; p++ {
		for _, el := range rt.pes[p].sorted {
			evac = append(evac, Migration{Array: rt.arrays[el.key.array], Idx: el.key.idx, ToPE: rt.homePE(el.key)})
		}
	}
	_, evacBytes, _ = rt.applyMigrations(evac, toAnyPE)
	for _, pe := range rt.pes {
		pe.loc.reset()
	}
	// A reconfiguration is a natural quiescent cut for long-running AMR or
	// shrink/expand jobs; compact the location tables opportunistically so
	// eids destroyed before the cut stop occupying slab slots. A no-op when
	// messages are still in flight.
	rt.CompactElementTable()
	return evacBytes
}
