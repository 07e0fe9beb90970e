// Package malleable implements shrink/expand (§III-D): a running job
// changes its PE count in response to an external (CCS-style) command. The
// chares on evacuated PEs are migrated away by a customized load-balancing
// pass, and the modeled cost of the reconfiguration protocol — dominated,
// as the paper notes, by restarting the application processes and
// reconnecting them — is applied as a global stall, producing the
// characteristic spike in Fig 5's iteration times.
package malleable

import (
	"fmt"

	"charmgo/internal/charm"
	"charmgo/internal/des"
)

// CostModel parameterizes the reconfiguration protocol.
type CostModel struct {
	// EvacPerByte is the per-byte cost of evacuating chare state.
	EvacPerByte float64
	// RestartBase and RestartPerPE model relaunching and reconnecting
	// the process set (the dominant term: 2.7 s for the Fig 5 shrink,
	// 7.2 s for the expand, which restarts more processes). Expand pays
	// RestartBase twice (tear-down + spawn) and SpawnFactor on the
	// per-PE start-up protocol.
	RestartBase  float64
	RestartPerPE float64
	SpawnFactor  float64
	// Rebalance triggers an immediate RTS rebalance after the PE set
	// changes (on by default via NewManager).
	Rebalance bool
}

// DefaultCostModel reproduces the Fig 5 magnitudes.
func DefaultCostModel() CostModel {
	return CostModel{
		EvacPerByte:  1.0 / 1.2e9,
		RestartBase:  1.2,
		RestartPerPE: 0.1875, // per 16 PEs; 256→128 shrink lands at ~2.7 s
		SpawnFactor:  1.6,    // 128→256 expand lands at ~7.2 s
		Rebalance:    true,
	}
}

// EvacuationCost models the protocol cost of proactively moving bytes of
// chare state off a doomed PE: the same per-byte evacuation term the
// shrink path charges, without the process-restart term (the PE set does
// not change — a standby process will take the doomed PE's slot).
func (cm CostModel) EvacuationCost(bytes int64) des.Time {
	return des.Time(cm.EvacPerByte * float64(bytes))
}

// EvacuatePE is the fault-prediction entry point shared with the chaos
// layer: at a quiescent cut, migrate every chare off pe (round-robin over
// dests, the same PUP path a shrink uses) and apply the modeled
// evacuation cost as a global stall. It returns the applied moves, the
// evacuated payload bytes, and the stall duration.
func EvacuatePE(rt *charm.Runtime, pe int, dests []int, cm CostModel) ([]charm.Migration, int64, des.Time) {
	start := rt.MaxBusy()
	moves, bytes := rt.EvacuatePE(pe, dests)
	dur := cm.EvacuationCost(bytes)
	rt.StallActivePEs(start + dur)
	return moves, bytes, dur
}

// Event records one completed reconfiguration.
type Event struct {
	At       des.Time
	FromPEs  int
	ToPEs    int
	Duration des.Time
	Moved    uint64
}

// Manager drives shrink/expand for a runtime.
type Manager struct {
	rt    *charm.Runtime
	model CostModel
	// Events lists completed reconfigurations.
	Events []Event
}

// NewManager returns a manager with the default cost model.
func NewManager(rt *charm.Runtime) *Manager {
	return &Manager{rt: rt, model: DefaultCostModel()}
}

// Reconfigure performs a shrink or expand immediately, returning an error
// for invalid targets. No residual processes remain on evacuated PEs: the
// PE set is reduced for real, per the enhanced shrink/expand the paper
// describes.
func (m *Manager) Reconfigure(newPEs int) error {
	rt := m.rt
	old := rt.NumPEs()
	if newPEs < 1 || newPEs > rt.MaxPEs() {
		return fmt.Errorf("target PE count %d out of [1,%d]", newPEs, rt.MaxPEs())
	}
	if newPEs == old {
		return nil
	}
	migsBefore := rt.Stats.Migrations

	// Quiesce: the protocol begins once in-progress work drains.
	start := rt.MaxBusy()

	// On shrink, everything on the PEs being removed migrates to its new
	// home; the bytes moved price the evacuation.
	evacBytes := rt.SetActivePEs(newPEs)

	// Restart/reconnect the process set: the dominant cost, growing with
	// the number of (re)started processes. Expand additionally spawns
	// and wires up brand-new processes, making it the costlier direction.
	var dur des.Time
	if newPEs < old {
		dur = des.Time(m.model.RestartBase +
			m.model.RestartPerPE*float64(newPEs)/16 +
			m.model.EvacPerByte*float64(evacBytes))
	} else {
		sf := m.model.SpawnFactor
		if sf <= 0 {
			sf = 1.6
		}
		dur = des.Time(2*m.model.RestartBase +
			m.model.RestartPerPE*sf*float64(newPEs)/16)
	}
	rt.StallActivePEs(start + dur)

	if m.model.Rebalance && rt.Balancer() != nil {
		rt.Rebalance()
	}
	m.Events = append(m.Events, Event{
		At:       start,
		FromPEs:  old,
		ToPEs:    newPEs,
		Duration: dur,
		Moved:    rt.Stats.Migrations - migsBefore,
	})
	return nil
}
