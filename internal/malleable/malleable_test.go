package malleable

import (
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

type blob struct{ Data []float64 }

func (b *blob) Pup(p *pup.Pup) { p.Float64s(&b.Data) }

func build(numPEs, numElems int) (*charm.Runtime, *charm.Array, *Manager) {
	rt := charm.New(machine.New(machine.Testbed(numPEs)))
	arr := rt.DeclareArray("blobs", func() charm.Chare { return &blob{} },
		[]charm.Handler{func(obj charm.Chare, ctx *charm.Ctx, msg any) { ctx.Charge(1e-4) }},
		charm.ArrayOpts{Migratable: true})
	for i := 0; i < numElems; i++ {
		arr.Insert(charm.Idx1(i), &blob{Data: make([]float64, 64)})
	}
	rt.SetBalancer(lb.Greedy{})
	return rt, arr, NewManager(rt)
}

func TestShrinkEvacuatesAndStalls(t *testing.T) {
	rt, arr, m := build(8, 32)
	before := rt.MaxBusy()
	if err := m.Reconfigure(4); err != nil {
		t.Fatal(err)
	}
	if rt.NumPEs() != 4 {
		t.Fatalf("NumPEs=%d", rt.NumPEs())
	}
	for i := 0; i < 32; i++ {
		if pe := arr.PEOf(charm.Idx1(i)); pe >= 4 {
			t.Fatalf("element %d still on evacuated PE %d", i, pe)
		}
	}
	if rt.MaxBusy() <= before+1 {
		t.Fatalf("reconfiguration cost not applied: busy %v -> %v", before, rt.MaxBusy())
	}
	if len(m.Events) != 1 || m.Events[0].FromPEs != 8 || m.Events[0].ToPEs != 4 {
		t.Fatalf("event log wrong: %+v", m.Events)
	}
}

func TestExpandSpreadsLoad(t *testing.T) {
	rt, arr, m := build(8, 64)
	if err := m.Reconfigure(4); err != nil {
		t.Fatal(err)
	}
	// Accumulate load so the post-expand rebalance has data.
	arr.Broadcast(0, nil)
	rt.Run()
	if err := m.Reconfigure(8); err != nil {
		t.Fatal(err)
	}
	if rt.NumPEs() != 8 {
		t.Fatalf("NumPEs=%d", rt.NumPEs())
	}
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		used[arr.PEOf(charm.Idx1(i))] = true
	}
	if len(used) < 7 {
		t.Fatalf("expand rebalance used only %d of 8 PEs", len(used))
	}
}

func TestExpandCostsMoreThanShrink(t *testing.T) {
	// Fig 5: shrink 256→128 took 2.7s, expand 128→256 took 7.2s —
	// expand restarts more processes.
	rt, _, m := build(16, 64)
	if err := m.Reconfigure(8); err != nil {
		t.Fatal(err)
	}
	if err := m.Reconfigure(16); err != nil {
		t.Fatal(err)
	}
	shrink, expand := m.Events[0].Duration, m.Events[1].Duration
	_ = rt
	if expand <= shrink {
		t.Fatalf("expand (%v) should cost more than shrink (%v)", expand, shrink)
	}
}

func TestInvalidTargets(t *testing.T) {
	_, _, m := build(4, 8)
	if err := m.Reconfigure(0); err == nil {
		t.Fatal("shrink to 0 should fail")
	}
	if err := m.Reconfigure(5); err == nil {
		t.Fatal("expand beyond the machine should fail")
	}
	if err := m.Reconfigure(4); err != nil {
		t.Fatalf("no-op reconfigure errored: %v", err)
	}
	if len(m.Events) != 0 {
		t.Fatal("no-op reconfigure logged an event")
	}
}

func TestEvacuatePEDrainsDoomedPE(t *testing.T) {
	rt, arr, _ := build(8, 32)
	cm := DefaultCostModel()
	before := rt.MaxBusy()

	moves, bytes, dur := EvacuatePE(rt, 3, []int{0, 1, 2, 4, 5, 6, 7}, cm)
	if bytes <= 0 {
		t.Fatalf("evacuated %d bytes", bytes)
	}
	if dur != cm.EvacuationCost(bytes) {
		t.Fatalf("stall %v, want modeled cost %v", dur, cm.EvacuationCost(bytes))
	}
	// The PE count is unchanged — evacuation is not a shrink — but no
	// element may remain on the doomed PE, and every move departs from it.
	if rt.NumPEs() != 8 {
		t.Fatalf("NumPEs=%d after evacuation", rt.NumPEs())
	}
	for i := 0; i < 32; i++ {
		if pe := arr.PEOf(charm.Idx1(i)); pe == 3 {
			t.Fatalf("element %d still on doomed PE 3", i)
		}
	}
	if len(moves) == 0 {
		t.Fatal("no moves recorded")
	}
	for _, mg := range moves {
		if mg.ToPE == 3 {
			t.Fatalf("move of %v lands back on the doomed PE", mg.Idx)
		}
	}
	if rt.MaxBusy() < before+dur {
		t.Fatalf("evacuation stall not applied: busy %v -> %v (dur %v)", before, rt.MaxBusy(), dur)
	}
}

func TestEvacuationCostIsPerByteOnly(t *testing.T) {
	// Evacuation keeps the process set alive (a standby takes the slot),
	// so unlike a shrink it must not charge the restart term.
	cm := DefaultCostModel()
	if got, want := cm.EvacuationCost(1.2e9), des.Time(1.0); got < want*0.999 || got > want*1.001 {
		t.Fatalf("EvacuationCost(1.2e9) = %v, want ~%v", got, want)
	}
	if cm.EvacuationCost(0) != 0 {
		t.Fatalf("zero bytes must cost zero, got %v", cm.EvacuationCost(0))
	}
	shrinkFloor := des.Time(cm.RestartBase)
	if cm.EvacuationCost(1<<20) >= shrinkFloor {
		t.Fatalf("1MiB evacuation (%v) should be far below the shrink restart floor (%v)",
			cm.EvacuationCost(1<<20), shrinkFloor)
	}
}
