package ckpt

import (
	"errors"
	"math"
	"testing"

	"charmgo/internal/charm"
)

func TestReplicasOfRing(t *testing.T) {
	cases := []struct {
		pe, n, r int
		want     []int
	}{
		{0, 8, 1, []int{1}}, // r = 1 is the classic buddy: the ring successor
		{7, 8, 1, []int{0}},
		{0, 4, 1, []int{1}},
		{3, 4, 1, []int{0}},
		{0, 8, 2, []int{1, 2}},
		{6, 8, 3, []int{7, 0, 1}},
		{0, 4, 9, []int{1, 2, 3}}, // clamped to n-1: never your own holder
		{0, 1, 2, nil},            // a 1-PE world has nowhere to replicate
		{3, 8, 0, nil},
	}
	for _, c := range cases {
		got := ReplicasOf(c.pe, c.n, c.r)
		if len(got) != len(c.want) {
			t.Fatalf("ReplicasOf(%d,%d,%d) = %v, want %v", c.pe, c.n, c.r, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ReplicasOf(%d,%d,%d) = %v, want %v", c.pe, c.n, c.r, got, c.want)
			}
		}
	}
}

func TestReplicaMemoryBytesScalesWithDegree(t *testing.T) {
	rt, _ := buildRT(8, 64)
	snap := Capture(rt)
	base := snap.TotalBytes()
	prevWorst := int64(0)
	for r := 1; r <= 3; r++ {
		worst, total := ReplicaMemoryBytes(snap, 8, r)
		if total != int64(r+1)*base {
			t.Fatalf("R=%d: total %d, want (R+1)*payload = %d", r, total, int64(r+1)*base)
		}
		if worst <= prevWorst {
			t.Fatalf("R=%d: worst-PE bytes %d did not grow from %d", r, worst, prevWorst)
		}
		prevWorst = worst
	}
}

func TestMemCheckpointTimeDegreeOneMatchesBuddy(t *testing.T) {
	rt, _ := buildRT(8, 64)
	snap := Capture(rt)
	tm := DefaultModel(8)
	t1 := MemCheckpointTime(snap, 8, 1, tm)
	t2 := MemCheckpointTime(snap, 8, 2, tm)
	t3 := MemCheckpointTime(snap, 8, 3, tm)
	if !(t1 < t2 && t2 < t3) {
		t.Fatalf("checkpoint time not increasing in R: %v %v %v", t1, t2, t3)
	}
	// The degree charges R serialize-and-ship streams; the increments must
	// be equal (each extra copy costs the same shard transfer).
	if d1, d2 := t2-t1, t3-t2; math.Abs(float64(d1-d2)) > 1e-12 {
		t.Fatalf("unequal per-copy increments: %v vs %v", d1, d2)
	}
}

func TestPlanRecoveryFallsBackToFartherReplica(t *testing.T) {
	rt, _ := buildRT(8, 32)
	m := NewMem(rt)
	m.SetDegree(2)
	m.Checkpoint()

	// Healthy case: the nearest holder (the buddy) streams, no fallbacks.
	plan, err := m.PlanRecovery([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Sources[0] != 4 || plan.Fallbacks != 0 {
		t.Fatalf("healthy plan: sources %v fallbacks %d", plan.Sources, plan.Fallbacks)
	}

	// Correlated failure: the PE and its buddy die together. The plan must
	// skip to the second ring successor and count the fallback.
	m.NoteFailure(3)
	m.NoteFailure(4)
	plan, err = m.PlanRecovery([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Failed) != 2 || plan.Failed[0] != 3 || plan.Failed[1] != 4 {
		t.Fatalf("failed set %v", plan.Failed)
	}
	// PE 3's holders are {4,5}: 4 is in the failed set, so 5 streams.
	if plan.Sources[0] != 5 {
		t.Fatalf("PE 3 restored from %d, want 5", plan.Sources[0])
	}
	if plan.Fallbacks != 1 {
		t.Fatalf("fallbacks %d, want 1", plan.Fallbacks)
	}
}

func TestPlanRecoveryAllReplicasLost(t *testing.T) {
	rt, _ := buildRT(8, 32)
	m := NewMem(rt)
	m.SetDegree(2)
	m.Checkpoint()

	// PE 1's holders {2,3} both crash along with it: unrecoverable, and
	// the error is the typed sentinel the controller latches on.
	for _, pe := range []int{1, 2, 3} {
		m.NoteFailure(pe)
	}
	_, err := m.PlanRecovery([]int{1, 2, 3})
	if !errors.Is(err, ErrAllReplicasLost) {
		t.Fatalf("want ErrAllReplicasLost, got %v", err)
	}

	// At degree 3 the same crash set leaves holder 4 alive.
	m2 := NewMem(rt)
	m2.SetDegree(3)
	m2.Checkpoint()
	for _, pe := range []int{1, 2, 3} {
		m2.NoteFailure(pe)
	}
	plan, err := m2.PlanRecovery([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Sources[0] != 4 || plan.Fallbacks == 0 {
		t.Fatalf("degree-3 plan: sources %v fallbacks %d", plan.Sources, plan.Fallbacks)
	}
}

func TestPlanRecoverySkipsDoomedHolder(t *testing.T) {
	rt, _ := buildRT(8, 32)
	m := NewMem(rt)
	m.SetDegree(1)
	// A PE predicted to fail must not be handed anyone's only copy: with
	// PE 4 doomed at checkpoint time, PE 3's single holder becomes PE 5.
	m.Doom(4, true)
	m.Checkpoint()
	if got := m.Holders(3); len(got) != 1 || got[0] != 5 {
		t.Fatalf("holders of 3 with 4 doomed: %v, want [5]", got)
	}
	// Readmit and re-checkpoint: the ring heals.
	m.Doom(4, false)
	m.Checkpoint()
	if got := m.Holders(3); len(got) != 1 || got[0] != 4 {
		t.Fatalf("holders of 3 after readmit: %v, want [4]", got)
	}
}

func TestStartRecoveryWhileRecoveringRestartsRestore(t *testing.T) {
	rt, arr := buildRT(8, 32)
	m := NewMem(rt)
	m.SetDegree(2)
	m.Checkpoint()

	// First failure: open a restore window.
	m.NoteFailure(2)
	plan, err := m.PlanRecovery([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := m.StartRecovery(plan)
	if err != nil {
		t.Fatal(err)
	}
	if d1 <= 0 {
		t.Fatalf("restore duration %v", d1)
	}
	if rec, pes := m.recovering, m.failedPEs; !rec || len(pes) != 1 || pes[0] != 2 {
		t.Fatalf("recovering state: %v %v", rec, pes)
	}

	// A second failure lands mid-restore: plan against the survivors and
	// restart the window. The superseded attempt is counted.
	m.NoteFailure(3)
	plan2, err := m.PlanRecovery([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartRecovery(plan2); err != nil {
		t.Fatal(err)
	}
	if m.RestartedRestores != 1 {
		t.Fatalf("RestartedRestores %d, want 1", m.RestartedRestores)
	}
	if rec, pes := m.recovering, m.failedPEs; !rec || len(pes) != 2 {
		t.Fatalf("recovering state after restart: %v %v", rec, pes)
	}
	m.FinishRecovery()
	if rec := m.recovering; rec {
		t.Fatal("window still open after FinishRecovery")
	}
	// Elements are back at checkpoint positions with checkpoint state.
	for i := 0; i < 32; i++ {
		if b := arr.Get(charm.Idx1(i)).(*blob); b.ID != int64(i) {
			t.Fatalf("element %d not restored: ID=%d", i, b.ID)
		}
	}
	if m.Restarts != 2 {
		t.Fatalf("Restarts %d, want 2 (both attempts count)", m.Restarts)
	}
}
