package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

type blob struct {
	ID   int64
	Vals []float64
}

func (b *blob) Pup(p *pup.Pup) {
	p.Int64(&b.ID)
	p.Float64s(&b.Vals)
}

func buildRT(numPEs, numElems int) (*charm.Runtime, *charm.Array) {
	rt := charm.New(machine.New(machine.Testbed(numPEs)))
	arr := rt.DeclareArray("blobs", func() charm.Chare { return &blob{} },
		[]charm.Handler{func(obj charm.Chare, ctx *charm.Ctx, msg any) {}}, charm.ArrayOpts{})
	for i := 0; i < numElems; i++ {
		arr.Insert(charm.Idx1(i), &blob{ID: int64(i), Vals: []float64{float64(i), float64(i) * 2}})
	}
	return rt, arr
}

func TestCaptureRestoreSamePECount(t *testing.T) {
	rt, _ := buildRT(8, 40)
	snap := Capture(rt)
	if snap.NumPEs != 8 {
		t.Fatalf("snapshot PE count %d", snap.NumPEs)
	}
	rt2, arr2 := buildRT(8, 0)
	if err := Restore(rt2, snap); err != nil {
		t.Fatal(err)
	}
	if arr2.Len() != 40 {
		t.Fatalf("restored %d elements, want 40", arr2.Len())
	}
	for i := 0; i < 40; i++ {
		b := arr2.Get(charm.Idx1(i)).(*blob)
		if b.ID != int64(i) || len(b.Vals) != 2 || b.Vals[1] != float64(i)*2 {
			t.Fatalf("element %d corrupted: %+v", i, b)
		}
	}
}

func TestRestartOnDifferentPECount(t *testing.T) {
	// The headline §III-B property: restart on any number of PEs.
	rt, _ := buildRT(16, 64)
	snap := Capture(rt)
	for _, newPEs := range []int{4, 16, 32} {
		rt2, arr2 := buildRT(newPEs, 0)
		if err := Restore(rt2, snap); err != nil {
			t.Fatalf("restore on %d PEs: %v", newPEs, err)
		}
		if arr2.Len() != 64 {
			t.Fatalf("restore on %d PEs: %d elements", newPEs, arr2.Len())
		}
		used := map[int]bool{}
		for i := 0; i < 64; i++ {
			pe := arr2.PEOf(charm.Idx1(i))
			if pe < 0 || pe >= newPEs {
				t.Fatalf("element %d on PE %d of %d", i, pe, newPEs)
			}
			used[pe] = true
		}
		if len(used) < newPEs/2 {
			t.Fatalf("restore on %d PEs used only %d PEs", newPEs, len(used))
		}
	}
}

func TestSnapshotSerializationRoundTrip(t *testing.T) {
	rt, _ := buildRT(4, 10)
	snap := Capture(rt)
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPEs != snap.NumPEs || len(got.Arrays) != len(snap.Arrays) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Arrays[0].Elems) != 10 {
		t.Fatalf("element count %d", len(got.Arrays[0].Elems))
	}
	if !bytes.Equal(got.Arrays[0].Elems[3].Data, snap.Arrays[0].Elems[3].Data) {
		t.Fatal("element data corrupted in serialization")
	}
}

func TestSaveLoadFile(t *testing.T) {
	rt, _ := buildRT(4, 12)
	snap := Capture(rt)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rt2, arr2 := buildRT(4, 0)
	if err := Restore(rt2, got); err != nil {
		t.Fatal(err)
	}
	if arr2.Len() != 12 {
		t.Fatalf("file round trip lost elements: %d", arr2.Len())
	}
}

func TestRestoreUnknownArrayFails(t *testing.T) {
	rt, _ := buildRT(4, 3)
	snap := Capture(rt)
	snap.Arrays[0].Name = "nonexistent"
	rt2, _ := buildRT(4, 0)
	if err := Restore(rt2, snap); err == nil {
		t.Fatal("restore into missing array should fail")
	}
}

func TestDiskCheckpointTimeShrinksWithPEs(t *testing.T) {
	// Fixed problem size spread over more PEs ⇒ less data per PE ⇒
	// faster checkpoint (Fig 8 right).
	times := map[int]float64{}
	for _, pes := range []int{64, 256, 1024} {
		rt, _ := buildRT(pes, 4096)
		snap := Capture(rt)
		tm := DefaultModel(pes)
		times[pes] = float64(DiskCheckpointTime(snap, pes, tm))
	}
	if !(times[64] > times[256] && times[256] > times[1024]) {
		t.Fatalf("checkpoint time not decreasing with PEs: %v", times)
	}
}

func TestMemCheckpointAndRecover(t *testing.T) {
	rt, arr := buildRT(8, 32)
	m := NewMem(rt)
	if m.HasCheckpoint() {
		t.Fatal("fresh checkpointer claims a checkpoint")
	}
	if _, err := m.FailAndRecover(0); err == nil {
		t.Fatal("recovery without checkpoint should fail")
	}
	d := m.Checkpoint()
	if d <= 0 {
		t.Fatalf("checkpoint duration %v", d)
	}
	// Corrupt state after the checkpoint (simulating lost progress).
	for i := 0; i < 32; i++ {
		arr.Get(charm.Idx1(i)).(*blob).ID = -999
	}
	arr.Insert(charm.Idx1(100), &blob{ID: 100}) // post-checkpoint insertion
	rd, err := m.FailAndRecover(3)
	if err != nil {
		t.Fatal(err)
	}
	if rd <= 0 {
		t.Fatalf("recovery duration %v", rd)
	}
	for i := 0; i < 32; i++ {
		b := arr.Get(charm.Idx1(i)).(*blob)
		if b.ID != int64(i) {
			t.Fatalf("element %d not rolled back: ID=%d", i, b.ID)
		}
	}
	if arr.Get(charm.Idx1(100)) != nil {
		t.Fatal("post-checkpoint element survived rollback")
	}
	if m.Checkpoints != 1 || m.Restarts != 1 {
		t.Fatalf("counters: %d checkpoints, %d restarts", m.Checkpoints, m.Restarts)
	}
}

func TestMemRecoverPlacesElementsAtSnapshotPEs(t *testing.T) {
	rt, arr := buildRT(8, 24)
	want := map[int]int{}
	for i := 0; i < 24; i++ {
		want[i] = arr.PEOf(charm.Idx1(i))
	}
	m := NewMem(rt)
	m.Checkpoint()
	// Scatter elements to other PEs post-checkpoint.
	for i := 0; i < 24; i++ {
		arr.Replace(charm.Idx1(i), arr.Get(charm.Idx1(i)), (want[i]+3)%8)
	}
	if _, err := m.FailAndRecover(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if got := arr.PEOf(charm.Idx1(i)); got != want[i] {
			t.Fatalf("element %d on PE %d after recovery, want %d", i, got, want[i])
		}
	}
}

func TestRestartTimeGrowsWithPEsCheckpointShrinks(t *testing.T) {
	// Fig 10's two opposing curves: checkpoint time falls with P while
	// restart time rises (barrier/coordination effect).
	ck := map[int]float64{}
	rs := map[int]float64{}
	for _, pes := range []int{512, 2048, 8192} {
		rt := charm.New(machine.New(machine.Testbed(pes)))
		arr := rt.DeclareArray("blobs", func() charm.Chare { return &blob{} },
			[]charm.Handler{}, charm.ArrayOpts{})
		for i := 0; i < 16384; i++ {
			arr.Insert(charm.Idx1(i), &blob{ID: int64(i), Vals: make([]float64, 512)})
		}
		m := NewMem(rt)
		tm := DefaultModel(pes)
		tm.Base = 1e-4 // focus the test on the data and barrier terms
		m.SetModel(tm)
		ck[pes] = float64(m.Checkpoint())
		d, err := m.FailAndRecover(0)
		if err != nil {
			t.Fatal(err)
		}
		rs[pes] = float64(d)
	}
	if !(ck[512] > ck[2048] && ck[2048] > ck[8192]) {
		t.Fatalf("mem checkpoint not shrinking with P: %v", ck)
	}
	if !(rs[512] < rs[8192]) {
		t.Fatalf("restart time not growing with P: %v", rs)
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("corrupt checkpoint should fail to load")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing file should fail")
	}
}
