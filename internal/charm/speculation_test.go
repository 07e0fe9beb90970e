package charm

import (
	"testing"

	"charmgo/internal/machine"
)

// specRounds builds an optimistic runtime at SnapInterval 4 with one counter
// element on each of four shards, and returns a function that delivers one
// bump to every element — simultaneously, so the deliveries are speculated —
// and runs to quiescence.
func specRounds(t *testing.T) (rt *Runtime, els []*element, round func()) {
	t.Helper()
	cfg := machine.Testbed(4)
	cfg.Backend, cfg.SnapInterval = "optimistic", 4
	rt = New(machine.New(cfg))
	arr := declCounters(rt, ArrayOpts{PureHandlers: true, Migratable: true})
	for i := 0; i < 4; i++ {
		arr.InsertOn(Idx1(i), &counter{}, i)
		els = append(els, arr.lookup(Idx1(i)))
	}
	inject := func() {
		for i, el := range els {
			m := getMsg()
			m.dest, m.destPE, m.ep, m.size, m.srcPE = el.key, -1, epBump, 64, i
			m.payload = int64(1)
			rt.send(m, rt.eng.Now())
		}
	}
	return rt, els, func() {
		rt.eng.After(0, inject)
		rt.eng.Run()
	}
}

// TestSaveStorageLifetime follows one element's state-saving storage through
// its life: an interval's log owns its messages; the scheduled retirement
// hands them back at that moment and leaves the storage, empty, with the
// element; a load-balancing meter reset does the same, counted as an
// invalidation; migration and Replace release the storage.
func TestSaveStorageLifetime(t *testing.T) {
	rt, els, round := specRounds(t)
	ps := EnablePoolStats()
	base := ps.Outstanding()
	held := func() int64 { return ps.Outstanding() - base }
	idle := func(when string, sv *elemSave) {
		t.Helper()
		if sv.live || len(sv.log) != 0 || len(sv.resolves) != 0 {
			t.Fatalf("%s: save live=%v with %d records, %d resolves; want an empty, not-live save", when, sv.live, len(sv.log), len(sv.resolves))
		}
		for i, rec := range sv.log[:cap(sv.log)] {
			if rec != (replayRec{}) {
				t.Fatalf("%s: record %d still holds %+v", when, i, rec)
			}
		}
	}

	for i := 0; i < 3; i++ {
		round()
	}
	saves := make([]*elemSave, len(els))
	for i, el := range els {
		sv := el.save
		if sv == nil || !sv.live || len(sv.log) != 3 || sv.log[2].m == nil || sv.log[2].m.payload == nil {
			t.Fatalf("%v after 3 commits at K=4: save %+v, want a live image and 3 logged messages", el.key, sv)
		}
		saves[i] = sv
	}
	if held() != 12 {
		t.Fatalf("%d messages checked out with 4 logs of 3, want 12", held())
	}

	round() // the 4th commit since the image: every interval retires
	for i, el := range els {
		if el.save != saves[i] || cap(el.save.log) != 3 || cap(el.save.img) == 0 {
			t.Fatalf("%v: retirement did not keep the element's storage", el.key)
		}
		idle("after retirement", el.save)
	}
	if held() != 0 {
		t.Fatalf("%d messages still checked out after every interval retired, want 0", held())
	}
	if st := rt.SpecSaveStats(); st.Retired != 4 || st.Invalidations != 0 {
		t.Fatalf("%+v: want 4 scheduled retirements and no invalidation", st)
	}

	round()
	round()
	rt.ResetLoadStats() // a meter reset replay cannot reconstruct
	for i, el := range els {
		if el.save != saves[i] {
			t.Fatalf("%v: a meter reset released the element's storage", el.key)
		}
		idle("after a meter reset", el.save)
	}
	if st := rt.SpecSaveStats(); held() != 0 || st.Retired != 4 || st.Invalidations != 4 {
		t.Fatalf("%d messages held, %+v: want 0 and 4 invalidations beside the 4 retirements", held(), st)
	}

	round()
	rt.moveElement(els[0], 1, false)
	rt.arrays[els[1].key.array].Replace(els[1].key.idx, &counter{}, els[1].pe)
	if els[0].save != nil || els[1].save != nil {
		t.Fatal("migration and Replace must release the element's save")
	}
	if st := rt.SpecSaveStats(); held() != 2 || st.Invalidations != 6 {
		t.Fatalf("%d messages held, %+v: want the 2 of the untouched elements' logs and 6 invalidations", held(), st)
	}
	round() // the replaced element starts over with fresh storage
	if sv := els[1].save; sv == nil || sv == saves[1] || !sv.live {
		t.Fatalf("replaced element's save %+v: want a new, live one", sv)
	}
}

// TestReplayTripwireNamesMeter pins what the shrunken replay record must
// still do: a divergence in any one of the four packed meters is reported by
// name with both values.
func TestReplayTripwireNamesMeter(t *testing.T) {
	el := &element{msgsSent: 7, bytesSent: 1 << 33, redGen: 3}
	want := packMeters(el)
	if d := meterDiff(want, want); d != "" {
		t.Fatalf("equal meters differ: %s", d)
	}
	for _, c := range []struct {
		mutate func(*element)
		report string
	}{
		{func(e *element) { e.msgsSent++ }, "msgsSent 8 want 7 (low 20 bits)"},
		{func(e *element) { e.bytesSent += 64 }, "bytesSent 64 want 0 (low 32 bits)"},
		{func(e *element) { e.redGen-- }, "redGen 2 want 3 (low 11 bits)"},
		{func(e *element) { e.atSync = true }, "atSync 1 want 0 (low 1 bits)"},
	} {
		got := *el
		c.mutate(&got)
		if d := meterDiff(packMeters(&got), want); d != c.report {
			t.Errorf("tripwire reports %q, want %q", d, c.report)
		}
	}
}
