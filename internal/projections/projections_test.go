package projections

import (
	"bytes"
	"strings"
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

func testRuntime(t *testing.T, pes int) *charm.Runtime {
	t.Helper()
	return charm.New(machine.New(machine.Testbed(pes)))
}

// echoChare is a stateless test chare.
type echoChare struct{}

func (e *echoChare) Pup(p *pup.Pup) {}

// echo app: element 0 pings element 1 n times; each ping costs fixed
// virtual compute.
func runEcho(rt *charm.Runtime, n int) {
	const epPing = 0
	var arr *charm.Array
	arr = rt.DeclareArray("echo", func() charm.Chare { return &echoChare{} },
		[]charm.Handler{func(obj charm.Chare, ctx *charm.Ctx, msg any) {
			left := msg.(int)
			ctx.Charge(1e-6)
			if left <= 0 {
				ctx.Exit()
				return
			}
			dst := charm.Idx1(1 - ctx.Index().I())
			ctx.Send(arr, dst, epPing, left-1)
		}},
		charm.ArrayOpts{EntryNames: []string{"ping"}})
	arr.InsertOn(charm.Idx1(0), &echoChare{}, 0)
	arr.InsertOn(charm.Idx1(1), &echoChare{}, rt.NumPEs()-1)
	rt.Boot(func(ctx *charm.Ctx) { ctx.Send(arr, charm.Idx1(0), epPing, n) })
	rt.Run()
}

func TestTracerRecordsEcho(t *testing.T) {
	rt := testRuntime(t, 2)
	tr := Attach(rt, Options{})
	runEcho(rt, 10)

	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	// IDs are dense and ordered.
	for i, e := range events {
		if e.ID != uint64(i+1) {
			t.Fatalf("event %d has ID %d, want %d", i, e.ID, i+1)
		}
	}
	counts := map[charm.Kind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	// 11 pings (driver send + 10 forwards) => 11 sends, recvs, executions.
	if counts[charm.KMsgSend] != 11 || counts[charm.KMsgRecv] != 11 {
		t.Errorf("send/recv = %d/%d, want 11/11", counts[charm.KMsgSend], counts[charm.KMsgRecv])
	}
	if counts[charm.KEntryBegin] != 11 || counts[charm.KEntryEnd] != 11 {
		t.Errorf("begin/end = %d/%d, want 11/11", counts[charm.KEntryBegin], counts[charm.KEntryEnd])
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped %d events with ample ring space", tr.Dropped())
	}

	// Causality: every recv references an earlier send; every caused
	// begin references a send.
	at := map[uint64]charm.Kind{}
	for _, e := range events {
		at[e.ID] = e.Kind
	}
	for _, e := range events {
		if e.Kind == charm.KMsgRecv && at[e.Ref] != charm.KMsgSend {
			t.Fatalf("recv #%d references %d (kind %v), want a send", e.ID, e.Ref, at[e.Ref])
		}
		if e.Kind == charm.KEntryBegin && e.Ref != 0 && at[e.Ref] != charm.KMsgSend {
			t.Fatalf("begin #%d references %d (kind %v), want a send", e.ID, e.Ref, at[e.Ref])
		}
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	rt := testRuntime(t, 2)
	tr := Attach(rt, Options{RingCap: 8})
	runEcho(rt, 50)

	if tr.Dropped() == 0 {
		t.Fatal("expected drops with an 8-event ring")
	}
	events := tr.Events()
	// Order must survive eviction.
	for i := 1; i < len(events); i++ {
		if events[i].ID <= events[i-1].ID {
			t.Fatalf("events out of order after eviction: %d then %d", events[i-1].ID, events[i].ID)
		}
	}
	if tr.Recorded() != events[len(events)-1].ID {
		t.Errorf("Recorded()=%d, last ID %d", tr.Recorded(), events[len(events)-1].ID)
	}
}

func TestWriteReadLogRoundTrip(t *testing.T) {
	rt := testRuntime(t, 2)
	tr := Attach(rt, Options{})
	runEcho(rt, 5)

	var buf bytes.Buffer
	if err := WriteLog(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := tr.Events()
	if len(back) != len(orig) {
		t.Fatalf("round trip: %d events, want %d", len(back), len(orig))
	}
	for i := range back {
		if back[i] != orig[i] {
			t.Fatalf("event %d differs after round trip:\n  %+v\n  %+v", i, back[i], orig[i])
		}
	}
}

func TestDetachStopsRecording(t *testing.T) {
	rt := testRuntime(t, 2)
	tr := Attach(rt, Options{})
	tr.Detach()
	runEcho(rt, 5)
	if n := tr.Recorded(); n != 0 {
		t.Fatalf("recorded %d events after Detach", n)
	}
}

func TestSummaryMentionsProfileAndPath(t *testing.T) {
	rt := testRuntime(t, 2)
	tr := Attach(rt, Options{})
	runEcho(rt, 10)

	var b strings.Builder
	if err := tr.WriteSummary(&b, 5); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"usage profile", "echo.ping", "critical path", "message latency", "metrics", "rts.msgs_sent"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestEngineEventsRecorded(t *testing.T) {
	rt := testRuntime(t, 2)
	tr := Attach(rt, Options{EngineEvents: true})
	runEcho(rt, 10)

	var phases int
	for _, e := range tr.Events() {
		if e.Kind == charm.KPhaseStart {
			phases++
		}
	}
	if phases == 0 {
		t.Fatal("EngineEvents recorded no phase events on the sequential engine")
	}
	if pb := ComputePhaseParallelism(tr.Events(), 1e-3); len(pb) == 0 {
		t.Fatal("no phase-parallelism buckets")
	}
}

// The zero-tracer fast path: a runtime without hooks must not record and
// must run identically (digest covered by the determinism suite; here we
// assert the nil-path doesn't panic and metrics still work).
func TestUntracedRuntimeMetricsOnly(t *testing.T) {
	rt := testRuntime(t, 2)
	runEcho(rt, 5)
	snap := rt.Metrics().Snapshot()
	if len(snap) == 0 {
		t.Fatal("metrics registry empty")
	}
	found := false
	for _, s := range snap {
		if s.Name == "rts.msgs_delivered" && s.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("rts.msgs_delivered missing or zero")
	}
	var _ des.Time // keep the des import honest if asserts change
}
