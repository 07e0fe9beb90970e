package projections

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"charmgo/internal/ccs"
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

// The log keeps the newest events of the run, in the order they were written:
// after n emits into a ring of c slots Events() is exactly IDs (n-c, n]. And
// every PE shares that one horizon: PE 0 runs an entry every tick and PE 1
// every eighth, so evicting per PE would leave PE 1's events reaching eight
// times further back and PE 0 reading idle there.
func TestRingOverflowDropsOldest(t *testing.T) {
	const c, tick = 64, des.Time(1) / 1024
	for _, emits := range []uint64{c / 2, c, c + 2, 1000} {
		tr := Attach(testRuntime(t, 2), Options{})
		tr.log = make([]Event, 0, c) // a small ring; Attach's holds logCap
		for step := 0; tr.Recorded() < emits; step++ {
			for pe := 0; pe < 2 && (pe == 0 || step%8 == 0); pe++ {
				at := des.Time(step) * tick
				tr.Emit(Event{Kind: charm.KEntryBegin, At: at, PE: pe, Arr: "a"})
				tr.Emit(Event{Kind: charm.KEntryEnd, At: at + tick/2, PE: pe, Arr: "a"})
			}
		}
		n, kept := tr.Recorded(), min(tr.Recorded(), c)
		events := tr.Events()
		if uint64(len(events)) != kept || tr.Dropped() != n-kept {
			t.Fatalf("n=%d: %d events held, %d dropped; want %d and %d", n, len(events), tr.Dropped(), kept, n-kept)
		}
		for i, e := range events {
			if want := n - kept + uint64(i) + 1; e.ID != want {
				t.Fatalf("n=%d: event %d has ID %d, want %d", n, i, e.ID, want)
			}
		}
		// PE 0 is busy half of every tick: in each whole two-tick window
		// between the horizon and the end, its utilization is exactly 0.5.
		u := ComputeUtilization(events, 2, 2*tick)
		if s := u.Samples[0]; n > kept && !(s.At-u.Interval <= events[0].At && events[0].At < s.At) {
			t.Fatalf("n=%d: table starts at window (%v, %v], the log at %v", n, s.At-u.Interval, s.At, events[0].At)
		}
		for w := 1; w < len(u.Samples)-1; w++ {
			if got := u.Samples[w].Util[0]; got != 0.5 {
				t.Errorf("n=%d: PE 0 utilization %v in window %d of %d, want 0.5", n, got, w, len(u.Samples))
			}
		}
	}
}

// Reading an unwrapped log copies nothing, and the slice it hands out cannot
// reach the log's spare capacity: a caller's append and the recorder's next
// event do not land in the same slot.
func TestEventsNoAllocNoAlias(t *testing.T) {
	rt := testRuntime(t, 2)
	tr := Attach(rt, Options{})
	runEcho(rt, 10)
	if avg := testing.AllocsPerRun(100, func() { _ = tr.Events() }); avg != 0 {
		t.Errorf("Events() on an unwrapped log allocates %v times a call", avg)
	}
	held := len(tr.Events())
	mine := append(tr.Events(), Event{Entry: "mine"})
	tr.Emit(Event{Kind: charm.KFault, Entry: "theirs"})
	if got := mine[held].Entry; got != "mine" {
		t.Errorf("the recorder wrote %q into a caller's slice", got)
	}
	if events := tr.Events(); len(events) != held+1 || events[held].Entry != "theirs" {
		t.Errorf("after an append to an earlier result, Events() holds %d events, want %d ending in the emitted one", len(events), held+1)
	}
}

// The log is one allocation of one size: attaching to a 16,384-PE machine
// costs the heap what attaching to a 16-PE one does.
func TestAttachHeapIndependentOfWidth(t *testing.T) {
	grow := func(pes int) int64 {
		rt := testRuntime(t, pes)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := Attach(rt, Options{})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tr)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	narrow, wide := grow(16), grow(16384)
	if d := wide - narrow; d < -1<<20 || d > 1<<20 {
		t.Fatalf("Attach grew the heap by %d bytes on 16 PEs and %d on 16,384", narrow, wide)
	}
}

// The live "events N" query is the tail of the log.
func TestCCSEventsTail(t *testing.T) {
	rt := testRuntime(t, 2)
	tr := Attach(rt, Options{})
	runEcho(rt, 50)
	srv := ccs.NewServer(rt)
	InstallCCS(srv, tr)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reply := make(chan string, 1)
	go func() {
		c, err := ccs.Dial(addr)
		if err != nil {
			reply <- err.Error()
			return
		}
		defer c.Close()
		out, err := c.Call("trace", "events 20")
		if err != nil {
			out = err.Error()
		}
		reply <- out
	}()
	var out string
	for out == "" { // the test goroutine is the simulation goroutine: it pumps
		srv.Pump()
		select {
		case out = <-reply:
		default:
			time.Sleep(time.Millisecond)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 20 {
		t.Fatalf("events 20 returned %d lines:\n%s", len(lines), out)
	}
	for i, line := range lines {
		if want := fmt.Sprintf("#%d ", tr.Recorded()-19+uint64(i)); !strings.HasPrefix(line, want) {
			t.Errorf("line %d is %q, want it to start %q", i, line, want)
		}
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
