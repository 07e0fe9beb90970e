package telemetry_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"charmgo/internal/apps/stencil"
	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/telemetry"
)

// midRunStatus is a des.Probe placed between the engine and telemetry. It
// passes every call on and, at each event where telemetry may have published
// (it reads its clock every 1024th), GETs /status from the driving goroutine
// — the only place a publication of a run that lasts milliseconds can be
// read before the next replaces it — keeping the largest gvt_lag a running
// status showed.
type midRunStatus struct {
	*telemetry.Telemetry
	t      *testing.T
	url    string
	n      int
	maxLag float64
}

func (p *midRunStatus) EventExecuted(shard int, at des.Time, pending int) {
	p.Telemetry.EventExecuted(shard, at, pending)
	if p.n++; p.n&1023 != 0 {
		return
	}
	var st telemetry.Status
	getJSON(p.t, p.url, &st)
	if st.Running {
		p.maxLag = max(p.maxLag, st.GVTLag)
	}
}

// TestServerEndpoints runs a stencil job with the introspection server up,
// polls /events concurrently with the run, and checks /status, /metrics,
// and the stream contents after the final publication. The optimistic case
// pins /status's gvt_lag: speculation runs ahead of the commit frontier
// mid-run and has nothing in flight once the run is over.
func TestServerEndpoints(t *testing.T) {
	for _, backend := range []string{"parallel", "optimistic"} {
		t.Run(backend, func(t *testing.T) { testServerEndpoints(t, backend) })
	}
}

func testServerEndpoints(t *testing.T, backend string) {
	cfg := machine.Testbed(8)
	cfg.Backend = backend
	rt := charm.New(machine.New(cfg))
	rt.SetBalancer(lb.Greedy{})
	tel := telemetry.Attach(rt, telemetry.Options{FlightDir: t.TempDir()})
	srv, err := telemetry.Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	mid := &midRunStatus{Telemetry: tel, t: t, url: base + "/status"}
	rt.Engine().(des.ProbeSetter).SetProbe(mid)
	// A publication is due once the interval has passed since Attach, so the
	// run's first 1024th event makes one.
	time.Sleep(telemetry.PublishInterval)

	// Stream /events while the run progresses; the final not-running
	// publication ends the stream, so the reader goroutine terminates on
	// its own.
	lines := make(chan string, 64)
	streamErr := make(chan error, 1)
	go func() {
		defer close(lines)
		resp, err := http.Get(base + "/events")
		if err != nil {
			streamErr <- err
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			streamErr <- fmt.Errorf("events content-type %q", ct)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		streamErr <- sc.Err()
	}()

	if _, err := stencil.Run(rt, stencil.Config{GridN: 96, Chares: 12, Iters: 12, LBPeriod: 4}); err != nil {
		t.Fatal(err)
	}
	tel.Final()

	// /status reflects the finished run.
	var st telemetry.Status
	getJSON(t, base+"/status", &st)
	if st.Running {
		t.Errorf("/status running = true after Final")
	}
	if st.Backend != backend {
		t.Errorf("/status backend = %q, want %s", st.Backend, backend)
	}
	if st.GVTLag != 0 {
		t.Errorf("/status gvt_lag = %v after the run, want 0 (nothing in flight)", st.GVTLag)
	}
	if speculates := backend == "optimistic"; (mid.maxLag > 0) != speculates {
		t.Errorf("/status gvt_lag reached %v mid-run on the %s backend", mid.maxLag, backend)
	}
	t.Logf("mid-run gvt_lag max %v over %d events", mid.maxLag, mid.n)
	if st.Executed == 0 || st.MsgsSent == 0 {
		t.Errorf("/status shows no work: %+v", st)
	}

	// /metrics speaks Prometheus text format and carries the wall profile.
	prom := getBody(t, base+"/metrics")
	for _, want := range []string{
		"# TYPE wall_events counter",
		"wall_phase_ns_seconds_count",
		"wall_queue_depth_bucket{le=",
		"rts_msg_pool_outstanding",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The stream terminated with the final publication and every line is
	// valid NDJSON carrying deltas.
	var got []string
	for line := range lines {
		got = append(got, line)
	}
	if err := <-streamErr; err != nil {
		t.Fatalf("events stream: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("events stream produced no lines")
	}
	type eventLine struct {
		Seq    uint64             `json:"seq"`
		WallMs float64            `json:"wall_ms"`
		VT     float64            `json:"vt"`
		Deltas map[string]float64 `json:"deltas"`
	}
	var last eventLine
	for i, line := range got {
		var el eventLine
		if err := json.Unmarshal([]byte(line), &el); err != nil {
			t.Fatalf("events line %d is not JSON: %v\n%s", i, err, line)
		}
		if el.Seq <= last.Seq {
			t.Errorf("events line %d: seq %d not increasing past %d", i, el.Seq, last.Seq)
		}
		last = el
	}
	if _, ok := last.Deltas["wall.events"]; !ok && len(got) == 1 {
		t.Errorf("final events line carries no wall.events delta: %v", last.Deltas)
	}

	// pprof is mounted.
	if body := getBody(t, base+"/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("pprof cmdline endpoint empty")
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return string(data)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(getBody(t, url)), v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}
