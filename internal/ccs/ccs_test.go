package ccs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/malleable"
	"charmgo/internal/pup"
)

type blob struct{ N int64 }

func (b *blob) Pup(p *pup.Pup) { p.Int64(&b.N) }

func newServer(t *testing.T, pes int) (*Server, *charm.Runtime, string) {
	t.Helper()
	rt := charm.New(machine.New(machine.Testbed(pes)))
	srv := NewServer(rt)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, rt, addr
}

// pumpInBackground drives Pump until the test ends, emulating the
// simulation main loop.
func pumpInBackground(t *testing.T, srv *Server) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.Pump()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	t.Cleanup(func() { close(stop); wg.Wait() })
}

func TestCallRoundTrip(t *testing.T) {
	srv, _, addr := newServer(t, 4)
	srv.Register("echo", func(args string) (string, error) {
		return "hello " + args, nil
	})
	pumpInBackground(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Call("echo", "world")
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello world" {
		t.Fatalf("got %q", got)
	}
}

func TestUnknownHandlerAndHandlerError(t *testing.T) {
	srv, _, addr := newServer(t, 2)
	srv.Register("fail", func(args string) (string, error) {
		return "", fmt.Errorf("deliberate: %s", args)
	})
	pumpInBackground(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("nope", ""); err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("want no-handler error, got %v", err)
	}
	if _, err := c.Call("fail", "x"); err == nil || !strings.Contains(err.Error(), "deliberate: x") {
		t.Fatalf("want handler error, got %v", err)
	}
}

func TestMultipleRequestsOneConnection(t *testing.T) {
	srv, _, addr := newServer(t, 2)
	count := 0
	srv.Register("inc", func(string) (string, error) {
		count++
		return strconv.Itoa(count), nil
	})
	pumpInBackground(t, srv)
	c, _ := Dial(addr)
	defer c.Close()
	for i := 1; i <= 5; i++ {
		got, err := c.Call("inc", "")
		if err != nil {
			t.Fatal(err)
		}
		if got != strconv.Itoa(i) {
			t.Fatalf("call %d returned %s", i, got)
		}
	}
}

func TestShrinkViaCCS(t *testing.T) {
	// The paper's exact scenario: an external shrink request arrives over
	// CCS and the RTS reconfigures the running job.
	srv, rt, addr := newServer(t, 8)
	rt.SetBalancer(lb.Greedy{})
	arr := rt.DeclareArray("blobs", func() charm.Chare { return &blob{} },
		[]charm.Handler{func(obj charm.Chare, ctx *charm.Ctx, msg any) { ctx.Charge(1e-5) }},
		charm.ArrayOpts{Migratable: true})
	for i := 0; i < 32; i++ {
		arr.Insert(charm.Idx1(i), &blob{N: int64(i)})
	}
	mgr := malleable.NewManager(rt)
	srv.Register("shrink", func(args string) (string, error) {
		n, err := strconv.Atoi(args)
		if err != nil {
			return "", err
		}
		if err := mgr.Reconfigure(n); err != nil {
			return "", err
		}
		return fmt.Sprintf("now on %d PEs", rt.NumPEs()), nil
	})
	srv.Register("pes", func(string) (string, error) {
		return strconv.Itoa(rt.NumPEs()), nil
	})
	pumpInBackground(t, srv)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, _ := c.Call("pes", ""); got != "8" {
		t.Fatalf("initial PEs %s", got)
	}
	res, err := c.Call("shrink", "4")
	if err != nil {
		t.Fatal(err)
	}
	if res != "now on 4 PEs" {
		t.Fatalf("shrink reply %q", res)
	}
	if rt.NumPEs() != 4 {
		t.Fatalf("runtime still on %d PEs", rt.NumPEs())
	}
	for i := 0; i < 32; i++ {
		if pe := arr.PEOf(charm.Idx1(i)); pe >= 4 {
			t.Fatalf("element %d left on evacuated PE %d", i, pe)
		}
	}
	if _, err := c.Call("shrink", "0"); err == nil {
		t.Fatal("invalid shrink should propagate the error to the client")
	}
}

func TestDriveIntegratesPumping(t *testing.T) {
	rt := charm.New(machine.New(machine.Testbed(4)))
	srv := NewServer(rt)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	handled := make(chan struct{})
	srv.Register("ping", func(string) (string, error) {
		close(handled)
		return "pong", nil
	})
	go func() {
		c, err := Dial(addr)
		if err != nil {
			return
		}
		defer c.Close()
		c.Call("ping", "")
	}()
	var done atomic.Bool
	go func() {
		<-handled
		done.Store(true)
	}()
	srv.Drive(0.01, done.Load)
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("Drive never pumped the request")
	}
}

// pumpAdvancing drives Pump while moving the virtual clock forward in
// fixed slices, so deferred (backed-off) requests come due; reviveAfter
// iterations in, every dead PE is brought back via RecoverReset.
func pumpAdvancing(t *testing.T, srv *Server, rt *charm.Runtime, reviveAfter int) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng := rt.Engine()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i == reviveAfter {
				rt.RecoverReset()
			}
			srv.Pump()
			eng.RunUntil(eng.Now() + 2e-4)
			time.Sleep(time.Millisecond)
		}
	}()
	t.Cleanup(func() { close(stop); wg.Wait() })
}

func TestDeadPERetriesUntilRecovery(t *testing.T) {
	srv, rt, addr := newServer(t, 4)
	srv.retry = RetryPolicy{Base: 1e-4, Cap: 1e-3, MaxRetries: 1000}
	srv.RegisterOn("work", 2, func(string) (string, error) {
		return "done", nil
	})
	rt.CrashPE(2)
	pumpAdvancing(t, srv, rt, 10)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Call("work", "")
	if err != nil {
		t.Fatalf("call across a recovered crash should succeed: %v", err)
	}
	if got != "done" {
		t.Fatalf("got %q", got)
	}
	if v := rt.Metrics().Counter("ccs.retries").Value(); v == 0 {
		t.Fatal("ccs.retries never incremented despite a dead serving PE")
	}
	if v := rt.Metrics().Counter("ccs.timeouts").Value(); v != 0 {
		t.Fatalf("ccs.timeouts = %d on a recovered call", v)
	}
}

func TestDeadPERetriesExhaust(t *testing.T) {
	srv, rt, addr := newServer(t, 4)
	srv.retry = RetryPolicy{Base: 1e-4, Cap: 4e-4, MaxRetries: 3}
	srv.RegisterOn("work", 1, func(string) (string, error) {
		return "done", nil
	})
	rt.CrashPE(1)
	pumpAdvancing(t, srv, rt, -1) // never revived
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("work", ""); err == nil ||
		!strings.Contains(err.Error(), "still dead after 3 retries") {
		t.Fatalf("want exhaustion error, got %v", err)
	}
	if v := rt.Metrics().Counter("ccs.timeouts").Value(); v != 1 {
		t.Fatalf("ccs.timeouts = %d, want 1", v)
	}
	if v := rt.Metrics().Counter("ccs.retries").Value(); v != 3 {
		t.Fatalf("ccs.retries = %d, want 3", v)
	}
}

func TestHandlerWithoutAffinityIgnoresCrashes(t *testing.T) {
	srv, rt, addr := newServer(t, 2)
	srv.Register("ping", func(string) (string, error) { return "pong", nil })
	rt.CrashPE(1)
	pumpInBackground(t, srv)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, err := c.Call("ping", ""); err != nil || got != "pong" {
		t.Fatalf("affinity-free handler should serve during a crash: %q, %v", got, err)
	}
	if v := rt.Metrics().Counter("ccs.retries").Value(); v != 0 {
		t.Fatalf("ccs.retries = %d for an affinity-free handler", v)
	}
}

func TestCloseRejectsLateClients(t *testing.T) {
	srv, _, addr := newServer(t, 2)
	srv.Close()
	if c, err := Dial(addr); err == nil {
		defer c.Close()
		if _, err := c.Call("x", ""); err == nil {
			t.Fatal("call after Close should fail")
		}
	}
}

// TestCloseWritesAnsweredReplies: a request the job answers just before it
// closes the server — the way a "stop" command ends a steered job — still
// gets its reply. Close runs on the pumping goroutine right after the
// answer, before the connection's goroutine can have written it, so
// closing the connections first would lose the reply every few rounds.
func TestCloseWritesAnsweredReplies(t *testing.T) {
	for round := 0; round < 50; round++ {
		rt := charm.New(machine.New(machine.Testbed(2)))
		srv := NewServer(rt)
		srv.Register("stop", func(string) (string, error) { return "stopping", nil })
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() {
			c, err := Dial(addr)
			if err != nil {
				got <- err
				return
			}
			defer c.Close()
			res, err := c.Call("stop", "")
			if err == nil && res != "stopping" {
				err = fmt.Errorf("reply %q", res)
			}
			got <- err
		}()
		for srv.Pump() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		srv.Close()
		if err := <-got; err != nil {
			t.Fatalf("round %d: the answered request got %v, want its reply", round, err)
		}
	}
}

// closeReturns runs srv.Close and fails the test if it has not returned
// within limit.
func closeReturns(t *testing.T, srv *Server, limit time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("Close has not returned after %v", limit)
	}
}

// TestClosePanickingHandler: a handler that panics answers its request
// with an error before the panic goes on, so the Close deferred in a job's
// main loop returns while the panic unwinds instead of waiting for a reply
// that never comes.
func TestClosePanickingHandler(t *testing.T) {
	srv, _, addr := newServer(t, 2)
	srv.Register("boom", func(string) (string, error) { panic("handler broke") })
	got := make(chan error, 1)
	go func() {
		c, err := Dial(addr)
		if err != nil {
			got <- err
			return
		}
		defer c.Close()
		_, err = c.Call("boom", "")
		got <- err
	}()
	func() {
		defer func() {
			if v := recover(); v != "handler broke" {
				t.Errorf("Pump panicked with %v, want the handler's panic", v)
			}
			closeReturns(t, srv, 5*time.Second)
		}()
		for srv.Pump() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		t.Error("Pump returned past a panicking handler")
	}()
	if err := <-got; err == nil || !strings.Contains(err.Error(), "panicked: handler broke") {
		t.Fatalf("the client got %v, want the handler's panic as an error", err)
	}
}

// TestCloseUnreadingPeer: a client that stops reading cannot stall Close
// past its write deadline, even while its connection is blocked writing a
// reply larger than the socket buffers hold.
func TestCloseUnreadingPeer(t *testing.T) {
	srv, _, addr := newServer(t, 2)
	big := strings.Repeat("x", 16<<20)
	srv.Register("big", func(string) (string, error) { return big, nil })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.enc.Encode(Request{Handler: "big"}); err != nil {
		t.Fatal(err)
	}
	for srv.Pump() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(50 * time.Millisecond) // let the connection block in its write
	closeReturns(t, srv, closeWriteGrace+5*time.Second)
}
