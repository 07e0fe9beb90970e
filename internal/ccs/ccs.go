// Package ccs implements a Converse Client-Server (CCS) interface (§III-D,
// [17]): a TCP endpoint through which external clients steer a running
// job — the mechanism the paper uses to deliver shrink/expand requests to
// LeanMD mid-run ("On a shrink request (sent through CHARM++ CCS
// mechanism), the RTS reconfigures itself...").
//
// Handlers registered by name execute on the simulation goroutine, so they
// may touch the runtime freely; network goroutines only enqueue requests.
// The driver interleaves simulation slices with request pumping:
//
//	srv := ccs.NewServer(rt)
//	srv.Register("shrink", ...)
//	srv.Listen("127.0.0.1:0")
//	srv.Drive(0.01, func() bool { return rt.Exited() })
//
// The wire protocol is one JSON object per line:
//
//	→ {"handler":"shrink","args":"128"}
//	← {"ok":true,"result":"now on 128 PEs"}
package ccs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/projections/metrics"
)

// Handler executes one external command on the simulation goroutine.
type Handler func(args string) (string, error)

// Request is the wire format of a command.
type Request struct {
	Handler string `json:"handler"`
	Args    string `json:"args"`
}

// Response is the wire format of a reply.
type Response struct {
	OK     bool   `json:"ok"`
	Result string `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

type pending struct {
	req  Request
	resp chan Response
}

// deferred is a request waiting out a backoff interval in virtual time
// because its serving PE is dead.
type deferred struct {
	p       pending
	attempt int
	due     des.Time
}

// RetryPolicy bounds the server-side retry of requests whose serving PE is
// dead: the k-th requeue waits min(Base·2^k, Cap) of *virtual* time, and
// after MaxRetries requeues the request fails with a retryable error. All
// pacing is on the simulation clock, so a campaign's retry schedule is as
// deterministic as the rest of the run.
type RetryPolicy struct {
	Base       des.Time
	Cap        des.Time
	MaxRetries int
}

// DefaultRetryPolicy matches the chaos campaigns' detection scale: the
// first requeue waits 100 µs, doubling to a 2 ms cap, giving a dead PE
// ~15 ms of virtual time to be detected and recovered before the client
// sees a failure.
var DefaultRetryPolicy = RetryPolicy{Base: 1e-4, Cap: 2e-3, MaxRetries: 10}

type handlerEntry struct {
	h  Handler
	pe int // serving PE, or -1 when the handler has no PE affinity
}

// Server is one CCS endpoint bound to a runtime.
type Server struct {
	rt *charm.Runtime
	ln net.Listener

	mu       sync.Mutex
	handlers map[string]handlerEntry
	queue    chan pending
	closed   bool
	conns    map[net.Conn]bool
	// replies counts the queued requests whose reply a connection has not
	// yet written: Close waits for them before disconnecting, so a request
	// the job answered on its way out still gets its answer.
	replies sync.WaitGroup

	// Simulation-goroutine-only state (touched by Pump/Drive, never by
	// network goroutines).
	retry    RetryPolicy
	backlog  []deferred
	retries  *metrics.Counter // ccs.retries: requeues due to a dead serving PE
	timeouts *metrics.Counter // ccs.timeouts: requests failed after exhausting retries
}

// NewServer creates a server for the runtime (not yet listening).
func NewServer(rt *charm.Runtime) *Server {
	return &Server{
		rt:       rt,
		handlers: map[string]handlerEntry{},
		queue:    make(chan pending, 64),
		conns:    map[net.Conn]bool{},
		retry:    DefaultRetryPolicy,
		retries:  rt.Metrics().Counter("ccs.retries"),
		timeouts: rt.Metrics().Counter("ccs.timeouts"),
	}
}

// Register installs a named handler with no PE affinity: it runs whenever
// the simulation goroutine pumps, even mid-recovery. Registration is not
// safe after Listen; install every handler first.
func (s *Server) Register(name string, h Handler) { s.RegisterOn(name, -1, h) }

// RegisterOn installs a handler served by a specific PE. While that PE is
// crashed (internal/chaos), requests are not failed immediately: they are
// requeued with capped exponential backoff in virtual time (RetryPolicy),
// riding out the failure detector's window plus the rollback. The requeue
// is deliberately not epoch-guarded — a CCS request originates outside the
// simulation, so a rollback must not discard it the way it discards
// pre-crash in-flight messages.
func (s *Server) RegisterOn(name string, pe int, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[name] = handlerEntry{h: h, pe: pe}
}

// Listen starts accepting clients on addr (use "127.0.0.1:0" for an
// ephemeral port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops accepting, rejects queued requests, lets every connection
// write the replies it owes — answered or rejected — and then disconnects
// the clients. Like Pump, it runs on the simulation goroutine.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true // no request is queued nor client accepted from here on
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Reject anything still queued or deferred.
	for _, d := range s.backlog {
		d.p.resp <- Response{OK: false, Error: "ccs: server closed"}
	}
	s.backlog = nil
	for drained := false; !drained; {
		select {
		case p := <-s.queue:
			p.resp <- Response{OK: false, Error: "ccs: server closed"}
		default:
			drained = true
		}
	}
	// Every queued request now has its answer (serve answers even a
	// panicking handler's), so only a peer that stopped reading can hold a
	// reply back: the write deadline bounds that wait.
	deadline := time.Now().Add(closeWriteGrace) //charmvet:wallclock (socket deadline, outside the simulation)
	for _, c := range conns {
		c.SetWriteDeadline(deadline)
	}
	s.replies.Wait()
	for _, c := range conns {
		c.Close()
	}
}

// closeWriteGrace is how long Close lets a connection write the replies it
// owes before giving up on a peer that does not read them.
const closeWriteGrace = time.Second

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		p := pending{req: req, resp: make(chan Response, 1)}
		if refusal, ok := s.enqueue(p); !ok {
			enc.Encode(refusal)
			continue
		}
		err := enc.Encode(<-p.resp)
		s.replies.Done()
		if err != nil {
			return
		}
	}
}

// enqueue hands p to the simulation goroutine, or returns the reply that
// refuses it: the queue is full, or the server is closed. A queued request
// counts in replies until its connection has written the answer.
func (s *Server) enqueue(p pending) (Response, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Response{OK: false, Error: "ccs: server closed"}, false
	}
	select {
	case s.queue <- p:
		s.replies.Add(1)
		return Response{}, true
	default:
		return Response{OK: false, Error: "ccs: request queue full"}, false
	}
}

// Pump executes every queued request on the caller's goroutine (which must
// be the simulation goroutine) and returns the number handled. Deferred
// requests whose backoff has elapsed in virtual time are retried first, in
// the order they were deferred.
func (s *Server) Pump() int {
	n := 0
	now := s.rt.Engine().Now()
	prev := s.backlog
	s.backlog = nil // serve re-appends anything deferred again
	for _, d := range prev {
		if d.due > now {
			s.backlog = append(s.backlog, d)
			continue
		}
		if s.serve(d.p, d.attempt) {
			n++
		}
	}
	for {
		select {
		case p, ok := <-s.queue:
			if !ok {
				return n
			}
			if s.serve(p, 0) {
				n++
			}
		default:
			return n
		}
	}
}

// serve dispatches one request; it reports whether a reply was produced
// (false when the request was deferred for a dead serving PE). A handler
// that panics still answers its request, with an error, before the panic
// goes on: its connection is not left owing a reply that Close waits for.
func (s *Server) serve(p pending, attempt int) bool {
	defer func() {
		if v := recover(); v != nil {
			p.resp <- Response{OK: false, Error: fmt.Sprintf("ccs: handler %q panicked: %v", p.req.Handler, v)}
			panic(v)
		}
	}()
	s.mu.Lock()
	h, ok := s.handlers[p.req.Handler]
	s.mu.Unlock()
	if !ok {
		p.resp <- Response{OK: false, Error: fmt.Sprintf("ccs: no handler %q", p.req.Handler)}
		return true
	}
	if h.pe >= 0 && s.rt.PEDead(h.pe) {
		if attempt >= s.retry.MaxRetries {
			s.timeouts.Inc()
			p.resp <- Response{OK: false, Error: fmt.Sprintf(
				"ccs: handler %q: serving PE %d still dead after %d retries",
				p.req.Handler, h.pe, attempt)}
			return true
		}
		s.retries.Inc()
		backoff := s.retry.Base
		for i := 0; i < attempt && backoff < s.retry.Cap; i++ {
			backoff *= 2
		}
		if backoff > s.retry.Cap {
			backoff = s.retry.Cap
		}
		s.backlog = append(s.backlog, deferred{
			p: p, attempt: attempt + 1, due: s.rt.Engine().Now() + backoff,
		})
		return false
	}
	result, err := h.h(p.req.Args)
	if err != nil {
		p.resp <- Response{OK: false, Error: err.Error()}
		return true
	}
	p.resp <- Response{OK: true, Result: result}
	return true
}

// Drive runs the simulation in slices of the given virtual duration,
// pumping external requests between slices, until done() reports true.
// When the engine has drained and no requests are queued, Drive yields the
// processor briefly (wall clock) so external clients can connect — this is
// how a CCS-steered job's main loop waits for commands.
func (s *Server) Drive(slice des.Time, done func() bool) {
	eng := s.rt.Engine()
	for !done() {
		eng.RunUntil(eng.Now() + slice)
		if s.Pump() == 0 && eng.Pending() == 0 {
			time.Sleep(time.Millisecond) //charmvet:wallclock (real-I/O yield while awaiting external clients)
		}
	}
}

// Client is a minimal CCS client.
type Client struct {
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// Dial connects to a CCS server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, dec: json.NewDecoder(bufio.NewReader(conn)), enc: json.NewEncoder(conn)}, nil
}

// Call sends one request and waits for the reply.
func (c *Client) Call(handler, args string) (string, error) {
	if err := c.enc.Encode(Request{Handler: handler, Args: args}); err != nil {
		return "", err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return "", err
	}
	if !resp.OK {
		return "", fmt.Errorf("%s", resp.Error)
	}
	return resp.Result, nil
}

// Close closes the client connection.
func (c *Client) Close() error { return c.conn.Close() }
