package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"charmgo/internal/projections/metrics"
)

// Server is the live introspection endpoint: it serves the most recent
// Publication (so request handling never touches runtime state) plus the
// standard pprof profiles.
//
//	/metrics      Prometheus text exposition
//	/status       the Status document as JSON
//	/events       streaming NDJSON of metric deltas, one line per publication
//	/debug/pprof  net/http/pprof (heap, goroutine, CPU profile, trace)
//
// Handlers load the immutable *Publication the driver's publish pump last
// stored in t.pub; /events polls its Seq rather than blocking on a
// channel, keeping the package free of select on any path.
type Server struct {
	t   *Telemetry
	ln  net.Listener
	srv *http.Server
}

// Serve starts the introspection server on addr (e.g. ":8080", or
// "127.0.0.1:0" to pick a free port — read it back with Addr), and forces
// an immediate publication so the endpoints have data before the first
// throttled publish. Close it after Run.
func Serve(addr string, t *Telemetry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{t: t, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	t.publish(t.rt.Now(), true, t.WallNow())
	//charmvet:spawn (HTTP accept loop; never schedules or executes events)
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close ends the session: it publishes the final not-running observation
// (Telemetry.Final), gives open /events streams a moment to deliver it and
// end on their own, then stops the listener and whatever is still in
// flight. Call from the driving goroutine after Run.
func (s *Server) Close() error {
	s.t.Final()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "charmgo telemetry\n\n"+
		"  /status       runtime status (JSON)\n"+
		"  /metrics      Prometheus text exposition\n"+
		"  /events       streaming NDJSON metric deltas\n"+
		"  /debug/pprof  Go profiles\n")
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	p := s.t.pub.Load()
	if p == nil {
		http.Error(w, "no publication yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(p.Status)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := s.t.pub.Load()
	if p == nil {
		http.Error(w, "no publication yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePrometheus(w, p.Metrics)
}

// eventLine is one /events NDJSON record: the publication header plus the
// samples that changed since the previous publication. encoding/json sorts
// map keys, so the line layout is deterministic for a given delta set.
type eventLine struct {
	Seq    uint64             `json:"seq"`
	WallMs float64            `json:"wall_ms"`
	VT     float64            `json:"vt"`
	Deltas map[string]float64 `json:"deltas"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	var sent uint64
	ctx := r.Context()
	for ctx.Err() == nil {
		if p := s.t.pub.Load(); p != nil && p.Seq != sent {
			sent = p.Seq
			line := eventLine{
				Seq:    p.Seq,
				WallMs: float64(p.WallNs) / 1e6,
				VT:     p.Status.VT,
				Deltas: make(map[string]float64, len(p.Deltas)),
			}
			for _, d := range p.Deltas {
				line.Deltas[d.Name] = d.Value
			}
			data, err := json.Marshal(line)
			if err != nil {
				return
			}
			if _, err := w.Write(append(data, '\n')); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
			// A final not-running publication ends the stream.
			if !p.Status.Running {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
}
