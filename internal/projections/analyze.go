package projections

import (
	"fmt"
	"io"
	"sort"

	"charmgo/internal/charm"
	"charmgo/internal/des"
)

// EntryStat is one row of the usage profile (Projections' "usage
// profile"): aggregate time and call count per entry method.
type EntryStat struct {
	Name  string // "array.entry", or the PE-handler name
	Calls int
	Time  des.Time // total virtual execution time
	Max   des.Time // longest single execution
}

// openEntries pairs begins with ends: per PE, a stack of what each open
// KEntryBegin pushed. A KEntryEnd closes its PE's innermost open execution;
// executions on one PE never interleave.
type openEntries[T any] map[int][]T

func (o openEntries[T]) push(pe int, v T) { o[pe] = append(o[pe], v) }

// pop reports false for an end whose begin is older than the log.
func (o openEntries[T]) pop(pe int) (v T, ok bool) {
	st := o[pe]
	if len(st) == 0 {
		return v, false
	}
	o[pe] = st[:len(st)-1]
	return st[len(st)-1], true
}

// Profile aggregates entry-method executions per entry name, sorted by
// total time (heaviest first; ties by name).
func Profile(events []Event) []EntryStat {
	names := []string{}
	stats := map[string]*EntryStat{}
	open := openEntries[Event]{}
	for _, e := range events {
		switch e.Kind {
		case charm.KEntryBegin:
			open.push(e.PE, e)
		case charm.KEntryEnd:
			b, ok := open.pop(e.PE)
			if !ok {
				continue
			}
			name := b.Name()
			s, ok := stats[name]
			if !ok {
				s = &EntryStat{Name: name}
				stats[name] = s
				names = append(names, name)
			}
			d := e.At - b.At
			s.Calls++
			s.Time += d
			if d > s.Max {
				s.Max = d
			}
		}
	}
	out := make([]EntryStat, 0, len(names))
	for _, n := range names {
		out = append(out, *stats[n])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// LatencyHist is a log-scale histogram of message latencies (send stamp to
// scheduler-queue arrival).
type LatencyHist struct {
	Count   int
	Mean    des.Time
	Max     des.Time
	Buckets []LatBucket
}

// LatBucket counts messages with latency < Upper (the last bucket is
// unbounded).
type LatBucket struct {
	Upper des.Time // exclusive; des.Forever for the overflow bucket
	Count int
}

var latBounds = []des.Time{1e-6, 10e-6, 100e-6, 1e-3, 10e-3, des.Forever}

// MessageLatency builds the latency histogram over all send/recv pairs.
// A message forwarded by the location manager counts once per arrival,
// with the latency measured from the original send.
func MessageLatency(events []Event) LatencyHist {
	h := LatencyHist{Buckets: make([]LatBucket, len(latBounds))}
	for i, b := range latBounds {
		h.Buckets[i].Upper = b
	}
	sendAt := map[uint64]des.Time{}
	var total des.Time
	for _, e := range events {
		switch e.Kind {
		case charm.KMsgSend:
			sendAt[e.ID] = e.At
		case charm.KMsgRecv:
			t0, ok := sendAt[e.Ref]
			if !ok {
				continue // send older than the log
			}
			lat := e.At - t0
			h.Count++
			total += lat
			if lat > h.Max {
				h.Max = lat
			}
			for i := range h.Buckets {
				if lat < h.Buckets[i].Upper {
					h.Buckets[i].Count++
					break
				}
			}
		}
	}
	if h.Count > 0 {
		h.Mean = total / des.Time(h.Count)
	}
	return h
}

// CriticalPath is the heaviest chain of causally ordered computation: each
// link is "entry execution → message it sent → execution that message
// triggered". Work counts virtual compute along the chain (queueing and
// network time are excluded — this is Projections' computational critical
// path, the lower bound no amount of added parallelism can beat).
type CriticalPath struct {
	Work    des.Time // summed virtual compute along the path
	Span    des.Time // virtual time from the path's first begin to its last end
	Hops    int      // executions on the path
	Entries []string // entry names along the path, root first (capped)
}

// maxPathEntries caps the rendered path.
const maxPathEntries = 64

// ComputeCriticalPath extracts the critical path from a trace. Events must
// be in ID order (as returned by Tracer.Events and ReadLog).
func ComputeCriticalPath(events []Event) CriticalPath {
	type exec struct {
		begin, end des.Time
		cause      uint64 // send that triggered it (0 for roots)
		name       string
	}
	// all collects executions in trace order (the deterministic tie-break);
	// bySend indexes the non-root ones by their triggering send — one
	// message triggers at most one execution.
	var all []*exec
	bySend := map[uint64]*exec{}
	open := openEntries[*exec]{}
	// best[s] = heaviest work accumulated strictly before send s was
	// stamped; parent[s] backlinks the chain. Send IDs only grow along a
	// causal chain (Ref < ID), so one pass in ID order is a valid DP.
	best := map[uint64]des.Time{}
	parent := map[uint64]uint64{}

	for _, e := range events {
		switch e.Kind {
		case charm.KEntryBegin:
			x := &exec{begin: e.At, end: -1, cause: e.Ref, name: e.Name()}
			all = append(all, x)
			open.push(e.PE, x)
			if e.Ref != 0 {
				bySend[e.Ref] = x
			}
		case charm.KEntryEnd:
			if x, ok := open.pop(e.PE); ok {
				x.end = e.At
			}
		case charm.KMsgSend:
			// Work before this send = work up the chain + compute spent
			// inside the emitting execution before the send was stamped.
			w := best[e.Ref]
			if x, ok := bySend[e.Ref]; ok && e.At > x.begin {
				w += e.At - x.begin
			}
			best[e.ID] = w
			parent[e.ID] = e.Ref
		}
	}

	// The path ends at the execution with the heaviest total; first such
	// execution in trace order wins ties.
	var cp CriticalPath
	var tailExec *exec
	for _, x := range all {
		if x.end < x.begin {
			continue // never closed (trace truncated)
		}
		total := best[x.cause] + (x.end - x.begin)
		if tailExec == nil || total > cp.Work {
			cp.Work = total
			tailExec = x
		}
	}
	if tailExec == nil {
		return cp
	}
	// Walk the send backlinks to the root, collecting entry names. The
	// execution that emitted send s is the one triggered by s's own cause
	// (parent[s]); a parent of 0 means the sender was the driver or a root
	// execution, where the chain ends.
	names := []string{tailExec.name}
	first := tailExec.begin
	cp.Hops = 1
	for s := tailExec.cause; s != 0; {
		ps := parent[s]
		if ps == 0 {
			break
		}
		x, ok := bySend[ps]
		if !ok {
			break
		}
		names = append(names, x.name)
		first = x.begin
		cp.Hops++
		s = ps
	}
	cp.Span = tailExec.end - first
	// Reverse to root-first and cap.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	if len(names) > maxPathEntries {
		names = names[len(names)-maxPathEntries:]
	}
	cp.Entries = names
	return cp
}

// PhaseBucket is one window of the phase-parallelism timeline.
type PhaseBucket struct {
	T0     des.Time // window start
	Events int      // sharded events popped in the window
	Shards int      // distinct shards among them
}

// ComputePhaseParallelism buckets the engine's phase-start events into
// fixed windows and counts distinct shards per window — a timeline of how
// much shard-level concurrency the run exposed to the parallel backend.
// Requires a trace recorded with Options.EngineEvents.
func ComputePhaseParallelism(events []Event, window des.Time) []PhaseBucket {
	if window <= 0 {
		window = 1e-3
	}
	var out []PhaseBucket
	var cur *PhaseBucket
	seen := map[int]bool{}
	for _, e := range events {
		if e.Kind != charm.KPhaseStart {
			continue
		}
		t0 := des.Time(int64(float64(e.At)/float64(window))) * window
		if cur == nil || t0 > cur.T0 {
			out = append(out, PhaseBucket{T0: t0})
			cur = &out[len(out)-1]
			seen = map[int]bool{}
		}
		cur.Events++
		if !seen[e.PE] {
			seen[e.PE] = true
			cur.Shards++
		}
	}
	return out
}

// WriteSummary renders the Projections text report: run header, usage
// profile, latency histogram, critical path, phase parallelism, and the
// metrics snapshot.
func (t *Tracer) WriteSummary(w io.Writer, topK int) error {
	events := t.Events()
	return writeSummary(w, events, t.Recorded(), t.Dropped(), topK, t)
}

// WriteSummaryEvents renders the same report from a loaded trace file.
func WriteSummaryEvents(w io.Writer, events []Event, topK int) error {
	return writeSummary(w, events, uint64(len(events)), 0, topK, nil)
}

func writeSummary(w io.Writer, events []Event, recorded, dropped uint64, topK int, t *Tracer) error {
	if topK <= 0 {
		topK = 10
	}
	var last des.Time
	for _, e := range events {
		if e.At > last {
			last = e.At
		}
	}
	fmt.Fprintf(w, "=== projections summary ===\n")
	fmt.Fprintf(w, "events: %d recorded, %d dropped, horizon %.6fs\n", recorded, dropped, float64(last))

	prof := Profile(events)
	fmt.Fprintf(w, "\n--- usage profile (top %d of %d entries) ---\n", min(topK, len(prof)), len(prof))
	fmt.Fprintf(w, "%-36s %10s %14s %14s %14s\n", "entry", "calls", "total(s)", "mean(s)", "max(s)")
	for i, s := range prof {
		if i >= topK {
			break
		}
		mean := des.Time(0)
		if s.Calls > 0 {
			mean = s.Time / des.Time(s.Calls)
		}
		fmt.Fprintf(w, "%-36s %10d %14.9f %14.9f %14.9f\n",
			s.Name, s.Calls, float64(s.Time), float64(mean), float64(s.Max))
	}

	lat := MessageLatency(events)
	fmt.Fprintf(w, "\n--- message latency (%d messages, mean %.9fs, max %.9fs) ---\n",
		lat.Count, float64(lat.Mean), float64(lat.Max))
	for _, b := range lat.Buckets {
		label := fmt.Sprintf("< %gs", float64(b.Upper))
		if b.Upper == des.Forever {
			label = ">= last bound"
		}
		fmt.Fprintf(w, "%-16s %d\n", label, b.Count)
	}

	cp := ComputeCriticalPath(events)
	fmt.Fprintf(w, "\n--- critical path ---\n")
	fmt.Fprintf(w, "work %.9fs over %d executions (span %.9fs)\n",
		float64(cp.Work), cp.Hops, float64(cp.Span))
	if len(cp.Entries) > 0 {
		fmt.Fprintf(w, "path:")
		for _, n := range cp.Entries {
			fmt.Fprintf(w, " %s", n)
		}
		fmt.Fprintf(w, "\n")
	}

	if pb := ComputePhaseParallelism(events, 0); len(pb) > 0 {
		maxShards, sum := 0, 0
		for _, b := range pb {
			if b.Shards > maxShards {
				maxShards = b.Shards
			}
			sum += b.Shards
		}
		fmt.Fprintf(w, "\n--- phase parallelism (%d windows, peak %d shards, mean %.2f) ---\n",
			len(pb), maxShards, float64(sum)/float64(len(pb)))
	}

	if t != nil {
		fmt.Fprintf(w, "\n--- metrics ---\n")
		if err := t.Metrics().WriteText(w); err != nil {
			return err
		}
	}
	return nil
}
