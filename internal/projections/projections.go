package projections

import (
	"sort"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/projections/metrics"
)

// Options configures a Tracer.
type Options struct {
	// RingCap bounds each per-PE event ring; the oldest events are
	// dropped when a ring overflows (the drop count is reported by
	// Dropped). Default 1<<15 events per ring.
	RingCap int
	// EngineEvents also records the engine's phase-start/commit pipeline
	// events (needed for the phase-parallelism timeline). Off by default:
	// they roughly double the event volume.
	EngineEvents bool
	// SpecEvents also records the optimistic engine's speculation
	// lifecycle (launch/commit/rollback per shard). Off by default: spec
	// events exist only on the optimistic backend, so recording them
	// breaks the byte-identity of a trace against the other backends —
	// they are for studying the Time Warp engine itself. Requires
	// EngineEvents (the sink installation is shared). Within one backend
	// the launch/rollback decisions are driver-deterministic, so traces
	// remain bit-reproducible run to run.
	SpecEvents bool
}

// ring is a bounded circular event buffer.
type ring struct {
	buf     []Event
	next    int // write cursor
	full    bool
	dropped uint64
}

func (r *ring) add(e Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		return
	}
	// Overwrite the oldest event.
	r.full = true
	r.dropped++
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
}

// events returns the ring's contents oldest-first.
func (r *ring) events() []Event {
	if !r.full {
		return r.buf
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Tracer records runtime and engine events into per-PE rings. It is the
// runtime's charm.TraceSink and the engine's des.TraceSink; both call it
// only from driver or commit context, so the tracer needs no locks and a
// single monotone ID counter is deterministic.
type Tracer struct {
	rt     *charm.Runtime
	rings  []ring // one per physical PE, plus one driver ring at the end
	nextID uint64
	opts   Options
}

// Attach installs a tracer on a runtime (and, with EngineEvents, on its
// engine). Attach before Run. Attaching schedules nothing: a traced run
// drains exactly when the untraced one does.
func Attach(rt *charm.Runtime, opts Options) *Tracer {
	if opts.RingCap == 0 {
		opts.RingCap = 1 << 15
	}
	t := &Tracer{rt: rt, opts: opts}
	t.rings = make([]ring, rt.MaxPEs()+1)
	for i := range t.rings {
		t.rings[i].buf = make([]Event, 0, opts.RingCap)
	}
	var engine des.TraceSink
	if opts.EngineEvents {
		engine = t
	}
	rt.SetTrace(t, engine)
	return t
}

// Detach removes the tracer from the runtime and engine; the recorded
// events remain readable.
func (t *Tracer) Detach() { t.rt.SetTrace(nil, nil) }

// Emit records one event — in its PE's ring, or the driver ring when it has
// no PE affinity — and returns the ID it assigned.
func (t *Tracer) Emit(e Event) uint64 {
	t.nextID++
	e.ID = t.nextID
	r := len(t.rings) - 1
	if e.PE >= 0 && e.PE < r {
		r = e.PE
	}
	t.rings[r].add(e)
	return e.ID
}

// phaseKinds maps the engine's pipeline points onto trace kinds.
var phaseKinds = [...]charm.Kind{
	des.PhaseStart:   charm.KPhaseStart,
	des.PhaseDone:    charm.KPhaseCommit,
	des.SpecLaunch:   charm.KSpecLaunch,
	des.SpecCommit:   charm.KSpecCommit,
	des.SpecRollback: charm.KSpecRollback,
}

// Phase records one engine pipeline event alongside the PEs' (a shard is a
// node, so shard ids never exceed the PE count); the speculation kinds only
// with Options.SpecEvents.
func (t *Tracer) Phase(kind des.PhaseKind, shard int, at des.Time) {
	if kind >= des.SpecLaunch && !t.opts.SpecEvents {
		return
	}
	t.Emit(Event{Kind: phaseKinds[kind], At: at, PE: shard})
}

// Events returns every recorded event in global emission order (by ID).
func (t *Tracer) Events() []Event {
	var out []Event
	for i := range t.rings {
		out = append(out, t.rings[i].events()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Dropped returns how many events ring overflow discarded.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	for i := range t.rings {
		n += t.rings[i].dropped
	}
	return n
}

// Recorded returns how many events were assigned IDs (kept + dropped).
func (t *Tracer) Recorded() uint64 { return t.nextID }

// Metrics returns the traced runtime's registry.
func (t *Tracer) Metrics() *metrics.Registry { return t.rt.Metrics() }
