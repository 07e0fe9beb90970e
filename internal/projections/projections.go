package projections

import (
	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/projections/metrics"
)

// Options configures a Tracer.
type Options struct {
	// EngineEvents also records the engine's phase-start/commit pipeline
	// events (needed for the phase-parallelism timeline). Off by default:
	// they roughly double the event volume.
	EngineEvents bool
	// SpecEvents also records the optimistic engine's speculation
	// lifecycle (launch/commit/rollback per shard). Off by default: spec
	// events exist only on the optimistic backend, so recording them
	// breaks the byte-identity of a trace against the other backends —
	// they are for studying the Time Warp engine itself. Implies
	// EngineEvents (the sink installation is shared). Within one backend
	// the launch/rollback decisions are driver-deterministic, so traces
	// remain bit-reproducible run to run.
	SpecEvents bool
}

// logCap is the log's capacity in events, whatever the machine's width:
// 1 Mi records of 64 B = 64 MiB, allocated once in Attach.
const logCap = 1 << 20

// Tracer records runtime and engine events into one log, a ring in the
// order they were emitted. It is the runtime's charm.TraceSink and the
// engine's des.TraceSink; both call it only from driver or commit context,
// so the tracer needs no locks and a single monotone ID counter is
// deterministic. A run that emits more than the log holds keeps the newest
// logCap events of the whole run (not of each PE): every reader sees one
// horizon, and a kept receive has lost its send only if the send is older
// than everything kept.
type Tracer struct {
	rt     *charm.Runtime
	log    []Event // event ID sits at log[(ID-1)%cap(log)] while it is kept
	nextID uint64
	opts   Options
}

// Attach installs a tracer on a runtime (and, with EngineEvents, on its
// engine). Attach before Run. Attaching schedules nothing: a traced run
// drains exactly when the untraced one does.
func Attach(rt *charm.Runtime, opts Options) *Tracer {
	t := &Tracer{rt: rt, opts: opts, log: make([]Event, 0, logCap)}
	var engine des.TraceSink
	if opts.EngineEvents || opts.SpecEvents {
		engine = t
	}
	rt.SetTrace(t, engine)
	return t
}

// Detach removes the tracer from the runtime and engine; the recorded
// events remain readable.
func (t *Tracer) Detach() { t.rt.SetTrace(nil, nil) }

// Emit appends one event to the log, over the oldest one once the log is
// full, and returns the ID it assigned.
func (t *Tracer) Emit(e Event) uint64 {
	t.nextID++
	e.ID = t.nextID
	if len(t.log) < cap(t.log) {
		t.log = append(t.log, e)
	} else {
		t.log[(e.ID-1)%uint64(len(t.log))] = e
	}
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

// Phase records one engine pipeline event (PE = shard); the speculation
// kinds only with Options.SpecEvents.
func (t *Tracer) Phase(kind des.PhaseKind, shard int, at des.Time) {
	if kind >= des.SpecLaunch && !t.opts.SpecEvents {
		return
	}
	t.Emit(Event{Kind: phaseKinds[kind], At: at, PE: int32(shard)})
}

// Events returns the kept events in emission order: ascending, contiguous
// IDs ending at Recorded(). Until the log wraps that is the log itself (no
// copy; clipped, so appending to the result cannot write into the log).
func (t *Tracer) Events() []Event {
	n := len(t.log)
	if t.nextID <= uint64(n) {
		return t.log[:n:n]
	}
	oldest := int(t.nextID % uint64(n))
	out := make([]Event, 0, n)
	out = append(out, t.log[oldest:]...)
	return append(out, t.log[:oldest]...)
}

// Dropped returns how many events the log has overwritten.
func (t *Tracer) Dropped() uint64 { return t.nextID - uint64(len(t.log)) }

// Recorded returns how many events were assigned IDs (kept + dropped).
func (t *Tracer) Recorded() uint64 { return t.nextID }

// Names returns the table the traced runtime's ids resolve through.
func (t *Tracer) Names() *charm.Names { return t.rt.Names() }

// Metrics returns the traced runtime's registry.
func (t *Tracer) Metrics() *metrics.Registry { return t.rt.Metrics() }
