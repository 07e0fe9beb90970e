package charm

import (
	"fmt"

	"charmgo/internal/des"
	"charmgo/internal/projections/metrics"
)

// Kind classifies one trace event.
type Kind uint8

const (
	// KMsgSend: PE = source, A = destination PE, B = bytes, Ref = the send
	// that triggered the sending execution (0 for driver/boot sends).
	KMsgSend Kind = iota + 1
	// KMsgRecv: a traced message entering PE's scheduler queue. Ref = the
	// send's ID, A = hops.
	KMsgRecv
	// KEntryBegin / KEntryEnd bracket one entry-method execution:
	// Arr/Entry/Idx name it (Arr and Idx are empty for PE-level handlers,
	// whose name is in Entry), Ref is the triggering send's ID.
	KEntryBegin
	KEntryEnd
	// KMigration: Arr/Idx name the element, PE = A = from PE, B = to PE.
	KMigration
	// KLBStart: A = round, B = objects. KLBDecision: Entry = strategy,
	// A = proposed migrations. KLBDone: A = round, B = moved, Dur = span.
	KLBStart
	KLBDecision
	KLBDone
	// KCheckpoint: Entry = a CheckpointKind, A = bytes.
	KCheckpoint
	// KTramBuffer: A = buffer depth after the append.
	// KTramFlush: A = items in the batch, B = 1 for a timed flush.
	KTramBuffer
	KTramFlush
	// KPhaseStart / KPhaseCommit are engine pipeline events: PE = shard.
	KPhaseStart
	KPhaseCommit
	// KFault: Entry = a FaultKind, PE = affected PE (-1 machine-wide).
	KFault
	// KSpecLaunch / KSpecCommit / KSpecRollback are Time Warp speculation
	// lifecycle events from the optimistic engine: PE = shard, At = the
	// speculated event's timestamp. They exist on no other backend, so they
	// are excluded from the cross-backend byte-identity contract.
	KSpecLaunch
	KSpecCommit
	KSpecRollback
)

var kindNames = [...]string{
	KMsgSend:      "send",
	KMsgRecv:      "recv",
	KEntryBegin:   "begin",
	KEntryEnd:     "end",
	KMigration:    "migrate",
	KLBStart:      "lb-start",
	KLBDecision:   "lb-decision",
	KLBDone:       "lb-done",
	KCheckpoint:   "checkpoint",
	KTramBuffer:   "tram-buffer",
	KTramFlush:    "tram-flush",
	KPhaseStart:   "phase-start",
	KPhaseCommit:  "phase-commit",
	KFault:        "fault",
	KSpecLaunch:   "spec-launch",
	KSpecCommit:   "spec-commit",
	KSpecRollback: "spec-rollback",
}

// String returns the kind's log token.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", k)
}

// FaultKind is the Entry of a KFault event.
type FaultKind string

// The fault-injection and recovery events the runtime and internal/chaos
// emit. (An injected delay spike is not one: it only lengthens a send's
// KMsgSend→KMsgRecv gap.)
const (
	FaultCrash     FaultKind = "crash"
	FaultDrop      FaultKind = "drop" // PE = the lost message's destination
	FaultStraggler FaultKind = "straggler"
	FaultWarn      FaultKind = "warn"     // a predicted failure announced
	FaultEvacuate  FaultKind = "evacuate" // a warned PE emptied ahead of its crash
	FaultReplace   FaultKind = "replace"  // an absorbed crash's PE rebooted in place
	FaultDetect    FaultKind = "detect"
	FaultRollback  FaultKind = "rollback" // PE = -1
	FaultRecover   FaultKind = "recover"
)

// CheckpointKind is the Entry of a KCheckpoint event.
type CheckpointKind string

const (
	CheckpointCapture CheckpointKind = "capture"
	CheckpointRestore CheckpointKind = "restore"
)

// Event is one record of the trace. The recorder assigns IDs from a single
// monotone counter in emission order and keeps its log in that order, so a
// trace read front to back is the exact global order of the run, its IDs
// ascending without a gap. All timestamps are virtual.
type Event struct {
	ID    uint64   `json:"id"`
	Kind  Kind     `json:"k"`
	At    des.Time `json:"t"`
	PE    int      `json:"pe"`            // -1 for driver-context events
	Ref   uint64   `json:"ref,omitempty"` // causal link (see Kind docs)
	Arr   string   `json:"arr,omitempty"` // chare array name
	Entry string   `json:"ep,omitempty"`  // entry/handler/strategy/sub-kind name
	Idx   string   `json:"idx,omitempty"` // element index, rendered
	A     int64    `json:"a,omitempty"`   // kind-specific
	B     int64    `json:"b,omitempty"`   // kind-specific
	Dur   des.Time `json:"dur,omitempty"` // kind-specific span
}

// Name renders the event's subject: "array.entry" for entry events, the
// bare entry/kind token otherwise.
func (e Event) Name() string {
	if e.Arr != "" {
		return e.Arr + "." + e.Entry
	}
	if e.Entry != "" {
		return e.Entry
	}
	return e.Kind.String()
}

// TraceSink is the runtime-side virtual-time tracing interface: the runtime
// and the libraries on it (TRAM, checkpointing, chaos) fill an Event at
// every traceable action and hand it to the installed recorder
// (internal/projections), which assigns and returns its ID — the runtime
// stamps a KMsgSend's ID on the message to link the KMsgRecv and
// KEntryBegin it causes. The nil sink is the fast path: every emission site
// is guarded by one pointer check and builds nothing when it fails. The
// record travels by value because a pointer passed through an interface
// escapes, which would cost an allocation per event.
//
// Context rule: every Emit happens in driver, commit, or global-event
// context — never in a concurrently executing handler phase (handlers
// Ctx.Defer theirs) — and at positions that coincide on every backend. A
// recorder that logs calls in arrival order therefore produces
// bit-identical traces on all of them.
type TraceSink interface {
	Emit(e Event) uint64
}

// SetTrace installs (or, with nils, removes) a recorder: sink receives the
// runtime's events, engine the event engine's phase pipeline (nil to leave
// those out). Install before Run; swapping recorders mid-run is allowed but
// the new recorder sees causes minted by the old one.
func (rt *Runtime) SetTrace(sink TraceSink, engine des.TraceSink) {
	rt.trace = sink
	rt.eng.(interface{ SetTraceSink(des.TraceSink) }).SetTraceSink(engine)
}

// Trace returns the installed recorder, or nil. Libraries outside the
// runtime emit their events through it.
func (rt *Runtime) Trace() TraceSink { return rt.trace }

// Metrics returns the runtime's named-metric registry. Subsystems register
// counters and gauges into it; exporters read it uniformly. Mutate metrics
// only from driver or commit context (Ctx.Defer from a handler).
func (rt *Runtime) Metrics() *metrics.Registry { return rt.metrics }

// registerRuntimeMetrics exposes the RuntimeStats counters and engine
// figures through the registry without mirroring writes.
func (rt *Runtime) registerRuntimeMetrics() {
	reg := rt.metrics
	reg.GaugeFunc("rts.msgs_sent", func() float64 { return float64(rt.Stats.MsgsSent) })
	reg.GaugeFunc("rts.bytes_sent", func() float64 { return float64(rt.Stats.BytesSent) })
	reg.GaugeFunc("rts.msgs_forwarded", func() float64 { return float64(rt.Stats.MsgsForwarded) })
	reg.GaugeFunc("rts.msgs_delivered", func() float64 { return float64(rt.Stats.MsgsDelivered) })
	reg.GaugeFunc("rts.migrations", func() float64 { return float64(rt.Stats.Migrations) })
	reg.GaugeFunc("rts.lb_invocations", func() float64 { return float64(rt.Stats.LBInvocations) })
	reg.GaugeFunc("rts.qd_rounds", func() float64 { return float64(rt.Stats.QDRounds) })
	reg.GaugeFunc("rts.entry_time_s", func() float64 { return float64(rt.Stats.EntryTime) })
	reg.GaugeFunc("rts.msgs_dropped", func() float64 { return float64(rt.Stats.MsgsDropped) })
	reg.GaugeFunc("rts.msgs_discarded", func() float64 { return float64(rt.Stats.MsgsDiscarded) })
	reg.GaugeFunc("rts.events_executed", func() float64 { return float64(rt.eng.Executed()) })
	reg.GaugeFunc("rts.active_pes", func() float64 { return float64(rt.activePEs) })
}
