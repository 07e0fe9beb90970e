package charm

import (
	"fmt"
	"math"

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
	// Arr/Entry/Idx name it (Arr and Idx are 0 for PE-level handlers,
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

// FaultKind is the name a KFault event's Entry stands for.
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

// CheckpointKind is the name a KCheckpoint event's Entry stands for.
type CheckpointKind string

const (
	CheckpointCapture CheckpointKind = "capture"
	CheckpointRestore CheckpointKind = "restore"
)

// Event is one record of the trace. The recorder assigns IDs from a single
// monotone counter in emission order and keeps its log in that order, so a
// trace read front to back is the exact global order of the run, its IDs
// ascending without a gap. All timestamps are virtual.
//
// The record is 64 bytes and holds no pointer: its names are ids into the
// trace's Names table, so a log of them is memory the collector never scans.
type Event struct {
	ID    uint64
	At    des.Time
	Ref   uint64   // causal link (see Kind docs)
	A     int64    // kind-specific
	B     int64    // kind-specific
	Dur   des.Time // kind-specific span
	PE    int32    // -1 for driver-context events
	Arr   uint16   // chare array name
	Kind  Kind
	Entry uint32 // entry/handler/strategy/sub-kind name
	Idx   uint32 // element index, rendered
}

// MaxArrays is how many array names a record's Arr id tells apart.
const MaxArrays = math.MaxUint16

// ArrayLimitError is what Names.AddArray returns, and DeclareArray panics
// with, for an array past the MaxArrays a trace can name.
type ArrayLimitError struct{ Name string }

func (e *ArrayLimitError) Error() string {
	return fmt.Sprintf("charm: array %q: a trace names at most %d arrays", e.Name, MaxArrays)
}

// Names is a trace's name table: the strings its records' Arr, Entry and Idx
// ids stand for, id 0 being the empty name. A runtime owns one (Runtime.Names)
// and is its one writer, in declaration, commit and driver context, so an
// emitter never looks a name up: array and entry names are minted at
// declaration, an element's index at its first traced event, and only the
// rare names — fault and checkpoint sub-kinds, the LB strategy — go through
// Intern's map. Consumers resolve ids through the table; a nil table
// resolves every id to the empty name.
type Names struct {
	arrs []string          // array id-1 → name
	strs []string          // entry or index id-1 → name
	ids  map[string]uint32 // Intern's index into strs
}

// Array returns the name array id a stands for.
func (n *Names) Array(a uint16) string {
	if n == nil || a == 0 {
		return ""
	}
	return n.arrs[a-1]
}

// Name returns the entry or index name id stands for.
func (n *Names) Name(id uint32) string {
	if n == nil || id == 0 {
		return ""
	}
	return n.strs[id-1]
}

// Subject renders e's subject: "array.entry" for an element's entry
// events, the bare entry or sub-kind name otherwise, else the kind's token.
func (n *Names) Subject(e Event) string {
	if e.Arr != 0 {
		return n.Array(e.Arr) + "." + n.Name(e.Entry)
	}
	if e.Entry != 0 {
		return n.Name(e.Entry)
	}
	return e.Kind.String()
}

// AddArray mints the next array id for name ("" is 0), or fails past
// MaxArrays rather than wrap.
func (n *Names) AddArray(name string) (uint16, error) {
	if name == "" {
		return 0, nil
	}
	if len(n.arrs) == MaxArrays {
		return 0, &ArrayLimitError{Name: name}
	}
	n.arrs = append(n.arrs, name)
	return uint16(len(n.arrs)), nil
}

// Intern returns the id of entry or sub-kind name s ("" is 0), minting it
// on first use.
func (n *Names) Intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := n.ids[s]; ok {
		return id
	}
	if n.ids == nil {
		n.ids = map[string]uint32{}
	}
	id := n.add(s)
	n.ids[s] = id
	return id
}

// add mints an id for s without looking it up: one per element index.
func (n *Names) add(s string) uint32 {
	n.strs = append(n.strs, s)
	return uint32(len(n.strs))
}

// Names returns the runtime's trace name table.
func (rt *Runtime) Names() *Names { return &rt.names }

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
