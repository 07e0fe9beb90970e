package projections

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"charmgo/internal/charm"
	"charmgo/internal/des"
)

// The Chrome trace-event format (Perfetto's legacy JSON input): a
// traceEvents array of phase records. We emit one process per event
// domain — pid 0 holds one thread ("track") per virtual PE with complete
// ("X") spans for entry executions and instant ("i") markers for
// migrations and TRAM activity; pid 1 holds the driver's LB/checkpoint
// markers; pid 2 holds one track per engine shard with phase pipeline
// markers. Timestamps are virtual microseconds.

const (
	pidPEs    = 0
	pidDriver = 1
	pidEngine = 2
)

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Name string         `json:"name"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

func us(t des.Time) float64 { return float64(t) * 1e6 }

// WritePerfetto renders a trace as Chrome trace-event JSON loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing, its ids resolved through
// names (see Profile).
func WritePerfetto(w io.Writer, events []Event, names ...*charm.Names) error {
	tab := table(names)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(te traceEvent) error {
		if !first {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(te) // Encode appends the newline separator
	}

	// Metadata: name the processes and the PE/shard tracks that appear.
	if err := emit(traceEvent{Ph: "M", Pid: pidPEs, Name: "process_name",
		Args: map[string]any{"name": "virtual PEs"}}); err != nil {
		return err
	}
	if err := emit(traceEvent{Ph: "M", Pid: pidDriver, Name: "process_name",
		Args: map[string]any{"name": "RTS driver"}}); err != nil {
		return err
	}
	seenPE := map[int32]bool{}
	seenShard := map[int32]bool{}
	namedEngine := false
	for _, e := range events {
		switch e.Kind {
		case charm.KPhaseStart, charm.KPhaseCommit:
			if !namedEngine {
				namedEngine = true
				if err := emit(traceEvent{Ph: "M", Pid: pidEngine, Name: "process_name",
					Args: map[string]any{"name": "engine shards"}}); err != nil {
					return err
				}
			}
			if !seenShard[e.PE] {
				seenShard[e.PE] = true
				if err := emit(traceEvent{Ph: "M", Pid: pidEngine, Tid: e.PE, Name: "thread_name",
					Args: map[string]any{"name": fmt.Sprintf("shard %d", e.PE)}}); err != nil {
					return err
				}
			}
		default:
			if e.PE >= 0 && !seenPE[e.PE] {
				seenPE[e.PE] = true
				if err := emit(traceEvent{Ph: "M", Pid: pidPEs, Tid: e.PE, Name: "thread_name",
					Args: map[string]any{"name": fmt.Sprintf("PE %d", e.PE)}}); err != nil {
					return err
				}
			}
		}
	}

	// Body: pair begins with ends per PE, render the rest directly.
	open := openEntries[Event]{}
	for _, e := range events {
		var te traceEvent
		switch e.Kind {
		case charm.KEntryBegin:
			open.push(e.PE, e)
			continue
		case charm.KEntryEnd:
			b, ok := open.pop(e.PE)
			if !ok {
				continue
			}
			dur := us(e.At - b.At)
			te = traceEvent{Ph: "X", Pid: pidPEs, Tid: e.PE, Ts: us(b.At), Dur: &dur,
				Name: tab.Subject(b), Args: map[string]any{"cause": b.Ref}}
			if idx := tab.Name(b.Idx); idx != "" {
				te.Args["idx"] = idx
			}
		case charm.KMigration:
			te = traceEvent{Ph: "i", Pid: pidPEs, Tid: e.PE, Ts: us(e.At), S: "p",
				Name: fmt.Sprintf("migrate %s%s -> PE %d", tab.Array(e.Arr), tab.Name(e.Idx), e.B)}
		case charm.KTramFlush:
			kind := "full"
			if e.B != 0 {
				kind = "timed"
			}
			te = traceEvent{Ph: "i", Pid: pidPEs, Tid: e.PE, Ts: us(e.At), S: "t",
				Name: fmt.Sprintf("tram flush (%d items, %s)", e.A, kind)}
		case charm.KLBStart:
			te = traceEvent{Ph: "i", Pid: pidDriver, Ts: us(e.At), S: "g",
				Name: fmt.Sprintf("LB round %d start (%d objs)", e.A, e.B)}
		case charm.KLBDecision:
			te = traceEvent{Ph: "i", Pid: pidDriver, Ts: us(e.At), S: "g",
				Name: fmt.Sprintf("LB decision %s (%d migrations)", tab.Name(e.Entry), e.A)}
		case charm.KLBDone:
			te = traceEvent{Ph: "i", Pid: pidDriver, Ts: us(e.At), S: "g",
				Name: fmt.Sprintf("LB round %d done (%d moved)", e.A, e.B)}
		case charm.KCheckpoint:
			te = traceEvent{Ph: "i", Pid: pidDriver, Ts: us(e.At), S: "g",
				Name: fmt.Sprintf("checkpoint %s (%d bytes)", tab.Name(e.Entry), e.A)}
		case charm.KFault:
			if e.PE >= 0 {
				te = traceEvent{Ph: "i", Pid: pidPEs, Tid: e.PE, Ts: us(e.At), S: "p",
					Name: fmt.Sprintf("fault: %s PE %d", tab.Name(e.Entry), e.PE)}
			} else {
				te = traceEvent{Ph: "i", Pid: pidDriver, Ts: us(e.At), S: "g",
					Name: "fault: " + tab.Name(e.Entry)}
			}
		case charm.KPhaseStart:
			te = traceEvent{Ph: "i", Pid: pidEngine, Tid: e.PE, Ts: us(e.At), S: "t",
				Name: "phase"}
		default:
			// Sends, receives, buffer appends, and phase commits add bulk
			// without adding a visual; causality is in the span args.
			continue
		}
		if err := emit(te); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
