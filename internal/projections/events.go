// Package projections implements the Projections-style tracing and
// analysis layer: a deterministic event log of everything the RTS does —
// entry-method executions, message sends and receives linked by causal
// event IDs, migrations, load-balancing rounds, checkpoints, TRAM
// aggregation, and the parallel engine's phase pipeline — plus the
// analyses (usage profile, message-latency histogram, critical path,
// phase-parallelism timeline) and exporters (Chrome trace-event JSON for
// Perfetto, text summary, CCS live queries) built on it.
//
// All timestamps are virtual (des.Time); the recorder never consults the
// wall clock or iterates a map, so a traced run is bit-for-bit
// reproducible and the log of a sequential run is byte-identical to the
// log of the same run on the parallel backend.
package projections

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"charmgo/internal/charm"
	"charmgo/internal/des"
)

// Event is one record of the trace; it is declared beside its emitters
// (charm.Event, with its Kinds).
type Event = charm.Event

// logLine is one record as the log spells it: its ids resolved to names,
// under the log's JSON keys in the log's order.
type logLine struct {
	ID    uint64     `json:"id"`
	Kind  charm.Kind `json:"k"`
	At    des.Time   `json:"t"`
	PE    int32      `json:"pe"`
	Ref   uint64     `json:"ref,omitempty"`
	Arr   string     `json:"arr,omitempty"`
	Entry string     `json:"ep,omitempty"`
	Idx   string     `json:"idx,omitempty"`
	A     int64      `json:"a,omitempty"`
	B     int64      `json:"b,omitempty"`
	Dur   des.Time   `json:"dur,omitempty"`
}

// WriteLog writes events as JSON lines, their ids resolved through names —
// the trace's canonical on-disk form. Two runs are equivalent exactly when
// their WriteLog bytes match.
func WriteLog(w io.Writer, events []Event, names *charm.Names) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		line := logLine{ID: e.ID, Kind: e.Kind, At: e.At, PE: e.PE, Ref: e.Ref,
			Arr: names.Array(e.Arr), Entry: names.Name(e.Entry), Idx: names.Name(e.Idx),
			A: e.A, B: e.B, Dur: e.Dur}
		if err := enc.Encode(&line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLog parses a JSON-lines trace written by WriteLog, interning its names
// into a fresh table: the ids differ from the writer's, the names do not.
func ReadLog(r io.Reader) ([]Event, *charm.Names, error) {
	var out []Event
	names := &charm.Names{}
	arrs := map[string]uint16{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var line logLine
		if err := json.Unmarshal(text, &line); err != nil {
			return nil, nil, fmt.Errorf("projections: bad trace line %q: %w", text, err)
		}
		arr, ok := arrs[line.Arr]
		if !ok {
			var err error
			if arr, err = names.AddArray(line.Arr); err != nil {
				return nil, nil, fmt.Errorf("projections: trace line %q: %w", text, err)
			}
			arrs[line.Arr] = arr
		}
		out = append(out, Event{ID: line.ID, Kind: line.Kind, At: line.At, PE: line.PE, Ref: line.Ref,
			Arr: arr, Entry: names.Intern(line.Entry), Idx: names.Intern(line.Idx),
			A: line.A, B: line.B, Dur: line.Dur})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return out, names, nil
}
