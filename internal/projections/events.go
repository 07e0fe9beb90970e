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
)

// Event is one record of the trace; it is declared beside its emitters
// (charm.Event, with its Kinds).
type Event = charm.Event

// WriteLog writes events as JSON lines — the trace's canonical on-disk
// form. Two runs are equivalent exactly when their WriteLog bytes match.
func WriteLog(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLog parses a JSON-lines trace written by WriteLog.
func ReadLog(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("projections: bad trace line %q: %w", line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
