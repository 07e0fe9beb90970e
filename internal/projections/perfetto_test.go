package projections

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The schema-shape gate for the Chrome trace-event export: the output must
// be a single JSON object with a traceEvents array whose records carry a
// valid ph, numeric ts, and pid/tid/name as Perfetto's legacy JSON
// importer expects.
func TestPerfettoSchemaShape(t *testing.T) {
	rt := testRuntime(t, 2)
	tr := Attach(rt, Options{EngineEvents: true})
	runEcho(rt, 10)

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, tr.Events(), tr.Names()); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents array")
	}

	validPh := map[string]bool{"X": true, "i": true, "M": true}
	var spans, instants, meta int
	for i, te := range doc.TraceEvents {
		ph, ok := te["ph"].(string)
		if !ok || !validPh[ph] {
			t.Fatalf("record %d: bad ph %v", i, te["ph"])
		}
		name, ok := te["name"].(string)
		if !ok || name == "" {
			t.Fatalf("record %d: missing name", i)
		}
		if _, ok := te["pid"].(float64); !ok {
			t.Fatalf("record %d: missing numeric pid", i)
		}
		if _, ok := te["tid"].(float64); !ok {
			t.Fatalf("record %d: missing numeric tid", i)
		}
		switch ph {
		case "M":
			meta++
			if name != "process_name" && name != "thread_name" {
				t.Fatalf("record %d: unknown metadata %q", i, name)
			}
		case "X":
			spans++
			ts, ok := te["ts"].(float64)
			if !ok || ts < 0 {
				t.Fatalf("record %d: span with bad ts %v", i, te["ts"])
			}
			if d, ok := te["dur"].(float64); !ok || d < 0 {
				t.Fatalf("record %d: span with bad dur %v", i, te["dur"])
			}
		case "i":
			instants++
			if _, ok := te["ts"].(float64); !ok {
				t.Fatalf("record %d: instant with bad ts %v", i, te["ts"])
			}
			if s, ok := te["s"].(string); !ok || (s != "g" && s != "p" && s != "t") {
				t.Fatalf("record %d: instant with bad scope %v", i, te["s"])
			}
		}
	}
	if meta == 0 || spans == 0 || instants == 0 {
		t.Fatalf("want metadata+spans+instants, got %d/%d/%d", meta, spans, instants)
	}
	// 11 entry executions -> 11 X spans.
	if spans != 11 {
		t.Errorf("got %d spans, want 11 (one per entry execution)", spans)
	}
	// Spans must be named array.entry.
	for _, te := range doc.TraceEvents {
		if te["ph"] == "X" && te["name"] != "echo.ping" {
			t.Errorf("span named %v, want echo.ping", te["name"])
		}
	}
}
