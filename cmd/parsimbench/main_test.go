package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// runCLI drives the command the way main does.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSmokeComparison: one row per backend, every row the same result, and
// the deterministic counters present and the same at 1 worker as at 8.
func TestSmokeComparison(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	rowsAt := func(workers string) []row {
		code, stdout, stderr := runCLI("-smoke", "-backend", "optimistic", "-workers", workers)
		if code != 0 {
			t.Fatalf("-workers %s: exit %d, stderr:\n%s", workers, code, stderr)
		}
		var rows []row
		if err := json.Unmarshal([]byte(stdout), &rows); err != nil {
			t.Fatalf("stdout is not a JSON list of rows: %v\n%s", err, stdout)
		}
		return rows
	}
	rows := rowsAt("8")
	if runtime.GOMAXPROCS(0) != procs {
		t.Errorf("run left GOMAXPROCS at %d, found it at %d", runtime.GOMAXPROCS(0), procs)
	}
	var backends []string
	for _, r := range rows {
		backends = append(backends, r.Backend)
		if r.Summary != rows[0].Summary || r.Events == 0 || r.Events != rows[0].Events {
			t.Errorf("%s: %d events, summary %q; sequential: %q", r.Backend, r.Events, r.Summary, rows[0].Summary)
		}
		if r.GOMAXPROCS != 8 {
			t.Errorf("%s: reports gomaxprocs %d, ran with 8", r.Backend, r.GOMAXPROCS)
		}
	}
	if got := strings.Join(backends, " "); got != "sequential parallel optimistic" {
		t.Fatalf("rows for backends %q, want sequential parallel optimistic", got)
	}
	seq, par, opt := rows[0], rows[1], rows[2]
	if seq.Engine != nil || seq.Saves != nil || par.Saves != nil {
		t.Errorf("sequential row carries engine counters, or a conservative one saves: %+v %+v", seq, par)
	}
	if par.Engine == nil || par.Engine.Launched == 0 || par.Engine.Inline == 0 {
		t.Errorf("parallel row has no launch counters: %+v", par.Engine)
	}
	if opt.Engine == nil || opt.Engine.RolledBack == 0 || opt.Saves == nil || opt.Saves.Snapshots == 0 || opt.Saves.Replays == 0 {
		t.Errorf("optimistic row has no speculation or saving counters: %+v %+v", opt.Engine, opt.Saves)
	}

	for i, r := range rowsAt("1") {
		if r.GOMAXPROCS != 1 {
			t.Errorf("%s: reports gomaxprocs %d, ran with 1", r.Backend, r.GOMAXPROCS)
		}
		if r.Engine != nil && (*r.Engine != *rows[i].Engine) || r.Saves != nil && (*r.Saves != *rows[i].Saves) {
			t.Errorf("%s: counters differ between 1 and 8 workers:\n  1: %+v %+v\n  8: %+v %+v",
				r.Backend, r.Engine, r.Saves, rows[i].Engine, rows[i].Saves)
		}
	}
}

// TestDivergenceIsAnError: rows that disagree about the result are exit 1
// and no report, decided where the rows are compared.
func TestDivergenceIsAnError(t *testing.T) {
	rows := []row{
		{Backend: "sequential", Summary: "events=10 committed=4"},
		{Backend: "optimistic", SnapInterval: 4, Summary: "events=10 committed=5"},
	}
	var out, errb bytes.Buffer
	if code := emit(rows, &out, &errb); code != 1 {
		t.Errorf("exit %d for diverging rows, want 1", code)
	}
	if out.Len() != 0 {
		t.Errorf("a report was printed for diverging rows:\n%s", out.String())
	}
	for _, want := range []string{"divergence", "committed=4", "optimistic (snap interval 4)", "committed=5"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, errb.String())
		}
	}
	rows[1].Summary = rows[0].Summary
	if code := emit(rows, &out, &errb); code != 0 || out.Len() == 0 {
		t.Errorf("agreeing rows: exit %d, %d bytes of report", code, out.Len())
	}
}

// TestUsageErrors: a value outside its range is exit 2 with the accepted
// values on stderr, before anything runs.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-backend", "optimistic", "-snap-interval", "-3"}, "want 0 = adaptive, 1 = eager, or K >= 2"},
		{[]string{"-backend", "heap"}, "want sequential, parallel"},
		{[]string{"-workers", "-1"}, "want 0 = GOMAXPROCS as it is, or N >= 1"},
		{[]string{"-backend", "parallel"}, "no comparison of its own"},
		{[]string{"-snap-sweep"}, "apply to -backend optimistic only"},
		{[]string{"-snap-interval", "4"}, "apply to -backend optimistic only"},
	}
	for _, c := range cases {
		code, stdout, stderr := runCLI(append(c.args, "-smoke")...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no report, stderr containing %q",
				c.args, code, stdout, stderr, c.want)
		}
	}
}
