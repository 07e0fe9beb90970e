package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors drives the command the way main does: a bad flag exits 2
// with a message on stderr, before anything runs or is written.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		stderrHas string
	}{
		{"negative pes", []string{"-pes", "-3"}, "-pes -3 out of range"},
		{"zero pes", []string{"-pes", "0"}, "-pes 0 out of range"},
		{"zero scale", []string{"-scale", "0"}, "-scale 0 out of range"},
		{"negative top", []string{"-top", "-1"}, "-top -1 out of range"},
		{"zero top", []string{"-top", "0", "-in", "run.log"}, "-top 0 out of range"},
		{"unknown app", []string{"-app", "stencil"}, `unknown app "stencil"`},
		{"unknown backend", []string{"-backend", "heap"}, "heap"},
		{"unknown flag", []string{"-nosuch"}, "flag provided but not defined: -nosuch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.json")
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, "-perfetto", out), &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("a usage error printed %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderrHas)
			}
			if matches, _ := filepath.Glob(filepath.Join(filepath.Dir(out), "*")); len(matches) != 0 {
				t.Errorf("a usage error wrote %v", matches)
			}
		})
	}
}

// A saved log analyzes to the summary of the run that wrote it: ReadLog's
// fresh name table renders every name the runtime's did. The direct run's
// report goes on with the runtime's metrics, which a log does not hold.
func TestLogRoundTripSummary(t *testing.T) {
	for _, app := range []string{"leanmd", "pdes"} {
		t.Run(app, func(t *testing.T) {
			log := filepath.Join(t.TempDir(), app+".log")
			var direct, loaded, stderr bytes.Buffer
			if code := run([]string{"-app", app, "-log", log}, &direct, &stderr); code != 0 {
				t.Fatalf("-app %s -log: exit %d: %s", app, code, stderr.String())
			}
			if code := run([]string{"-in", log}, &loaded, &stderr); code != 0 {
				t.Fatalf("-in: exit %d: %s", code, stderr.String())
			}
			want, _, ok := strings.Cut(direct.String(), "\n--- metrics ---\n")
			if !ok {
				t.Fatalf("the direct run printed no metrics section:\n%s", direct.String())
			}
			if got := loaded.String(); got != want {
				t.Errorf("-in summary differs from the direct run's:\n--- direct\n%s\n--- -in\n%s", want, got)
			}
		})
	}
}
