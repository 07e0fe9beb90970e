package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors drives the command the way main does: a bad flag exits 2
// with a message on stderr, before anything runs.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		stderrHas string
	}{
		{"negative pes", []string{"-pes", "-3"}, "-pes -3 out of range"},
		{"zero lps", []string{"-lps", "0"}, "-lps 0 out of range"},
		{"negative events", []string{"-events", "-1"}, "-events -1 out of range"},
		{"zero events", []string{"-events", "0"}, "-events 0 out of range"},
		{"negative target", []string{"-target", "-5"}, "-target -5 out of range"},
		{"unknown flag", []string{"-nosuch"}, "flag provided but not defined: -nosuch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("a usage error printed %q", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderrHas)
			}
		})
	}
}

// A small run reports its population and what it committed.
func TestSmallRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-pes", "2", "-lps", "4", "-events", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"LPs: 8   initial events/LP: 2", "committed events: "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output does not contain %q:\n%s", want, stdout.String())
		}
	}
}
