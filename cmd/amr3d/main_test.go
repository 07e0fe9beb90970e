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
		{"zero pes", []string{"-pes", "0"}, "-pes 0 out of range"},
		{"negative steps", []string{"-steps", "-2"}, "-steps -2 out of range"},
		{"zero block", []string{"-block", "0"}, "-block 0 out of range"},
		{"negative remesh", []string{"-remesh", "-1"}, "-remesh -1 out of range"},
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
