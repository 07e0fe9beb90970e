package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes drives the command the way main does: usage and load errors
// exit 2 with a message on stderr, and a clean package exits 0 printing no
// findings (an empty JSON array under -json).
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		code      int
		stdout    string // exact
		stderrHas string
	}{
		{"unknown analyzer", []string{"-analyzers", "dettaint,nosuch", "charmgo/internal/pup"}, 2, "", `unknown analyzer "nosuch"`},
		{"folded analyzer", []string{"-analyzers", "specstate", "charmgo/internal/pup"}, 2, "", `unknown analyzer "specstate"`},
		{"unknown flag", []string{"-nosuch", "charmgo/internal/pup"}, 2, "", "flag provided but not defined: -nosuch"},
		{"baseline flag", []string{"-baseline", "charmvet.baseline", "charmgo/internal/pup"}, 2, "", "flag provided but not defined: -baseline"},
		{"update-baseline flag", []string{"-update-baseline", "charmgo/internal/pup"}, 2, "", "flag provided but not defined: -update-baseline"},
		{"unloadable pattern", []string{"charmgo/internal/nosuchpkg"}, 2, "", "charmgo/internal/nosuchpkg"},
		{"clean package", []string{"charmgo/internal/pup"}, 0, "", ""},
		{"clean package, one analyzer", []string{"-analyzers", "phasepure", "-why", "charmgo/internal/pup"}, 0, "", ""},
		{"clean package, json", []string{"-json", "charmgo/internal/pup"}, 0, "[]\n", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if stdout.String() != tc.stdout {
				t.Errorf("stdout %q, want %q", stdout.String(), tc.stdout)
			}
			if tc.code != 0 && !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.stderrHas)
			}
			if tc.code == 0 && stderr.Len() != 0 {
				t.Errorf("clean run wrote to stderr: %q", stderr.String())
			}
		})
	}
}
