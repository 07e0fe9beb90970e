package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors drives the command the way main does: a bad flag or
// argument exits 2 with a message on stderr, before anything runs or is
// written.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		stderrHas string
	}{
		{"degree too large", []string{"-app", "leanmd", "-R", "99"}, "replication degree 99 out of range"},
		{"negative degree", []string{"-R", "-2"}, "replication degree -2 out of range"},
		{"negative crashes", []string{"-crashes", "-1"}, "-1 crashes out of range"},
		{"negative warns", []string{"-warns", "-1"}, "-1 warns out of range"},
		{"unknown app", []string{"-app", "nosuch"}, `unknown app "nosuch"`},
		{"stray argument", []string{"-app", "pdes", "extra"}, `unexpected argument "extra"`},
		{"ft with app", []string{"-ft", "-app", "leanmd"}, "-app is not used by -ft"},
		{"ft with crashes", []string{"-ft", "-crashes", "3"}, "-crashes is not used by -ft"},
		{"ft with warns", []string{"-warns", "1", "-ft"}, "-warns is not used by -ft"},
		{"ft with degree", []string{"-ft", "-R", "2"}, "-R is not used by -ft"},
		{"unknown flag", []string{"-nosuch"}, "flag provided but not defined: -nosuch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "report.json")
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, "-out", out), &stdout, &stderr); code != 2 {
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
