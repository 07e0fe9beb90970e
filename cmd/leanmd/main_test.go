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
		{"zero pes", []string{"-pes", "0"}, "-pes 0 out of range"},
		{"negative steps", []string{"-steps", "-1"}, "-steps -1 out of range"},
		{"two cells", []string{"-cells", "2"}, "-cells 2 out of range"},
		{"zero atoms", []string{"-atoms", "0"}, "-atoms 0 out of range"},
		{"zero lb period", []string{"-lb", "greedy", "-lb-period", "0"}, "-lb-period 0 out of range"},
		{"negative ckpt step", []string{"-ckpt-step", "-1"}, "-ckpt-step -1 out of range"},
		{"fail without checkpoint", []string{"-fail-step", "3"}, "-fail-step 3 needs a -ckpt-step"},
		{"checkpoint after failure", []string{"-ckpt-step", "4", "-fail-step", "3"}, "-fail-step 3 needs a -ckpt-step"},
		{"unknown machine", []string{"-machine", "nosuch"}, `unknown machine "nosuch"`},
		{"unknown balancer", []string{"-lb", "nosuch"}, `unknown balancer "nosuch"`},
		{"unknown flag", []string{"-nosuch"}, "flag provided but not defined: -nosuch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.json")
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, "-trace", out), &stdout, &stderr); code != 2 {
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

// A small balanced run with a checkpoint prints every step and the
// checkpoint line.
func TestSmallRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-pes", "16", "-cells", "3", "-steps", "4", "-lb", "greedy", "-lb-period", "2", "-ckpt-step", "1"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"step 1: in-memory checkpoint", "steps=4 PEs=16", "LB rounds: "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output does not contain %q:\n%s", want, stdout.String())
		}
	}
}
