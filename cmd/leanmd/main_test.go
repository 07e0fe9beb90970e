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
		{"checkpoint at failure", []string{"-lb", "greedy", "-ckpt-step", "5", "-fail-step", "5"}, "-fail-step 5 needs a -ckpt-step before it"},
		{"failure on one PE", []string{"-pes", "1", "-lb", "greedy", "-ckpt-step", "5", "-fail-step", "6"}, "-fail-step fails PE 1, so it needs -pes >= 2"},
		{"failure and shrink", []string{"-lb", "greedy", "-ckpt-step", "5", "-fail-step", "6", "-shrink-to", "8"}, "-fail-step and -shrink-to do not combine"},
		{"checkpoint without balancer", []string{"-ckpt-step", "5"}, "-ckpt-step 5 is not a load-balancing step"},
		{"checkpoint off a balancing step", []string{"-lb", "greedy", "-lb-period", "2", "-ckpt-step", "3"}, "-ckpt-step 3 is not a load-balancing step"},
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
	args := []string{"-pes", "16", "-cells", "3", "-steps", "4", "-lb", "greedy", "-lb-period", "2", "-ckpt-step", "2"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"step 2: in-memory checkpoint", "steps=4 PEs=16", "LB rounds: "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output does not contain %q:\n%s", want, stdout.String())
		}
	}
}

// TestSurvivesFailure is README's "survive a PE failure" command, scaled
// down: PE 1 fails after the checkpoint, every element rolls back to it, and
// the run ends with the energies of the same run without the failure.
func TestSurvivesFailure(t *testing.T) {
	energies := func(args ...string) ([]string, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args = append([]string{"-pes", "16", "-cells", "3", "-steps", "8", "-lb", "greedy", "-lb-period", "2", "-ckpt-step", "2"}, args...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		var out []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if i := strings.Index(line, "energy "); i >= 0 {
				out = append(out, line[i:])
			}
		}
		return out, stdout.String()
	}
	want, _ := energies()
	got, out := energies("-fail-step", "5")
	if !strings.Contains(out, "step 5: PE 1 failed; recovery took") {
		t.Errorf("no recovery line:\n%s", out)
	}
	if len(want) != 8 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("energies after recovery\n%s\nwant the failure-free run's\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
