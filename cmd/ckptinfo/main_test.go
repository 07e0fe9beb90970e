package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"charmgo/internal/apps/amr"
	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/machine"
)

// TestUsageErrors drives the command the way main does: a bad flag or
// argument exits 2 with a message on stderr, before any file is read.
func TestUsageErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.ckpt")
	for _, tc := range []struct {
		name      string
		args      []string
		stderrHas string
	}{
		{"no file", nil, "usage: ckptinfo"},
		{"two files", []string{missing, missing}, "usage: ckptinfo"},
		{"zero degree", []string{"-R", "0", missing}, "-R 0 out of range"},
		{"negative degree", []string{"-buddies", "-R", "-2", missing}, "-R -2 out of range"},
		{"unknown flag", []string{"-nosuch", missing}, "flag provided but not defined: -nosuch"},
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

// A checkpoint of a small AMR mesh prints its array table, the replica map
// at the asked degree and the per-PE distribution; a missing file exits 1.
func TestInspect(t *testing.T) {
	rt := charm.New(machine.New(machine.Testbed(4)))
	if _, err := amr.New(rt, amr.Config{MinDepth: 1, MaxDepth: 2, StartDepth: 1, BlockSize: 2, Steps: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mesh.ckpt")
	if err := ckpt.Capture(rt).Save(path); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-pe", "-buddies", "-R", "2", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"checkpoint of a 4-PE run", "amr_blocks", "in-memory replica map at degree R=2", "degree sweep", "PE  elements  bytes"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output does not contain %q:\n%s", want, stdout.String())
		}
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.ckpt")}, &stdout, &stderr); code != 1 {
		t.Errorf("a missing file exits %d, want 1", code)
	}
}
