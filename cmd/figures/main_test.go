package main

import (
	"bytes"
	"strings"
	"testing"

	"charmgo/internal/figures"
)

// TestUsageErrors drives the command the way main does: a bad flag or
// argument exits 2 with a message on stderr, before any figure runs.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		stderrHas string
	}{
		{"negative workers", []string{"-workers", "-3"}, "-workers -3 out of range"},
		{"unknown backend", []string{"-backend", "heap"}, `unknown backend "heap"`},
		{"unknown figure", []string{"-fig", "99"}, `unknown figure "99"`},
		{"stray argument", []string{"-fig", "9", "extra"}, `unexpected argument "extra"`},
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
	if figures.Workers() != 1 {
		t.Errorf("a refused run set the sweep workers to %d", figures.Workers())
	}
}

// -list prints one line per figure and runs none of them.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list", "-workers", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if got, want := strings.Count(stdout.String(), "\n"), len(figures.All()); got != want {
		t.Errorf("listed %d lines, want %d figures:\n%s", got, want, stdout.String())
	}
	if strings.Contains(stdout.String(), "== Figure") {
		t.Errorf("-list ran a figure:\n%s", stdout.String())
	}
}
