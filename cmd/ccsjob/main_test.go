package main

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestUsageErrors drives the command the way main does: a bad flag exits 2
// with a message on stderr, before anything listens or connects.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		stderrHas string
	}{
		{"no mode", nil, "need one of -listen or -connect"},
		{"both modes", []string{"-listen", "127.0.0.1:0", "-connect", "127.0.0.1:1"}, "need one of -listen or -connect"},
		{"zero pes", []string{"-listen", "127.0.0.1:0", "-pes", "0"}, "-pes 0 out of range"},
		{"negative objs", []string{"-listen", "127.0.0.1:0", "-objs", "-4"}, "-objs -4 out of range"},
		{"unknown command", []string{"-connect", "127.0.0.1:1", "-cmd", "nosuch"}, `unknown command "nosuch"`},
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

// syncBuffer is a bytes.Buffer the server goroutine writes while the test
// reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// A client steers a small job on a loopback port: it reads the PE count and
// stops the job, and the server returns 0 once the job has drained.
func TestSteerAndStop(t *testing.T) {
	var serverOut, serverErr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-pes", "16", "-objs", "32"}, &serverOut, &serverErr)
	}()
	banner := regexp.MustCompile(`steerable job on (\S+) `)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if m := banner.FindStringSubmatch(serverOut.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no banner; stdout %q, stderr %q", serverOut.String(), serverErr.String())
		}
	}
	for _, tc := range []struct{ cmd, want string }{{"pes", "16"}, {"stop", "stopping"}} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-connect", addr, "-cmd", tc.cmd}, &stdout, &stderr); code != 0 {
			t.Fatalf("-cmd %s: exit %d: %s", tc.cmd, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("-cmd %s printed %q, want %q", tc.cmd, stdout.String(), tc.want)
		}
	}
	select {
	case code := <-done:
		if code != 0 || !strings.Contains(serverOut.String(), "job stopped") {
			t.Errorf("server exit %d; stdout %q, stderr %q", code, serverOut.String(), serverErr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the job did not stop")
	}
}
