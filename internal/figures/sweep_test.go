package figures

import (
	"errors"
	"strings"
	"testing"
)

// TestSweepLabelsFailures: a point that returns an error and a point that
// panics each come back labeled with their index, and the other points'
// results are intact, at one worker and at three.
func TestSweepLabelsFailures(t *testing.T) {
	defer SetWorkers(Workers())
	for _, workers := range []int{1, 3} {
		SetWorkers(workers)
		out, err := sweep(4, func(i int) (int, error) {
			switch i {
			case 1:
				return 0, errors.New("app failed")
			case 2:
				panic("runtime invariant broken")
			}
			return 10 * (i + 1), nil
		})
		if out[0] != 10 || out[3] != 40 {
			t.Errorf("workers %d: results %v, want points 0 and 3 to hold 10 and 40", workers, out)
		}
		if err == nil {
			t.Fatalf("workers %d: no error from a sweep with two failing points", workers)
		}
		msg := err.Error()
		for _, want := range []string{"sweep point 1: app failed", "sweep point 2: panic: runtime invariant broken"} {
			if !strings.Contains(msg, want) {
				t.Errorf("workers %d: error %q does not contain %q", workers, msg, want)
			}
		}
		if strings.Contains(msg, "sweep point 0") || strings.Contains(msg, "sweep point 3") {
			t.Errorf("workers %d: error %q labels a point that succeeded", workers, msg)
		}
	}
}
