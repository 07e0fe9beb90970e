package pdes

import (
	"testing"

	"charmgo/internal/pup/puptest"
)

// TestPupRoundTrip verifies an LP's pending-event heap and RNG state — the
// determinism-critical payload — survive migration byte-for-byte.
func TestPupRoundTrip(t *testing.T) {
	puptest.CheckEqual(t, &lp{
		ID:    5,
		Q:     tsHeap{1.5, 2.25, 9.75},
		Exec:  123,
		RngLo: 0xdeadbeef, RngHi: 0x1234,
	})
}
