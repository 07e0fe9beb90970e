//go:build race

package des

// raceEnabled reports a -race build, under which the allocation pins are
// not asserted.
const raceEnabled = true
