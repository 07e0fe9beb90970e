//go:build race

package chaos

// raceEnabled reports a -race build, under which exact allocation pins are
// not asserted.
const raceEnabled = true
