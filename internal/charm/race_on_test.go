//go:build race

package charm

// raceEnabled reports a -race build: the detector makes sync.Pool drop a
// share of its Puts, so exact allocation pins do not hold under it.
const raceEnabled = true
