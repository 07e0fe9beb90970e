//go:build race

package determinism

// raceEnabled reports a -race build: the detector makes sync.Pool drop a
// share of its Puts, so the allocation budgets do not hold under it, and it
// turns the full-size golden rows' seconds into minutes.
const raceEnabled = true
