//go:build !race

package determinism

const raceEnabled = false
