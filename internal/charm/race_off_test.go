//go:build !race

package charm

const raceEnabled = false
