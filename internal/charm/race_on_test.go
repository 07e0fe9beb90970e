//go:build race

package charm

// raceEnabled reports a -race build. A pin guarded by it breaks only under
// the race runtime's own allocations (a goroutine start allocates there).
const raceEnabled = true
