//go:build race

package determinism

// raceEnabled reports a -race build: it turns the full-size golden rows'
// seconds into minutes, and the race runtime's own allocations break the
// heap budgets (see TestStencilScaleAllocBudget and
// TestOptimisticPHOLDAllocBudget).
const raceEnabled = true
