package parsim

import (
	"testing"

	"charmgo/internal/des"
)

// noopShard is one shard's chain of empty two-phase events, the shape of
// bench's noop probe: the phase records its timestamp in shard-local state
// and returns the shard's preallocated commit, which schedules the
// successor — so whatever the cycle allocates is the engine's doing.
type noopShard struct {
	id     int
	at     des.Time
	eng    *Engine
	phase  des.PhaseFn
	commit func()
}

func (s *noopShard) onPhase(_ any, _ int64, at des.Time) func() {
	s.at = at
	return s.commit
}

func (s *noopShard) onCommit() { s.eng.AtShardFn(s.id, s.at+1e-6, s.phase, nil, 0) }

// TestPipelineAllocFree pins the engine's steady-state schedule → launch →
// pop → commit cycle at zero heap allocations per event in both modes:
// events live in the slab-backed des.Calendar, handles are index+generation
// values, and a launch reuses its shard's flight record and done channel.
// The 16 chains are staggered by 10 ns and step by 1 µs inside a 2 µs
// window, so every pop has the other shards' phases on workers. What
// remains is per run, not per event — each RunUntil starts and retires the
// worker pool (a job channel and W goroutines) — so a run of thousands of
// events must stay within that constant.
func TestPipelineAllocFree(t *testing.T) {
	const shards, workers = 16, 4
	const window = 2e-6
	for _, ctrl := range []Controller{nil, newSliceCtrl(shards)} {
		e := New(Options{Shards: shards, Workers: workers, Lookahead: window, Window: window, Controller: ctrl})
		for i := 0; i < shards; i++ {
			s := &noopShard{id: i, eng: e}
			s.phase, s.commit = s.onPhase, s.onCommit
			e.AtShardFn(i, des.Time(i)*1e-8, s.phase, nil, 0)
		}
		const slice = 256e-6 // 256 events per shard per run
		run := func() { e.RunUntil(e.Now() + slice) }
		for i := 0; i < 64; i++ { // warm the slab, calendar buckets, minima heaps and goroutine pool
			run()
		}
		before := e.EngineStats()
		allocs := testing.AllocsPerRun(20, run)
		st := e.EngineStats()
		events := float64(st.Committed+st.Inline-before.Committed-before.Inline) / 21
		if launched := float64(st.Launched-before.Launched) / 21; launched < events/2 {
			t.Fatalf("optimistic=%v: only %.0f of %.0f events per run were launched; the chains no longer overlap", ctrl != nil, launched, events)
		}
		t.Logf("optimistic=%v: %.0f allocs per run of %.0f events", ctrl != nil, allocs, events)
		if poolStart := float64(2*workers + 2); allocs > poolStart {
			t.Fatalf("optimistic=%v: %.0f allocs per %.0f-event run, want at most the pool start's %.0f — the pipeline allocates per event",
				ctrl != nil, allocs, events, poolStart)
		}
	}
}
