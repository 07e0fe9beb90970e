package parsim

import (
	"testing"
	"time"

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
	spin   time.Duration // > 0: the phase busy-waits this long (BenchmarkHandoffGrain)
}

func (s *noopShard) onPhase(_ any, _ int64, at des.Time) func() {
	s.at = at
	if s.spin > 0 {
		spinFor(s.spin)
	}
	return s.commit
}

func (s *noopShard) onCommit() { s.eng.AtShardFn(s.id, s.at+1e-6, s.phase, nil, 0) }

// TestPipelineAllocFree pins the engine's steady-state schedule → launch →
// pop → commit cycle at zero heap allocations per event in both modes:
// events live in the slab-backed des.Calendar, handles are index+generation
// values, and a launch reuses its shard's flight record — posting and
// claiming are atomic stores on it. The 16 chains are staggered by 10 ns and
// step by 1 µs inside a 2 µs window, so every pop has the other shards'
// phases launched. What remains is per run, not per event, and there is no
// channel in it any more: a RunUntil allocates only the helper goroutines
// it starts, at most Workers of them — and none here once the warm-up has
// timed these empty phases and shut the grain gate.
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
		for i := 0; i < 64; i++ { // warm the slab, calendar buckets, minima heaps and the grain estimate
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
		if helperStarts := float64(2 * workers); allocs > helperStarts {
			t.Fatalf("optimistic=%v: %.0f allocs per %.0f-event run, want at most %d helper starts' %.0f — the pipeline allocates per event",
				ctrl != nil, allocs, events, workers, helperStarts)
		}
	}
}
