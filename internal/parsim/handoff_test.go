package parsim

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"charmgo/internal/des"
)

// spinFor busy-waits for d of wall time: a phase body of a chosen grain.
func spinFor(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestHandoffExactlyOnce stresses the claim protocol: 64 shards, thousands
// of events, both modes, several helper caps, and phase bodies whose grain
// flips between nothing and 12 µs every few hundred executions, so the
// gate shuts and reopens while phases are posted, claimed from both ends
// and (optimistically) rolled back in every claim state. Whoever ran what,
// every launch must have executed its phase exactly once, the commit log
// and final shard state must be the sequential engine's, and the engine
// counters must not depend on the helper cap.
func TestHandoffExactlyOnce(t *testing.T) {
	const shards = 64
	for _, optimistic := range []bool{false, true} {
		t.Run(fmt.Sprintf("optimistic=%v", optimistic), func(t *testing.T) {
			cfg := tortureCfg{lookahead: tortureLookahead, forms: true, cancels: true}
			if optimistic {
				cfg.lookahead = 0 // straggler bait: rollbacks land on every claim state
			}
			wantState := make([]int64, shards)
			want, _ := tortureWorkload(des.NewEngine(), wantState, shards, cfg)
			if len(want) < 2000 {
				t.Fatalf("workload produced only %d events", len(want))
			}
			var first Stats
			for i, workers := range []int{1, 2, 8} {
				var e *Engine
				state := make([]int64, shards)
				if optimistic {
					var c *sliceCtrl
					e, c = mkOptimistic(shards, workers)
					state = c.state
					defer c.balanced(t)
				} else {
					e = New(Options{Lookahead: cfg.lookahead, Shards: shards, Workers: workers})
				}
				var runs atomic.Int64
				var sawShut, reopened bool
				cfg.phase = func() {
					if n := runs.Add(1); n/384%2 == 1 {
						spinFor(12 * time.Microsecond)
					}
				}
				cfg.commit = func() { // driver context: the gate's state is readable
					shut := e.gateShut.Load()
					sawShut = sawShut || shut
					reopened = reopened || sawShut && !shut
				}
				got, _ := tortureWorkload(e, state, shards, cfg)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("workers=%d: commit log diverges from the sequential engine's", workers)
				}
				if fmt.Sprint(state) != fmt.Sprint(wantState) {
					t.Fatalf("workers=%d: final shard state %v, want %v", workers, state, wantState)
				}
				st, hs := e.EngineStats(), e.HandoffStats()
				t.Logf("workers=%d: %+v %+v", workers, st, hs)
				if st.Launched == 0 || optimistic && st.RolledBack == 0 {
					t.Fatalf("workers=%d: stats %+v exercise nothing", workers, st)
				}
				// The program's commit-only bodies mutate state through the
				// same hook, so every inline event counts once too.
				if uint64(runs.Load()) != st.Launched+st.Inline {
					t.Fatalf("workers=%d: %d phase executions for %d launches + %d inline events",
						workers, runs.Load(), st.Launched, st.Inline)
				}
				if hs.DriverRan+hs.HelperRan != st.Launched {
					t.Fatalf("workers=%d: driver ran %d + helpers ran %d, want the %d launches",
						workers, hs.DriverRan, hs.HelperRan, st.Launched)
				}
				if !sawShut || !reopened {
					t.Fatalf("workers=%d: gate shut=%v reopened=%v; the grain flips no longer reach it", workers, sawShut, reopened)
				}
				if i == 0 {
					first = st
				} else if st != first {
					t.Fatalf("workers=%d: stats %+v, want workers=1's %+v", workers, st, first)
				}
			}
		})
	}
}

// TestLaunchCostFollowsChanges pins the launch pipeline's bookkeeping to
// what changed rather than to the shard count: with 4 live event chains on
// a 512-shard engine, every pop rebuilds exactly one cached candidate (the
// popped event's own heap) and pushes rebuild none, where the scan used to
// consult all 512 heaps and the slab before every pop.
func TestLaunchCostFollowsChanges(t *testing.T) {
	const shards, live, window = 512, 4, 2e-6
	for _, ctrl := range []Controller{nil, newSliceCtrl(shards)} {
		e := New(Options{Shards: shards, Workers: 2, Lookahead: window, Window: window, Controller: ctrl})
		for i := 0; i < live; i++ {
			s := &noopShard{id: i * (shards / live), eng: e}
			s.phase, s.commit = s.onPhase, s.onCommit
			e.AtShardFn(s.id, des.Time(i)*1e-8, s.phase, nil, 0)
		}
		e.RunUntil(1e-3)
		st := e.EngineStats()
		if st.Launched < e.Executed()/2 {
			t.Fatalf("optimistic=%v: %d of %d events launched; the chains no longer overlap", ctrl != nil, st.Launched, e.Executed())
		}
		if e.recomputes > e.Executed() {
			t.Fatalf("optimistic=%v: %d candidate recomputations for %d pops on %d shards, want at most one per pop",
				ctrl != nil, e.recomputes, e.Executed(), shards)
		}
	}
}

// BenchmarkHandoffGrain runs 16 staggered chains of two-phase events whose
// phases spin for a fixed wall time, at three grains around the gate and
// three helper caps. ns/op is per event; helper% is the share of launched
// phases a helper ran. Below the gate the three caps must cost the same
// (helpers stay parked); above it a second thread must shorten the run.
func BenchmarkHandoffGrain(b *testing.B) {
	const shards, window = 16, 2e-6
	for _, grain := range []time.Duration{250 * time.Nanosecond, 4 * time.Microsecond, 64 * time.Microsecond} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("grain=%v/workers=%d", grain, workers), func(b *testing.B) {
				e := New(Options{Shards: shards, Workers: workers, Lookahead: window})
				for i := 0; i < shards; i++ {
					s := &noopShard{id: i, eng: e, spin: grain}
					s.phase, s.commit = s.onPhase, s.onCommit
					e.AtShardFn(i, des.Time(i)*1e-8, s.phase, nil, 0)
				}
				e.RunUntil(64e-6) // warm up: 64 events per shard, past the gate's first samples
				before, start := e.HandoffStats(), e.EngineStats()
				b.ResetTimer()
				// One event per shard per microsecond of virtual time.
				e.RunUntil(e.Now() + des.Time(b.N)*1e-6/shards)
				b.StopTimer()
				hs, st := e.HandoffStats(), e.EngineStats()
				if n := st.Launched - start.Launched; n > 0 {
					b.ReportMetric(100*float64(hs.HelperRan-before.HelperRan)/float64(n), "helper%")
				}
				b.ReportMetric(hs.GrainNs, "grain-ns")
			})
		}
	}
}
