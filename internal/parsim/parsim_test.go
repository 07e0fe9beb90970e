package parsim

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"charmgo/internal/des"
)

// sliceCtrl is a minimal speculation controller for engine-level tests:
// the "shard state" is one int64 per shard, snapshotted at BeginSpec and
// restored at RollbackSpec — the same contract charm's controller honours
// with PUP snapshots of dirty chares.
type sliceCtrl struct {
	state []int64
	snap  []int64

	begun      int
	committed  int
	rolledBack int
}

func newSliceCtrl(shards int) *sliceCtrl {
	return &sliceCtrl{state: make([]int64, shards), snap: make([]int64, shards)}
}

func (c *sliceCtrl) BeginSpec(s int)    { c.snap[s] = c.state[s]; c.begun++ }
func (c *sliceCtrl) CommitSpec(s int)   { c.committed++ }
func (c *sliceCtrl) RollbackSpec(s int) { c.state[s] = c.snap[s]; c.rolledBack++ }

// balanced asserts every speculation was either committed or rolled back
// (trivially true of the nil controller conservative engines run under).
func (c *sliceCtrl) balanced(t *testing.T) {
	t.Helper()
	if c != nil && c.begun != c.committed+c.rolledBack {
		t.Fatalf("speculation ledger unbalanced: begun %d, committed %d, rolled back %d",
			c.begun, c.committed, c.rolledBack)
	}
}

// mkConservative returns a conservative engine with a lookahead window of
// 1.0 over `shards` shards — wide enough that admission is governed purely
// by the tests' chosen timestamps.
func mkConservative(shards, workers int) *Engine {
	return New(Options{Lookahead: 1.0, Shards: shards, Workers: workers})
}

// mkOptimistic returns an optimistic engine with unbounded optimism and the
// slice controller that undoes its speculations.
func mkOptimistic(shards, workers int) (*Engine, *sliceCtrl) {
	c := newSliceCtrl(shards)
	return New(Options{Shards: shards, Workers: workers, Controller: c}), c
}

// bothModes runs a mode-independent behaviour test against a conservative
// engine (c is nil) and an optimistic one.
func bothModes(t *testing.T, shards, workers int, f func(t *testing.T, e *Engine, c *sliceCtrl)) {
	t.Run("conservative", func(t *testing.T) { f(t, mkConservative(shards, workers), nil) })
	t.Run("optimistic", func(t *testing.T) {
		e, c := mkOptimistic(shards, workers)
		f(t, e, c)
	})
}

func wantOrder[T comparable](t *testing.T, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("commit order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("commit order %v, want %v", got, want)
		}
	}
}

// TestCommitOrderMatchesSequential schedules events across shards inside
// one window and checks the commit order is the (timestamp, seq) calendar
// order, not the phase completion order.
func TestCommitOrderMatchesSequential(t *testing.T) {
	bothModes(t, 4, 4, func(t *testing.T, e *Engine, c *sliceCtrl) {
		var order []int
		for i := 0; i < 4; i++ {
			i := i
			e.AtShard(i, 0.1+0.01*des.Time(i), func() func() {
				return func() { order = append(order, i) }
			})
		}
		e.Run()
		wantOrder(t, order, []int{0, 1, 2, 3})
		if e.Executed() != 4 {
			t.Fatalf("executed %d, want 4", e.Executed())
		}
		c.balanced(t)
	})
}

// TestPhasesRunConcurrently proves the pipeline actually fans out: the
// second event's phase is launched on a worker before the driver runs the
// top event's phase inline, so the two phases overlap by construction.
func TestPhasesRunConcurrently(t *testing.T) {
	bothModes(t, 2, 2, func(t *testing.T, e *Engine, c *sliceCtrl) {
		peerStarted := make(chan struct{})
		e.AtShard(0, 0.100, func() func() {
			select {
			case <-peerStarted: // the launched phase ran while we were running
			case <-time.After(5 * time.Second):
				t.Error("in-flight phase never started while the driver phase ran")
			}
			return nil
		})
		e.AtShard(1, 0.101, func() func() {
			close(peerStarted)
			return nil
		})
		e.Run()
	})
}

// TestSpeculatesPastAnyWindow: the whole point of optimism — a phase five
// virtual seconds past the calendar head (far outside any α lookahead) runs
// concurrently with the driver's inline phase. The conservative engine's
// 1.0 window must leave it alone.
func TestSpeculatesPastAnyWindow(t *testing.T) {
	e, _ := mkOptimistic(2, 2)
	peerStarted := make(chan struct{})
	e.AtShard(0, 0.1, func() func() {
		select {
		case <-peerStarted: // the speculated far-future phase already ran
		case <-time.After(5 * time.Second):
			t.Error("speculative phase never started while the driver phase ran")
		}
		return nil
	})
	e.AtShard(1, 5.0, func() func() {
		close(peerStarted)
		return nil
	})
	e.Run()
	if e.stats.Launched == 0 {
		t.Fatal("no speculative launch recorded")
	}

	ce := mkConservative(2, 2)
	ce.AtShard(0, 0.1, func() func() { return nil })
	ce.AtShard(1, 5.0, func() func() { return nil })
	ce.Run()
	if ce.stats.Launched != 0 {
		t.Fatalf("conservative engine launched %d phases past its 1.0 lookahead", ce.stats.Launched)
	}
}

// TestWindowBoundsOptimism: with a finite Window the far-future phase is
// not speculated; Window() reports what SetWindow set, with 0 — not the
// internal sentinel — meaning unbounded.
func TestWindowBoundsOptimism(t *testing.T) {
	e := New(Options{Shards: 2, Workers: 2, Window: 1.0, Controller: newSliceCtrl(2)})
	e.AtShard(0, 0.1, func() func() { return nil })
	e.AtShard(1, 5.0, func() func() { return nil })
	e.Run()
	if e.stats.Launched != 0 {
		t.Fatalf("launched %d speculations past a 1.0 window", e.stats.Launched)
	}
	if e.Window() != 1.0 {
		t.Fatalf("Window() = %v, want 1.0", e.Window())
	}
	e.SetWindow(0)
	if e.Window() != 0 {
		t.Fatalf("Window() = %v after SetWindow(0), want 0 (unbounded)", e.Window())
	}
	e.AtShard(0, 5.1, func() func() { return nil })
	e.AtShard(1, 9.0, func() func() { return nil })
	e.Run()
	if e.stats.Launched != 1 {
		t.Fatalf("launched %d speculations with the window lifted, want 1", e.stats.Launched)
	}
	if ce := mkConservative(2, 2); ce.Window() != 1.0 {
		t.Fatalf("conservative Window() = %v, want the 1.0 lookahead", ce.Window())
	}
}

// TestSpawnedContinuationsRunInOrder: a commit spawns a same-shard
// continuation whose timestamp precedes an event whose phase may already
// be in flight. The sequential order A(0.10), A'(0.11), B(0.12) must be
// preserved even though B's phase can run before A commits.
func TestSpawnedContinuationsRunInOrder(t *testing.T) {
	bothModes(t, 2, 2, func(t *testing.T, e *Engine, c *sliceCtrl) {
		var order []string
		e.AtShard(0, 0.10, func() func() {
			return func() {
				order = append(order, "A")
				e.AtShard(0, 0.11, func() func() {
					return func() { order = append(order, "A'") }
				})
			}
		})
		e.AtShard(1, 0.12, func() func() {
			return func() { order = append(order, "B") }
		})
		e.Run()
		wantOrder(t, order, []string{"A", "A'", "B"})
		if e.Now() != 0.12 {
			t.Fatalf("clock %v after run, want 0.12", e.Now())
		}
	})
}

// expectPanic runs e and fails unless it panics.
func expectPanic(t *testing.T, e *Engine, why string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic %s", why)
		}
	}()
	e.Run()
}

// TestScheduleBeforeInFlightPhasePanics: a commit that schedules work
// preceding an in-flight phase on another shard means the lookahead bound
// was wrong; the conservative engine must fail loudly instead of diverging.
func TestScheduleBeforeInFlightPhasePanics(t *testing.T) {
	e := mkConservative(2, 2)
	e.AtShard(0, 0.10, func() func() {
		return func() {
			// Shard 1's event at 0.11 is in flight; scheduling below it
			// violates the lookahead promise.
			e.AtShard(1, 0.105, func() func() { return nil })
		}
	})
	e.AtShard(1, 0.11, func() func() { return nil })
	expectPanic(t, e, "scheduling before an in-flight phase")
}

// TestGlobalScheduleBeforeInFlightPhasePanics: same violation, global
// flavour — a global event may touch any shard, so it must never be
// scheduled below a launched phase.
func TestGlobalScheduleBeforeInFlightPhasePanics(t *testing.T) {
	e := mkConservative(2, 2)
	e.AtShard(0, 0.10, func() func() {
		return func() {
			e.At(0.105, func() {})
		}
	})
	e.AtShard(1, 0.11, func() func() { return nil })
	expectPanic(t, e, "scheduling a global below an in-flight phase")
}

// TestStragglerRollback: shard 1 speculates at t=5.0; shard 0's commit then
// schedules shard-1 work at t=1.0 — a straggler. Where the conservative
// mode panics, the optimistic one rolls shard 1 back (restoring its
// state), runs the straggler, and re-executes the 5.0 event, committing in
// sequential order.
func TestStragglerRollback(t *testing.T) {
	e, c := mkOptimistic(2, 2)
	c.state[1] = 10
	var order []string
	e.AtShard(0, 0.1, func() func() {
		return func() {
			order = append(order, "A")
			e.AtShard(1, 1.0, func() func() {
				c.state[1] += 5
				return func() { order = append(order, fmt.Sprintf("S=%d", c.state[1])) }
			})
		}
	})
	e.AtShard(1, 5.0, func() func() {
		c.state[1]++
		return func() { order = append(order, fmt.Sprintf("B=%d", c.state[1])) }
	})
	e.Run()
	// Sequentially: A commits, straggler runs (10+5=15), then B (16). The
	// speculative increment that ran first must have been undone.
	wantOrder(t, order, []string{"A", "S=15", "B=16"})
	if c.rolledBack != 1 {
		t.Fatalf("rolled back %d speculations, want 1", c.rolledBack)
	}
	if e.stats.RolledBack != 1 || e.stats.Launched != 1 {
		t.Fatalf("stats %+v, want Launched=1 RolledBack=1", e.stats)
	}
	c.balanced(t)
}

// TestSameTimestampIsNotAStraggler: a new event at exactly the in-flight
// timestamp orders after it by sequence number — no rollback, no violation.
func TestSameTimestampIsNotAStraggler(t *testing.T) {
	bothModes(t, 2, 2, func(t *testing.T, e *Engine, c *sliceCtrl) {
		var order []string
		e.AtShard(0, 0.1, func() func() {
			return func() {
				order = append(order, "A")
				e.AtShard(1, 0.5, func() func() {
					return func() { order = append(order, "C") }
				})
			}
		})
		e.AtShard(1, 0.5, func() func() {
			return func() { order = append(order, "B") }
		})
		e.Run()
		wantOrder(t, order, []string{"A", "B", "C"})
		if e.stats.Launched != 1 || e.stats.RolledBack != 0 {
			t.Fatalf("stats %+v, want B launched once and never rolled back — equal timestamps are not stragglers", e.stats)
		}
	})
}

// TestGlobalEventsRunSolo: a global event never overlaps a phase, so it
// may freely touch all shards.
func TestGlobalEventsRunSolo(t *testing.T) {
	bothModes(t, 4, 4, func(t *testing.T, e *Engine, c *sliceCtrl) {
		var order []string
		e.AtShard(0, 0.10, func() func() { return func() { order = append(order, "s0") } })
		e.At(0.105, func() {
			if e.inFlight != 0 {
				t.Errorf("global event popped with %d phases in flight", e.inFlight)
			}
			order = append(order, "g")
		})
		e.AtShard(1, 0.11, func() func() { return func() { order = append(order, "s1") } })
		e.Run()
		wantOrder(t, order, []string{"s0", "g", "s1"})
	})
}

// TestGlobalStragglerRollsBackLaterSpeculations: a global event scheduled
// below in-flight speculations rolls back every speculation past it, then
// runs solo — the zero-in-flight guarantee globals rely on.
func TestGlobalStragglerRollsBackLaterSpeculations(t *testing.T) {
	e, c := mkOptimistic(3, 3)
	var order []string
	e.AtShard(0, 0.1, func() func() {
		return func() {
			order = append(order, "A")
			e.At(1.0, func() { order = append(order, "g") })
		}
	})
	e.AtShard(1, 5.0, func() func() {
		c.state[1]++
		return func() { order = append(order, "B") }
	})
	e.AtShard(2, 6.0, func() func() {
		c.state[2]++
		return func() { order = append(order, "C") }
	})
	e.Run()
	wantOrder(t, order, []string{"A", "g", "B", "C"})
	if c.rolledBack != 2 {
		t.Fatalf("rolled back %d speculations for the global straggler, want 2", c.rolledBack)
	}
	if c.state[1] != 1 || c.state[2] != 1 {
		t.Fatalf("shard state %v after run, want each incremented exactly once", c.state)
	}
	c.balanced(t)
}

// TestCancelPendingEvent works like the sequential engine: the cancelled
// event sits behind its shard's minimum, so it is never in flight.
func TestCancelPendingEvent(t *testing.T) {
	bothModes(t, 2, 2, func(t *testing.T, e *Engine, c *sliceCtrl) {
		e.AtShard(1, 1.5, func() func() { return nil })
		h := e.AtShard(1, 2.0, func() func() { t.Error("cancelled event still ran"); return nil })
		e.AtShard(0, 0.1, func() func() {
			return func() { e.Cancel(h) }
		})
		e.Run()
		if !h.Cancelled() || e.Pending() != 0 || e.Executed() != 2 {
			t.Fatalf("cancelled=%v pending=%d executed=%d after run, want true, 0, 2", h.Cancelled(), e.Pending(), e.Executed())
		}
		c.balanced(t)
	})
}

// TestCancelInFlightPanics: conservatively, cancelling an event whose
// phase is in flight is a lookahead violation.
func TestCancelInFlightPanics(t *testing.T) {
	e := mkConservative(2, 2)
	h := e.AtShard(1, 0.101, func() func() { return nil })
	e.AtShard(0, 0.1, func() func() {
		return func() { e.Cancel(h) }
	})
	expectPanic(t, e, "cancelling an in-flight event")
}

// TestCancelInFlightRollsBack: optimistically, cancelling a speculated
// event is an ordinary straggler: the speculation is undone and the event
// never commits.
func TestCancelInFlightRollsBack(t *testing.T) {
	e, c := mkOptimistic(2, 2)
	h := e.AtShard(1, 5.0, func() func() {
		c.state[1]++
		return func() { t.Error("cancelled event's commit ran") }
	})
	e.AtShard(0, 0.1, func() func() {
		return func() { e.Cancel(h) }
	})
	e.Run()
	if c.rolledBack != 1 {
		t.Fatalf("rolled back %d, want 1", c.rolledBack)
	}
	if c.state[1] != 0 {
		t.Fatalf("shard 1 state %d after cancelled speculation, want 0", c.state[1])
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after run, want 0", e.Pending())
	}
	c.balanced(t)
}

// TestRunUntil bounds launches by the horizon and advances the clock.
func TestRunUntil(t *testing.T) {
	bothModes(t, 2, 2, func(t *testing.T, e *Engine, c *sliceCtrl) {
		var ran []des.Time
		for _, at := range []des.Time{0.1, 0.2, 0.9} {
			at := at
			e.AtShard(int(at*10)%2, at, func() func() {
				return func() { ran = append(ran, at) }
			})
		}
		e.RunUntil(0.5)
		if len(ran) != 2 {
			t.Fatalf("ran %v, want the two events <= 0.5", ran)
		}
		if e.Now() != 0.5 {
			t.Fatalf("clock %v, want 0.5", e.Now())
		}
		if e.inFlight != 0 {
			t.Fatalf("%d phases launched past the RunUntil horizon", e.inFlight)
		}
		e.RunUntil(1.0)
		if len(ran) != 3 || e.Now() != 1.0 {
			t.Fatalf("ran %v now %v, want all three events and now=1.0", ran, e.Now())
		}
		c.balanced(t)
	})
}

// TestStopWithholdsUncommittedPhases: Stop from a commit returns before
// the next pop; conservatively an in-flight phase finishes on its worker
// but its commit is withheld — global state stops exactly where the
// sequential engine would — and applies if a later Run pops the event.
func TestStopWithholdsUncommittedPhases(t *testing.T) {
	e := mkConservative(2, 2)
	var committed []int
	var phases atomic.Int64
	e.AtShard(0, 0.1, func() func() {
		return func() {
			committed = append(committed, 0)
			e.Stop()
		}
	})
	e.AtShard(1, 0.1001, func() func() {
		phases.Add(1)
		return func() { committed = append(committed, 1) }
	})
	e.Run()
	wantOrder(t, committed, []int{0})
	e.Run() // resuming applies the cached commit in order
	wantOrder(t, committed, []int{0, 1})
	if phases.Load() != 1 {
		t.Fatalf("phase ran %d times, want once — its cached result is reused", phases.Load())
	}
}

// TestStopRollsBackInFlight: optimistically, Stop returns with machine
// state exactly where the sequential engine would stop — in-flight
// speculations are undone, and resuming re-executes and commits them.
func TestStopRollsBackInFlight(t *testing.T) {
	e, c := mkOptimistic(2, 2)
	var committed []int
	e.AtShard(0, 0.1, func() func() {
		return func() {
			committed = append(committed, 0)
			e.Stop()
		}
	})
	e.AtShard(1, 5.0, func() func() {
		c.state[1]++
		return func() { committed = append(committed, 1) }
	})
	e.Run()
	wantOrder(t, committed, []int{0})
	if c.state[1] != 0 {
		t.Fatalf("shard 1 state %d after Stop, want 0 — speculation must be undone", c.state[1])
	}
	e.Run() // resume: the event re-executes and commits
	wantOrder(t, committed, []int{0, 1})
	if c.state[1] != 1 {
		t.Fatalf("shard 1 state %d after resume, want 1", c.state[1])
	}
	c.balanced(t)
}

// TestPhasePanicPropagatesDeterministically: the first panicking event in
// calendar order is the one re-raised, regardless of worker interleaving.
func TestPhasePanicPropagatesDeterministically(t *testing.T) {
	bothModes(t, 4, 4, func(t *testing.T, e *Engine, c *sliceCtrl) {
		for i := 0; i < 4; i++ {
			i := i
			e.AtShard(i, 0.1+0.001*des.Time(i), func() func() {
				if i >= 1 {
					panic(i)
				}
				return nil
			})
		}
		defer func() {
			if r := recover(); r != 1 {
				t.Fatalf("recovered %v, want panic value 1 (lowest panicking event)", r)
			}
		}()
		e.Run()
	})
}

// TestStragglerDiscardsSpeculativePanic: a speculation that panicked is
// rolled back by a straggler before its pop; the re-execution succeeds, so
// the panic never surfaces — exactly what the sequential engine, which
// would have run the straggler first, observes.
func TestStragglerDiscardsSpeculativePanic(t *testing.T) {
	e, c := mkOptimistic(2, 2)
	var attempts atomic.Int64
	var order []string
	e.AtShard(0, 0.1, func() func() {
		return func() {
			order = append(order, "A")
			e.AtShard(1, 1.0, func() func() {
				return func() { order = append(order, "S") }
			})
		}
	})
	e.AtShard(1, 5.0, func() func() {
		if attempts.Add(1) == 1 {
			panic("speculative execution saw pre-straggler state")
		}
		return func() { order = append(order, "B") }
	})
	e.Run()
	wantOrder(t, order, []string{"A", "S", "B"})
	if got := attempts.Load(); got != 2 {
		t.Fatalf("phase ran %d times, want 2 (panicked speculation + clean re-run)", got)
	}
	if c.rolledBack != 1 {
		t.Fatalf("rolled back %d, want 1", c.rolledBack)
	}
}

// TestGlobalHorizonIsNow: the optimistic engine's safe horizon for global
// events is the commit frontier itself, matching the sequential engine — a
// global below an in-flight speculation is a straggler, not a violation.
// The conservative engine's is the high-water mark of its launched phases.
func TestGlobalHorizonIsNow(t *testing.T) {
	bothModes(t, 2, 2, func(t *testing.T, e *Engine, c *sliceCtrl) {
		var horizon des.Time = -1
		e.AtShard(0, 0.25, func() func() {
			return func() { horizon = des.EngineHorizon(e) }
		})
		e.AtShard(1, 0.75, func() func() { return nil })
		e.Run()
		want := des.Time(0.75)
		if c != nil {
			want = 0.25
		}
		if horizon != want {
			t.Fatalf("horizon %v with a phase at 0.75 in flight at now=0.25, want %v", horizon, want)
		}
	})
}

// TestCancelAfterFireIsNoOp: Cancel of an already-fired handle is a no-op
// on every backend — des.Engine's documented contract. Two shard events are
// scheduled so the later one is launched early (where the engine launches
// at all); after the run both handles are cancelled, and then cancelled
// again once their slots have been recycled by a live event, which the
// handle's generation must protect.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	opt, ctrl := mkOptimistic(2, 2)
	engines := []struct {
		name string
		e    des.Engine
	}{
		{"sequential", des.NewEngine()},
		{"heap", des.NewHeapEngine()},
		{"conservative", mkConservative(2, 2)},
		{"optimistic", opt},
	}
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e
			fired := 0
			body := func() func() { return func() { fired++ } }
			hs := []des.Handle{e.AtShard(0, 0.1, body), e.AtShard(1, 0.2, body)}
			// A third event keeps shard 1 speculating after its first
			// phase pops, so a misdirected rollback would have a victim.
			e.AtShard(0, 0.3, func() func() {
				return func() {
					for _, h := range hs {
						if !h.Cancelled() {
							t.Error("fired handle does not report Cancelled")
						}
						e.Cancel(h)
					}
				}
			})
			e.AtShard(1, 0.4, body)
			e.Run()
			if fired != 3 || e.Pending() != 0 {
				t.Fatalf("fired %d pending %d after cancelling fired handles, want 3 and 0", fired, e.Pending())
			}
			// Recycle the fired events' storage, then cancel the stale
			// handles again: the new tenants must survive.
			for i := 0; i < 4; i++ {
				e.AtShard(i%2, 1.0+des.Time(i), body)
			}
			for _, h := range hs {
				e.Cancel(h)
			}
			if e.Pending() != 4 {
				t.Fatalf("pending %d after stale cancels, want 4 — a stale handle cancelled a recycled slot", e.Pending())
			}
			e.Run()
			if fired != 7 {
				t.Fatalf("fired %d, want 7", fired)
			}
		})
	}
	ctrl.balanced(t)
	if ctrl.rolledBack != 0 {
		t.Fatalf("cancelling fired handles rolled back %d speculations", ctrl.rolledBack)
	}
}

// The calendar keys buckets on femtoseconds in a uint64, which saturates at
// ≈18,446.744 virtual seconds. A global event that starts just below the
// boundary and re-arms itself across it must keep running on every engine:
// once the open bucket's end wraps, later events belong to it, not to a
// ring bucket behind the cursor.
func TestRearmAcrossCalendarSaturation(t *testing.T) {
	opt, _ := mkOptimistic(2, 2)
	engines := []struct {
		name string
		e    des.Engine
	}{
		{"sequential", des.NewEngine()},
		{"conservative", mkConservative(2, 2)},
		{"optimistic", opt},
	}
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e
			var fired []des.Time
			var tick func()
			tick = func() {
				fired = append(fired, e.Now())
				if len(fired) < 5 {
					e.After(0.05, tick)
				}
			}
			e.At(18446.70, tick)
			e.Run()
			if len(fired) != 5 || e.Pending() != 0 {
				t.Fatalf("fired at %v with %d pending, want 5 firings and 0", fired, e.Pending())
			}
			for i := 1; i < len(fired); i++ {
				if fired[i] <= fired[i-1] {
					t.Fatalf("firing times not increasing: %v", fired)
				}
			}
		})
	}
}

// tortureCfg selects the torture program's optional inputs. The zero value
// is the original straggler-baiting program, whose engine counters are
// pinned below.
type tortureCfg struct {
	// lookahead > 0 makes every cross-shard and global follow-on land at
	// least that far ahead, and restricts cancels to events that cannot be
	// in flight — the discipline the conservative mode demands.
	lookahead des.Time
	forms     bool     // rotate AtShard / AtShardFn / AtShardCommit bodies
	cancels   bool     // cancel pending, in-flight and already-fired handles
	slice     des.Time // > 0: drive with RunUntil slices this wide, not Run
	// Hooks: phase runs inside every state mutation (on whichever goroutine
	// executes it), commit at the start of every commit (on the driver).
	phase, commit func()
}

// tortureTally counts what the optional inputs actually exercised.
type tortureTally struct {
	cancelPending, cancelFired, cancelInFlight int
	slices                                     int
}

// tortureWorkload drives an engine through a seeded self-expanding event
// web: every commit schedules near-future follow-ons on pseudorandom
// shards (straggler bait for whatever those shards have speculated) plus
// occasional far-future work (speculation depth) and global events
// (forced rollbacks of everything in flight). Phase bodies mutate
// per-shard state; commits log shard, timestamp, and state, so the log
// captures both order and the correctness of every rollback restore.
func tortureWorkload(e des.Engine, state []int64, shards int, cfg tortureCfg) ([]string, tortureTally) {
	var log []string
	var tally tortureTally
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	type sched struct {
		h  des.Handle
		at des.Time
	}
	var handles []sched
	pe, _ := e.(*Engine)
	cancelOne := func() {
		// Mostly recent handles (likely pending or speculated), sometimes
		// any handle ever minted (likely fired, its slot long recycled).
		span := uint64(len(handles))
		if next(4) != 0 {
			span = min(span, 16)
		}
		c := handles[uint64(len(handles))-1-next(span)]
		switch {
		case c.h.Cancelled():
			tally.cancelFired++
		case cfg.lookahead > 0 && c.at < e.Now()+cfg.lookahead:
			return // may be in flight: off limits under the lookahead discipline
		default:
			tally.cancelPending++
		}
		var before uint64
		if pe != nil {
			before = pe.stats.RolledBack
		}
		e.Cancel(c.h)
		if pe != nil && pe.stats.RolledBack != before {
			tally.cancelInFlight++
		}
	}
	budget := 2500
	var schedule func(from, shard int, t des.Time)
	phase := func(shard int) int64 {
		if cfg.phase != nil {
			cfg.phase()
		}
		state[shard] = state[shard]*3 + int64(shard) + 1
		return state[shard]
	}
	commit := func(shard int, t des.Time, v int64) {
		if cfg.commit != nil {
			cfg.commit()
		}
		log = append(log, fmt.Sprintf("%d@%.9f=%d", shard, t, v))
		if budget <= 0 {
			return
		}
		budget--
		// Near follow-on: lands close behind the frontier, below most
		// speculated timestamps on its target shard.
		schedule(shard, int(next(uint64(shards))), e.Now()+1e-6+des.Time(next(1000))*1e-5)
		if next(4) == 0 {
			// Far follow-on: keeps shards speculating deep.
			schedule(shard, int(next(uint64(shards))), e.Now()+2.0+des.Time(next(100))*1e-3)
		}
		if next(40) == 0 {
			at := e.Now() + 1e-6 + cfg.lookahead
			e.At(at, func() {
				log = append(log, fmt.Sprintf("g@%.9f", at))
			})
		}
		if cfg.cancels && next(6) == 0 {
			cancelOne()
		}
	}
	pfn := func(_ any, shard int64, t des.Time) func() {
		v := phase(int(shard))
		return func() { commit(int(shard), t, v) }
	}
	cfn := func(_ any, shard int64, t des.Time) { commit(int(shard), t, phase(int(shard))) }
	schedule = func(from, shard int, t des.Time) {
		if shard != from {
			t += cfg.lookahead
		}
		form := uint64(0)
		if cfg.forms {
			form = next(3)
		}
		var h des.Handle
		switch form {
		case 0:
			h = e.AtShard(shard, t, func() func() {
				v := phase(shard)
				return func() { commit(shard, t, v) }
			})
		case 1:
			h = e.AtShardFn(shard, t, pfn, nil, int64(shard))
		case 2:
			h = e.AtShardCommit(shard, t, cfn, nil, int64(shard))
		}
		if cfg.cancels {
			handles = append(handles, sched{h, t})
		}
	}
	for s := 0; s < shards; s++ {
		// Spread the seeds a full virtual second apart so every shard
		// starts far outside any conservative lookahead window.
		schedule(s, s, 0.1+des.Time(s))
	}
	if cfg.slice <= 0 {
		e.Run()
	}
	for e.Pending() > 0 {
		e.RunUntil(e.Now() + cfg.slice)
		tally.slices++
	}
	return log, tally
}

// tortureLookahead is the conservative torture variant's lookahead: a tenth
// of the near follow-ons' spread, so the window routinely holds several
// shards' minima.
const tortureLookahead = 1e-3

// TestTortureCascadesMatchSequential is the differential torture test: thousands of
// events whose commits continually schedule into the past of deep
// speculations (or, in the lookahead-respecting variant, right at the
// conservative window's edge), cancel handles in every lifecycle state,
// mix all three sharded body forms, and cut the run into RunUntil slices
// must produce a commit log — order, timestamps, and rolled-back-and-
// restored shard state — byte-equal to the des.Heap oracle's on the
// sequential engine and on the parallel engine in both modes, on several
// worker counts.
func TestTortureCascadesMatchSequential(t *testing.T) {
	const shards = 8
	for _, cfg := range []tortureCfg{
		{},
		{forms: true},
		{cancels: true},
		{slice: 0.05},
		{forms: true, cancels: true, slice: 0.05},
		{lookahead: tortureLookahead},
		{lookahead: tortureLookahead, forms: true, cancels: true, slice: 0.05},
	} {
		t.Run(fmt.Sprintf("%+v", cfg), func(t *testing.T) {
			wantState := make([]int64, shards)
			want, tally := tortureWorkload(des.NewHeapEngine(), wantState, shards, cfg)
			if len(want) < 2000 {
				t.Fatalf("torture workload produced only %d events; the web failed to expand", len(want))
			}
			if cfg.cancels && (tally.cancelPending == 0 || tally.cancelFired == 0) {
				t.Fatalf("cancel tally %+v: want pending and fired handles both cancelled", tally)
			}
			if cfg.slice > 0 && tally.slices < 10 {
				t.Fatalf("only %d RunUntil slices", tally.slices)
			}
			check := func(name string, e des.Engine, state []int64) tortureTally {
				t.Helper()
				got, tally := tortureWorkload(e, state, shards, cfg)
				if len(got) != len(want) {
					t.Fatalf("%s: %d committed events, want %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: commit %d = %q, want %q", name, i, got[i], want[i])
					}
				}
				for s := range wantState {
					if state[s] != wantState[s] {
						t.Fatalf("%s: shard %d final state %d, want %d", name, s, state[s], wantState[s])
					}
				}
				return tally
			}
			check("sequential", des.NewEngine(), make([]int64, shards))
			for _, workers := range []int{1, 2, 8} {
				e, c := mkOptimistic(shards, workers)
				tally := check(fmt.Sprintf("optimistic/workers=%d", workers), e, c.state)
				c.balanced(t)
				if cfg.lookahead == 0 && e.stats.RolledBack == 0 {
					t.Fatal("torture run never rolled back — the cascade pressure is gone")
				}
				if cfg.cancels && cfg.lookahead == 0 && tally.cancelInFlight == 0 {
					t.Fatal("no cancel ever hit an in-flight speculation")
				}
				if cfg.lookahead == 0 {
					continue
				}
				ce := New(Options{Lookahead: cfg.lookahead, Shards: shards, Workers: workers})
				check(fmt.Sprintf("conservative/workers=%d", workers), ce, make([]int64, shards))
				if ce.stats.Launched == 0 || ce.stats.RolledBack != 0 {
					t.Fatalf("conservative stats %+v: want launches and no rollbacks", ce.stats)
				}
			}
		})
	}
}

// TestSpeculationStatsDeterministic holds the unified engine to its parents'
// launch decisions: the engine counters for the original torture program
// (optimistic) and for its lookahead-respecting variant (conservative) are
// the values internal/optsim and the pointer-heap internal/parsim produced
// at the commit before the two engines were merged. The counters depend
// only on calendar state at each step — never on worker timing — so they
// are identical run-to-run and across worker counts.
func TestSpeculationStatsDeterministic(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		e, c := mkOptimistic(8, workers)
		tortureWorkload(e, c.state, 8, tortureCfg{})
		want := Stats{Launched: 3706, Committed: 2363, RolledBack: 1343, Inline: 799, Global: 61, MaxInFlight: 8, MaxGVTLag: 7.1}
		if got := e.EngineStats(); got != want {
			t.Fatalf("optimistic workers=%d: stats %+v, want the parent engine's %+v", workers, got, want)
		}
		if wf := want.WastedFraction(); wf <= 0 || wf >= 1 {
			t.Fatalf("wasted fraction %v out of (0,1)", wf)
		}

		ce := New(Options{Lookahead: tortureLookahead, Shards: 8, Workers: workers})
		tortureWorkload(ce, make([]int64, 8), 8, tortureCfg{lookahead: tortureLookahead})
		got := ce.EngineStats()
		got.MaxGVTLag = 0 // not a counter the conservative parent kept
		// The parent counted Launched at pop — today's Committed.
		if want := (Stats{Launched: 1922, Committed: 1922, Inline: 1240, Global: 61, MaxInFlight: 8}); got != want {
			t.Fatalf("conservative workers=%d: stats %+v, want the parent engine's %+v", workers, got, want)
		}
	}
}
