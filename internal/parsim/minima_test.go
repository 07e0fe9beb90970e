package parsim

import (
	"fmt"
	"math/bits"
	"testing"

	"charmgo/internal/des"
)

// minimaProbe checks the launch pipeline's cached state after every step:
// the engine calls EventExecuted at the end of each one, on the driver.
type minimaProbe struct {
	t      *testing.T
	e      *Engine
	steps  int
	failed bool
}

func (p *minimaProbe) WallNow() int64                              { return 0 }
func (p *minimaProbe) PhaseWall(int, des.Time, int64, int64, bool) {}
func (p *minimaProbe) WindowStall(des.Time)                        {}
func (p *minimaProbe) SpecLaunched(int, des.Time, des.Time)        {}
func (p *minimaProbe) SpecRolledBack(int, des.Time, int64)         {}

// EventExecuted compares every cached candidate and ready bit with a scan
// of the calendar's slab for that shard's (or the globals') pending events:
// the candidate must be the earliest, the heap must hold the rest, the bit
// must be set iff the candidate has a phase and is not launched.
func (p *minimaProbe) EventExecuted(int, des.Time, int) {
	p.steps++
	if p.failed {
		return
	}
	e := p.e
	want := make([]candidate, len(e.flights)+1)
	pending := make([]int, len(want))
	e.cal.Scan(func(k des.Ent, ev *des.Event) {
		q := len(e.flights)
		if k.Shard >= 0 {
			q = int(k.Shard)
		}
		pending[q]++
		if w := &want[q]; !w.ok || k.Before(w.Ent) {
			*w = candidate{minEnt: minEnt{Ent: k, phase: ev.Pfn != nil}, ok: true}
		}
	})
	for q, w := range want {
		c := e.cand[q]
		ready := e.ready[q>>6]>>(q&63)&1 == 1
		wantReady := w.phase && !e.flights[q].active // a global has no phase
		if n := len(e.minima[q]); c.ok && n+1 != pending[q] || !c.ok && n != 0 {
			p.failed = true
			p.t.Errorf("after step %d (now %v): heap %d holds %d entries beside its candidate (cached: %v), the calendar %d events",
				p.steps, e.now, q, n, c.ok, pending[q])
			return
		}
		if c.ok != w.ok || w.ok && c.minEnt != w.minEnt || ready != wantReady {
			p.failed = true
			p.t.Errorf("after step %d (now %v): heap %d caches %+v ready=%v, the calendar says %+v ready=%v",
				p.steps, e.now, q, c, ready, w, wantReady)
			return
		}
	}
}

// TestMinimaMatchCalendarScan is the launch pipeline's property test: over
// the torture workload in both modes and at several worker counts, every
// cached shard candidate, heap and ready bit equals what a scan of the
// calendar says after every step. The pending sets are exact, so a step
// that failed to drop the popped event shows at once.
func TestMinimaMatchCalendarScan(t *testing.T) {
	const shards = 8
	for _, conservative := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("conservative=%v/workers=%d", conservative, workers), func(t *testing.T) {
				cfg := tortureCfg{forms: true}
				var e *Engine
				state := make([]int64, shards)
				if conservative {
					cfg.lookahead = tortureLookahead
					e = New(Options{Lookahead: tortureLookahead, Shards: shards, Workers: workers})
				} else {
					var c *sliceCtrl
					e, c = mkOptimistic(shards, workers)
					state = c.state
				}
				p := &minimaProbe{t: t, e: e}
				e.SetProbe(p)
				tortureWorkload(e, state, shards, cfg)
				if p.steps < 2000 {
					t.Fatalf("%d steps: want a long run", p.steps)
				}
				if e.stats.Launched == 0 {
					t.Fatal("nothing launched: the candidates were never used")
				}
				var left int
				for _, m := range e.ready {
					left += bits.OnesCount64(m)
				}
				if left != 0 || e.cal.Len() != 0 {
					t.Fatalf("%d ready bits and %d events left after the run drained", left, e.cal.Len())
				}
			})
		}
	}
}
