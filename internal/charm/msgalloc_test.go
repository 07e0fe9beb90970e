package charm

import (
	"fmt"
	"runtime"
	"testing"

	"charmgo/internal/machine"
	"charmgo/internal/parsim"
	"charmgo/internal/pup"
)

// pholdLP is one logical process of the PHOLD kernel below: its random
// stream and a spin accumulator that only makes its handler slow.
type pholdLP struct {
	Rng  uint64
	Spin uint64
}

func (l *pholdLP) Pup(p *pup.Pup) {
	p.Uint64(&l.Rng)
	p.Uint64(&l.Spin)
}

// pholdSpin is how many multiply-adds a slow handler runs: a few
// microseconds of wall time, past the parallel engine's grain gate, so
// helpers take the launched phases.
const pholdSpin = 4000

// The PHOLD kernel's size: LPs, events each LP starts with, and the hops
// each event makes before it stops.
const pholdLPs, pholdEvents, pholdHops = 32, 4, 30

// newPHOLD builds a PHOLD kernel — every event forwards itself to a random
// LP until its hop budget is spent — ready to run. sent, when non-nil, is
// called by each handler after its forwarding send, with whether that send
// went into the PE's effect buffer.
func newPHOLD(backend string, workers int, slow bool, sent func(ctx *Ctx, buffered bool)) (*Runtime, *Array) {
	cfg := machine.Testbed(8)
	cfg.Backend, cfg.ParallelWorkers = backend, workers
	rt := New(machine.New(cfg))
	var arr *Array
	arr = rt.DeclareArray("phold", func() Chare { return &pholdLP{} }, []Handler{
		func(obj Chare, ctx *Ctx, msg any) {
			l := obj.(*pholdLP)
			if slow {
				x := l.Spin
				for i := 0; i < pholdSpin; i++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
				l.Spin = x
			}
			ctx.Charge(1e-6)
			left := msg.(int)
			if left == 0 {
				return
			}
			l.Rng ^= l.Rng << 13
			l.Rng ^= l.Rng >> 7
			l.Rng ^= l.Rng << 17
			fx := &rt.pes[ctx.pe].fx
			n := len(fx.recs)
			ctx.Send(arr, Idx1(int(l.Rng%pholdLPs)), 0, left-1)
			if sent != nil {
				sent(ctx, len(fx.recs) > n)
			}
		},
	}, ArrayOpts{PureHandlers: true})
	for i := 0; i < pholdLPs; i++ {
		arr.Insert(Idx1(i), &pholdLP{Rng: uint64(i)*0x9E3779B97F4A7C15 | 1})
	}
	rt.Boot(func(ctx *Ctx) {
		for i := 0; i < pholdLPs*pholdEvents; i++ {
			ctx.Send(arr, Idx1(i%pholdLPs), 0, pholdHops)
		}
	})
	return rt, arr
}

// runPHOLD runs newPHOLD's kernel and returns the runtime's message
// counters, the replay-log messages its saves still hold, and where the
// launched phases ran.
func runPHOLD(t *testing.T, backend string, workers int, slow bool) (PoolStats, int64, parsim.HandoffStats) {
	t.Helper()
	rt, _ := newPHOLD(backend, workers, slow, nil)
	rt.Run()
	if got, want := rt.Stats.MsgsDelivered, uint64(pholdLPs*pholdEvents*(pholdHops+1)); got != want {
		t.Fatalf("%s: %d deliveries, want %d", backend, got, want)
	}
	var logged int64
	for _, el := range rt.dir.elems {
		if el != nil && el.save != nil {
			logged += int64(len(el.save.log))
		}
	}
	return rt.PoolStats(), logged, rt.eng.(*parsim.Engine).HandoffStats()
}

// TestMessageAllocationDeterministic: a runtime's message traffic — takes,
// recycles and the messages it had to mint — is a function of the run
// alone, the same at one worker and at eight, with the grain gate shut
// (PHOLD's sub-microsecond handlers, outside -race) or open (handlers that
// spin, so helpers run phases while the driver commits), and on a repeat.
// Every message is accounted for at the end: none is outstanding on the
// conservative engine, and on the optimistic one exactly those its
// elements' replay logs hold.
// Run it under -race with GOMAXPROCS=8 (scripts/check.sh does): the shard
// lists are touched by helpers and the driver list by the driver alone.
func TestMessageAllocationDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, backend := range []string{"parallel", "optimistic"} {
		var want PoolStats
		for i, run := range []struct {
			workers int
			slow    bool
		}{{1, false}, {8, false}, {1, true}, {8, true}, {8, false}, {8, true}} {
			name := fmt.Sprintf("%s/workers=%d/slow=%v", backend, run.workers, run.slow)
			got, logged, hand := runPHOLD(t, backend, run.workers, run.slow)
			t.Logf("%s: %+v, %d held by replay logs; helpers ran %d launched phases, grain %.0f ns", name, got, logged, hand.HelperRan, hand.GrainNs)
			if got.Fresh == 0 || got.Gets == 0 {
				t.Fatalf("%s: %+v: want the run to take and mint messages", name, got)
			}
			if got.Outstanding() != logged {
				t.Errorf("%s: %d messages outstanding at the end, want the %d the replay logs hold", name, got.Outstanding(), logged)
			}
			if run.slow && run.workers > 1 && hand.HelperRan == 0 {
				t.Errorf("%s: no helper ran a phase: the open gate was not exercised", name)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: %+v, want %+v as at workers=1 with fast handlers", name, got, want)
			}
		}
	}
}
