package chaos

import (
	"testing"

	"charmgo/internal/charm"
	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

// cellState is a fixed-size chare: its fresh instance is one allocation.
type cellState struct{ Step, Sum int64 }

func (c *cellState) Pup(p *pup.Pup) {
	p.Int64(&c.Step)
	p.Int64(&c.Sum)
}

// rotate moves every object to the next PE: each round moves all of them.
type rotate struct{}

func (rotate) Name() string { return "rotate" }
func (rotate) Balance(objs []charm.LBObject, pes []charm.LBPE) []charm.Migration {
	migs := make([]charm.Migration, len(objs))
	for i, o := range objs {
		migs[i] = charm.Migration{Array: o.Array, Idx: o.Idx, ToPE: (o.PE + 1) % len(pes)}
	}
	return migs
}

// TestAdaptiveRoundAllocs pins the heap cost of the adaptive loop: after
// warm-up rounds, one AtSync round — step, barrier, view, migrations, the
// checkpoint cut at the resume hook, resume — allocates the fresh instances
// of the n moved elements plus a constant that is the same at 64 elements
// as at 1024. The view, the image arena, the cut and the location-hint
// snapshot reuse the previous rounds' storage.
func TestAdaptiveRoundAllocs(t *testing.T) {
	const epStep, epResume = 0, 1
	var extra [2]float64
	for i, n := range []int{64, 1024} {
		rt := charm.New(machine.New(machine.Testbed(8)))
		arr := rt.DeclareArray("cells", func() charm.Chare { return &cellState{} }, []charm.Handler{
			epStep: func(obj charm.Chare, ctx *charm.Ctx, _ any) {
				c := obj.(*cellState)
				c.Step++
				c.Sum += c.Step
				ctx.Charge(1e-6)
				ctx.AtSync()
			},
			epResume: func(charm.Chare, *charm.Ctx, any) {},
		}, charm.ArrayOpts{UsesAtSync: true, ResumeEP: epResume})
		for j := 0; j < n; j++ {
			arr.Insert(charm.Idx1(j), &cellState{})
		}
		rt.SetBalancer(rotate{})
		c, err := Enable(rt, Plan{}, Options{CheckpointEveryRounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			arr.Broadcast(epStep, nil)
			rt.Run()
		}
		round() // the first cut; the second, inside AllocsPerRun, is the last into fresh storage
		allocs := testing.AllocsPerRun(4, round)
		if got, want := rt.LBRounds(), 6; got != want || c.mem.Checkpoints != want {
			t.Fatalf("n=%d: %d LB rounds and %d checkpoints, want %d each", n, got, c.mem.Checkpoints, want)
		}
		if moved := rt.Stats.Migrations; moved != uint64(6*n) {
			t.Fatalf("n=%d: %d migrations in 6 rounds, want %d", n, moved, 6*n)
		}
		extra[i] = allocs - float64(n)
		t.Logf("n=%d: %.0f allocations per round, %.0f beyond the moved elements' fresh instances", n, allocs, extra[i])
	}
	if extra[0] > 48 {
		t.Errorf("a round allocates %.0f objects beyond its moves, want <= 48", extra[0])
	}
	if extra[1] > extra[0] {
		t.Errorf("a round allocates %.0f objects beyond its moves at 1024 elements but %.0f at 64", extra[1], extra[0])
	}
}
