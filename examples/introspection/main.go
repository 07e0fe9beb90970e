// Introspection example: the runtime continuously observes itself — the
// §III-E story. A Projections-style tracer logs every entry execution
// while an imbalanced LeanMD runs, and the per-PE utilization timeline is
// computed from that log; the load database names the heaviest
// objects; and after an RTS-triggered rebalance the same instruments show
// the machine leveled out.
package main

import (
	"fmt"
	"sort"

	"charmgo"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/projections"

	"charmgo/internal/apps/leanmd"
)

func main() {
	rt := charmgo.NewRuntime(charmgo.NewMachine(machine.Testbed(8)))
	tr := projections.Attach(rt, projections.Options{})

	cfg := leanmd.Config{
		CellsX: 4, CellsY: 4, CellsZ: 4, AtomsPerCell: 27,
		Gaussian: 8, // pile the atoms up: severe imbalance
		Steps:    24, Seed: 7, MigratePeriod: 100,
		PerInteractionWork: 400e-9,
	}
	// Mid-run, the RTS notices the imbalance and rebalances itself.
	rebalanced := false
	cfg.StepHook = func(step int) {
		if step == 12 && !rebalanced {
			rebalanced = true
			rt.SetBalancer(lb.Greedy{})
			objs, pes := rt.LBView()
			maxE, avgE := lb.Imbalance(objs, pes)
			fmt.Printf("step %d: measured imbalance max/avg = %.2f — triggering LB\n",
				step, maxE/avgE)
			for _, o := range loadProfile(rt, 3) {
				fmt.Printf("  heaviest object %s%v on PE %d: %.3f ms of load\n",
					o.Array.Name(), o.Idx, o.PE, o.Load*1e3)
			}
			rep := rt.Rebalance()
			fmt.Printf("  moved %d of %d objects; predicted max load %.3f -> %.3f ms\n",
				rep.NumMoved, rep.NumObjs, rep.MaxLoad*1e3, rep.MaxLoadPost*1e3)
		}
	}

	res, err := leanmd.Run(rt, cfg)
	if err != nil {
		panic(err)
	}
	ts := res.StepTimes()
	before, after := 0.0, 0.0
	for _, v := range ts[6:12] {
		before += v / 6
	}
	for _, v := range ts[18:24] {
		after += v / 6
	}
	fmt.Printf("\nstep time before LB: %.3f ms, after: %.3f ms\n", before*1e3, after*1e3)

	fmt.Println("\nper-PE utilization timeline (one column per 0.5 ms):")
	util := tr.Utilization(0.0005)
	fmt.Print(util.Timeline(8))
	pe, mean := util.HottestPE()
	fmt.Printf("hottest PE: %d at %.0f%% mean utilization\n", pe, mean*100)
}

// loadProfile summarizes the current per-object load database: the top-k
// heaviest migratable objects.
func loadProfile(rt *charm.Runtime, k int) []charm.LBObject {
	objs, _ := rt.LBView()
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].Load != objs[j].Load {
			return objs[i].Load > objs[j].Load
		}
		return objs[i].Idx.Less(objs[j].Idx)
	})
	if k > 0 && len(objs) > k {
		objs = objs[:k]
	}
	return objs
}
