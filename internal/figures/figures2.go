package figures

import (
	"fmt"
	"io"

	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/cloud"
	"charmgo/internal/lb"
	"charmgo/internal/machine"

	"charmgo/internal/apps/barnes"
	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/lulesh"
	"charmgo/internal/apps/pdes"
)

// leanmdSteady runs LeanMD on rt and returns the mean of the last k
// per-step times.
func leanmdSteady(rt *charm.Runtime, cfg leanmd.Config, k int) (float64, error) {
	res, err := leanmd.Run(rt, cfg)
	if err != nil {
		return 0, err
	}
	ts := res.StepTimes()
	if len(ts) < k {
		k = len(ts)
	}
	sum := 0.0
	for _, v := range ts[len(ts)-k:] {
		sum += v
	}
	return sum / float64(k), nil
}

// ---- Fig 9 ----

// Fig09LeanMDScaling reproduces Fig 9: LeanMD strong scaling with and
// without the hierarchical load balancer on a BG/Q model (the paper's
// 2.8M-atom system scaled down ~100×, Gaussian-skewed for imbalance).
func Fig09LeanMDScaling(w io.Writer) error {
	run := func(pes int, balance bool) (float64, error) {
		rt := newRuntime(machine.Vesta(pes))
		cfg := leanmd.Config{
			CellsX: 6, CellsY: 6, CellsZ: 6,
			AtomsPerCell: 27, Gaussian: 6, Steps: 10, Seed: 5,
			MigratePeriod: 100, PerInteractionWork: 300e-9,
		}
		if balance {
			rt.SetBalancer(lb.Hybrid{})
			cfg.LBPeriod = 5
		}
		return leanmdSteady(rt, cfg, 3)
	}
	pesList := []int{32, 64, 128, 256, 512, 1024}
	type point struct{ no, with float64 }
	pts, err := sweep(len(pesList), func(i int) (p point, err error) {
		if p.no, err = run(pesList[i], false); err != nil {
			return p, err
		}
		p.with, err = run(pesList[i], true)
		return p, err
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "PEs\tNoLB_s_per_step\tHybridLB_s_per_step\tspeedup_LB\tideal")
	base, basePE := pts[0].with, pesList[0]
	for i, pes := range pesList {
		fmt.Fprintf(tw, "%d\t%.5f\t%.5f\t%.2f\t%.2f\n",
			pes, pts[i].no, pts[i].with, base/pts[i].with*float64(basePE), float64(pes))
	}
	return tw.Flush()
}

// ---- Fig 10 ----

// Fig10LeanMDCheckpoint reproduces Fig 10: double in-memory checkpoint and
// restart times vs PE count for two system sizes (the paper's 2.8M / 1.6M
// atom systems scaled down).
func Fig10LeanMDCheckpoint(w io.Writer) error {
	tw := table(w)
	fmt.Fprintln(tw, "PEs\tbig_ckpt_s\tbig_restart_s\tsmall_ckpt_s\tsmall_restart_s")
	measure := func(pes, cellSide int) (ck, rs float64, err error) {
		rt := newRuntime(machine.Vesta(pes))
		if _, err := leanmd.New(rt, leanmd.Config{
			CellsX: cellSide, CellsY: cellSide, CellsZ: cellSide,
			AtomsPerCell: 27, Steps: 1, Seed: 6,
		}); err != nil {
			return 0, 0, err
		}
		m := ckpt.NewMem(rt)
		tm := ckpt.DefaultModel(pes)
		tm.Base = 3e-4
		m.SetModel(tm)
		ck = float64(m.Checkpoint())
		recovered, err := m.FailAndRecover(1)
		return ck, float64(recovered), err
	}
	pesList := []int{256, 512, 1024, 2048, 4096}
	type point struct{ bc, br, sc, sr float64 }
	pts, err := sweep(len(pesList), func(i int) (p point, err error) {
		if p.bc, p.br, err = measure(pesList[i], 20); err != nil { // "2.8M-atom" stand-in: 216k atoms
			return p, err
		}
		p.sc, p.sr, err = measure(pesList[i], 16) // "1.6M-atom" stand-in: 110k atoms
		return p, err
	})
	if err != nil {
		return err
	}
	for i, pes := range pesList {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\t%.4f\n", pes, pts[i].bc, pts[i].br, pts[i].sc, pts[i].sr)
	}
	return tw.Flush()
}

// ---- Fig 11 ----

// Fig11NAMDScaling reproduces Fig 11: strong scaling of the molecular
// dynamics engine on the Titan XK7 and Jaguar XT5 machine models (the
// 100M-atom benchmark scaled down ~7000×).
func Fig11NAMDScaling(w io.Writer) error {
	run := func(cfgMachine machine.Config) (float64, error) {
		rt := newRuntime(cfgMachine)
		rt.SetBalancer(lb.Hybrid{})
		return leanmdSteady(rt, leanmd.Config{
			CellsX: 8, CellsY: 8, CellsZ: 8, AtomsPerCell: 27,
			Gaussian: 3, Steps: 6, LBPeriod: 3, Seed: 7, MigratePeriod: 100,
		}, 3)
	}
	pesList := []int{32, 64, 128, 256, 512}
	type point struct{ t, j float64 }
	pts, err := sweep(len(pesList), func(i int) (p point, err error) {
		if p.t, err = run(machine.Titan(pesList[i])); err != nil {
			return p, err
		}
		p.j, err = run(machine.Jaguar(pesList[i]))
		return p, err
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "PEs\tTitan_ms_per_step\tJaguar_ms_per_step")
	for i, pes := range pesList {
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\n", pes, pts[i].t*1e3, pts[i].j*1e3)
	}
	return tw.Flush()
}

// ---- Fig 12 ----

// Fig12BarnesHut reproduces Fig 12: time per step for the plain
// over-decomposed run ("500m"), with ORB load balancing ("500m_LB"), and
// with one piece per PE ("500m_NO"), on a Cray XE6 model.
func Fig12BarnesHut(w io.Writer) error {
	center := [3]float64{0.30, 0.34, 0.62}
	run := func(pes, depth int, balance bool) (float64, error) {
		rt := newRuntime(machine.BlueWaters(pes))
		cfg := barnes.Config{
			Particles: 48000, Depth: depth, Steps: 3, Seed: 8, Center: center,
		}
		if balance {
			rt.SetBalancer(lb.ORB{})
			cfg.LBPeriod = 2
		}
		res, err := barnes.Run(rt, cfg)
		if err != nil {
			return 0, err
		}
		return res.MeanPhases().Total, nil
	}
	// Depth for ~1 piece/PE vs 8 pieces/PE.
	noDepth := func(pes int) int {
		d := 0
		for (1 << (3 * d)) < pes {
			d++
		}
		if d < 1 {
			d = 1
		}
		return d
	}
	pesList := []int{8, 64, 512}
	type point struct{ no, plain, balanced float64 }
	pts, err := sweep(len(pesList), func(i int) (p point, err error) {
		pes := pesList[i]
		nd := noDepth(pes)
		if p.no, err = run(pes, nd, false); err != nil {
			return p, err
		}
		if p.plain, err = run(pes, nd+1, false); err != nil {
			return p, err
		}
		p.balanced, err = run(pes, nd+1, true)
		return p, err
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "PEs\t500m_NO_s\t500m_s\t500m_LB_s")
	for i, pes := range pesList {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\n", pes, pts[i].no, pts[i].plain, pts[i].balanced)
	}
	return tw.Flush()
}

// ---- Fig 13 ----

// Fig13ChaNGaPhases reproduces Fig 13: the per-phase breakdown (DD, tree
// build, gravity, LB, total) of the cosmology-style run across PE counts.
func Fig13ChaNGaPhases(w io.Writer) error {
	pesList := []int{64, 128, 256, 512}
	pts, err := sweep(len(pesList), func(i int) (barnes.PhaseTimes, error) {
		rt := newRuntime(machine.BlueWaters(pesList[i]))
		rt.SetBalancer(lb.ORB{})
		res, err := barnes.Run(rt, barnes.Config{
			Particles: 50000, Depth: 3, Steps: 4, Seed: 9,
			Uniform: true, LBPeriod: 2,
		})
		if err != nil {
			return barnes.PhaseTimes{}, err
		}
		return res.MeanPhases(), nil
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "PEs\tGravity_s\tDD_s\tTB_s\tLB_s\tTotal_s")
	for i, pes := range pesList {
		m := pts[i]
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\n",
			pes, m.Gravity, m.DD, m.TB, m.LB, m.Total)
	}
	return tw.Flush()
}

// ---- Fig 14 ----

// Fig14Lulesh reproduces Fig 14: LULESH weak scaling under native MPI,
// AMPI v=1, AMPI v=8 (cache blocking), and AMPI v=8 with load balancing,
// plus the non-cubic PE counts virtualization unlocks.
func Fig14Lulesh(w io.Writer) error {
	iters := 4
	// Hopper-like nodes with 8 PEs sharing 12 MB of cache: the same
	// 1.5 MB per-PE share as the real 24-core/36 MB Hopper node, but PE
	// counts that divide into cubic rank grids.
	hopper8 := func(pes int) machine.Config {
		c := machine.Hopper(pes)
		c.NumNodes = (pes + 7) / 8
		c.PEsPerNode = 8
		c.CachePerNodeBytes = 12 << 20
		c.TorusDims = nil
		return c
	}
	run := func(pes, rankSide, elemSide int, native bool, lbPeriod int) (float64, error) {
		res, err := lulesh.Run(newRuntime(hopper8(pes)), lulesh.Config{
			RankSide: rankSide, ElemSide: elemSide, Iters: iters,
			Native: native, LBPeriod: lbPeriod, Seed: 10,
			Regions: 4, RegionSpread: 0.3,
		})
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	}
	cubic := []int{2, 3, 4} // cubic PE counts: 8, 27, 64
	type point struct{ mpi, v1, v8, v8lb float64 }
	cubicPts, err := sweep(len(cubic), func(i int) (p point, err error) {
		c := cubic[i]
		pes := c * c * c
		if p.mpi, err = run(pes, c, 24, true, 0); err != nil {
			return p, err
		}
		if p.v1, err = run(pes, c, 24, false, 0); err != nil {
			return p, err
		}
		if p.v8, err = run(pes, 2*c, 12, false, 0); err != nil {
			return p, err
		}
		p.v8lb, err = run(pes, 2*c, 12, false, 2)
		return p, err
	})
	if err != nil {
		return err
	}
	// Non-cubic PE counts (the paper's 3000/6000): cubic virtual ranks
	// virtualized over awkward PE counts; MPI has no entry — it cannot
	// run there at all.
	nonCubic := []int{12, 48}
	nonCubicPts, err := sweep(len(nonCubic), func(i int) (float64, error) {
		return run(nonCubic[i], 6, 12, false, 0) // 216 ranks
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "PEs\tMPI_s\tAMPI_v1_s\tAMPI_v8_s\tAMPI_v8_LB_s")
	for i, c := range cubic {
		p := cubicPts[i]
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\t%.4f\n", c*c*c, p.mpi, p.v1, p.v8, p.v8lb)
	}
	for i, pes := range nonCubic {
		fmt.Fprintf(tw, "%d\t-\t-\t%.4f\t-\n", pes, nonCubicPts[i])
	}
	return tw.Flush()
}

// ---- Fig 15 ----

// Fig15aPholdLPs reproduces Fig 15a: PHOLD event rate as LPs per PE grows
// (32 initial events per LP).
func Fig15aPholdLPs(w io.Writer) error {
	type cfg struct{ pes, lpsPerPE int }
	var cfgs []cfg
	for _, pes := range []int{16, 32, 64} {
		for _, lpsPerPE := range []int{16, 64, 256} {
			cfgs = append(cfgs, cfg{pes, lpsPerPE})
		}
	}
	rates, err := sweep(len(cfgs), func(i int) (float64, error) {
		rt := newRuntime(machine.Stampede(cfgs[i].pes))
		lps := cfgs[i].pes * cfgs[i].lpsPerPE
		res, err := pdes.Run(rt, pdes.Config{
			LPs: lps, EventsPerLP: 8, TargetEvents: lps * 16, Seed: 11,
		})
		if err != nil {
			return 0, err
		}
		return res.EventRate, nil
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "PEs\tLPs_per_PE\tevents_per_sec")
	for i, c := range cfgs {
		fmt.Fprintf(tw, "%d\t%d\t%.0f\n", c.pes, c.lpsPerPE, rates[i])
	}
	return tw.Flush()
}

// Fig15bPholdTram reproduces Fig 15b: event rates with and without TRAM at
// low and high event densities (the paper's 64 vs 1024 events/LP scaled).
func Fig15bPholdTram(w io.Writer) error {
	type cfg struct{ pes, epl int }
	var cfgs []cfg
	for _, pes := range []int{16, 32, 64} {
		for _, epl := range []int{2, 24} {
			cfgs = append(cfgs, cfg{pes, epl})
		}
	}
	type point struct{ direct, tram float64 }
	pts, err := sweep(len(cfgs), func(i int) (_ point, err error) {
		pes, epl := cfgs[i].pes, cfgs[i].epl
		lps := pes * 64
		rate := func(useTram bool) (float64, error) {
			res, err := pdes.Run(newRuntime(machine.Stampede(pes)), pdes.Config{
				LPs: lps, EventsPerLP: epl, TargetEvents: lps * epl * 2,
				UseTram: useTram, Seed: 12,
			})
			if err != nil {
				return 0, err
			}
			return res.EventRate, nil
		}
		var p point
		if p.direct, err = rate(false); err != nil {
			return p, err
		}
		p.tram, err = rate(true)
		return p, err
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "PEs\tevents_per_LP\tdirect_ev_per_s\ttram_ev_per_s")
	for i, c := range cfgs {
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.0f\n", c.pes, c.epl, pts[i].direct, pts[i].tram)
	}
	return tw.Flush()
}

// ---- Fig 17 ----

// Fig17CloudLeanMD reproduces Fig 17: LeanMD time per step in a cloud
// where one node runs at 0.7× — without LB, with heterogeneity-aware LB,
// and on the homogeneous cluster for reference.
func Fig17CloudLeanMD(w io.Writer) error {
	run := func(pes int, hetero, balance bool) (float64, error) {
		rt := newRuntime(machine.Cloud(pes))
		if hetero {
			cloud.SlowNode(rt, 0, 0.7)
		}
		cfg := leanmd.Config{
			CellsX: 6, CellsY: 6, CellsZ: 6, AtomsPerCell: 27,
			Steps: 21, Seed: 13, MigratePeriod: 100,
			PerInteractionWork: 900e-9,
		}
		if balance {
			rt.SetBalancer(lb.Refine{Tolerance: 1.05})
			cfg.LBPeriod = 10
		}
		return leanmdSteady(rt, cfg, 8)
	}
	pesList := []int{32, 64, 128, 256}
	type point struct{ heteroNo, heteroLB, homoLB float64 }
	pts, err := sweep(len(pesList), func(i int) (p point, err error) {
		pes := pesList[i]
		if p.heteroNo, err = run(pes, true, false); err != nil {
			return p, err
		}
		if p.heteroLB, err = run(pes, true, true); err != nil {
			return p, err
		}
		p.homoLB, err = run(pes, false, true)
		return p, err
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "PEs\tHeteroNoLB_s\tHeteroLB_s\tHomoLB_s")
	for i, pes := range pesList {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\n", pes,
			pts[i].heteroNo, pts[i].heteroLB, pts[i].homoLB)
	}
	return tw.Flush()
}
