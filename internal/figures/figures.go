// Package figures regenerates every figure of the paper's evaluation
// (Figs 4–17; Figs 1–3 are schematics and the paper has no numbered
// tables). Each FigNN function runs the corresponding experiment on the
// virtual machine at a laptop-tractable scale — problem sizes and PE
// counts are scaled down from the paper's 1k–128k-core runs, preserving
// the shapes: who wins, by roughly what factor, and where crossovers
// fall. EXPERIMENTS.md records paper-vs-measured for each.
package figures

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/cloud"
	"charmgo/internal/des"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/malleable"
	"charmgo/internal/power"
	"charmgo/internal/pup"

	"charmgo/internal/apps/amr"
	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pingpong"
	"charmgo/internal/apps/sorting"
	"charmgo/internal/apps/stencil"
)

// Fig is one reproducible figure.
type Fig struct {
	ID    string
	Title string
	Run   func(w io.Writer) error
	// SeqOnly marks figures whose apps drive AMPI rank goroutines, which
	// park inside handlers and so only run on the sequential engine.
	SeqOnly bool
}

// backend overrides the engine every figure runtime uses; see SetBackend.
var backend string

// SetBackend routes subsequent figure runs onto the chosen engine (any
// name machine.ParseBackend accepts); the empty string keeps each machine
// config's default. Figure output is virtual-time only, so a figure's
// table is byte-identical across backends.
func SetBackend(b string) { backend = b }

// newMachine applies the backend selection to a machine config.
func newMachine(cfg machine.Config) *machine.Machine {
	if backend != "" {
		cfg.Backend = backend
	}
	return machine.New(cfg)
}

// newRuntime is the common construction path for figure runtimes.
func newRuntime(cfg machine.Config) *charm.Runtime {
	return charm.New(newMachine(cfg))
}

// All returns every figure in order.
func All() []Fig {
	return []Fig{
		{ID: "4", Title: "Temperature-aware DVFS: exec time and max temp per policy", Run: Fig04Thermal},
		{ID: "5", Title: "LeanMD shrink/expand: per-step times across reconfigurations", Run: Fig05ShrinkExpand},
		{ID: "6", Title: "Control system tunes pipelined-ping message count", Run: Fig06ControlPoint},
		{ID: "7", Title: "CHARM interop: MPI multiway-merge sort vs Charm++ HistSort", Run: Fig07Interop, SeqOnly: true},
		{ID: "8L", Title: "AMR3D strong scaling: NoLB vs DistributedLB", Run: Fig08AMRScaling},
		{ID: "8R", Title: "AMR3D checkpoint/restart time vs PEs", Run: Fig08AMRCheckpoint},
		{ID: "9", Title: "LeanMD strong scaling: with vs without HybridLB", Run: Fig09LeanMDScaling},
		{ID: "10", Title: "LeanMD in-memory checkpoint/restart vs PEs", Run: Fig10LeanMDCheckpoint},
		{ID: "11", Title: "NAMD-style strong scaling on Titan and Jaguar models", Run: Fig11NAMDScaling},
		{ID: "12", Title: "Barnes-Hut: over-decomposition and ORB LB", Run: Fig12BarnesHut},
		{ID: "13", Title: "ChaNGa-style phase breakdown vs PEs", Run: Fig13ChaNGaPhases},
		{ID: "14", Title: "LULESH: MPI vs AMPI virtualization, cache and LB", Run: Fig14Lulesh, SeqOnly: true},
		{ID: "15a", Title: "PHOLD event rate vs LPs per PE", Run: Fig15aPholdLPs},
		{ID: "15b", Title: "PHOLD with and without TRAM", Run: Fig15bPholdTram},
		{ID: "16", Title: "Stencil2D under cloud interference, with and without LB", Run: Fig16CloudStencil},
		{ID: "17", Title: "LeanMD in a heterogeneous cloud", Run: Fig17CloudLeanMD},
		{ID: "S", Title: "Paper-scale Stencil2D: 8192 PEs, 262144 chares", Run: FigScale},
	}
}

// ByID returns a figure by its identifier.
func ByID(id string) (Fig, bool) {
	for _, f := range All() {
		if f.ID == id {
			return f, true
		}
	}
	return Fig{}, false
}

func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// ---- Fig 4 ----

// thermalWorker is the iterative compute chare for the DVFS study.
type thermalWorker struct {
	Steps int
	Work  float64
}

func (t *thermalWorker) Pup(p *pup.Pup) {
	p.Int(&t.Steps)
	p.Float64(&t.Work)
}

// Fig04Thermal reproduces Fig 4: total execution time and hottest observed
// chip temperature for Base, NaiveDVFS, periodic DVFS+LB, and MetaTemp,
// with the thermal threshold at 50°C and CRAC at 74°F.
func Fig04Thermal(w io.Writer) error {
	type row struct {
		name   string
		time   float64
		temp   float64
		energy float64
	}
	runPolicy := func(pol power.Policy, lbPeriod float64) row {
		m := newMachine(machine.ThermalTestbed(8)) // 32 PEs
		m.SpreadCooling(0.8, 1.35)                 // rack-position variation
		rt := charm.New(m)
		var arr *charm.Array
		handlers := []charm.Handler{
			func(obj charm.Chare, ctx *charm.Ctx, msg any) {
				tw := obj.(*thermalWorker)
				ctx.Charge(tw.Work)
				tw.Steps--
				if tw.Steps > 0 {
					ctx.Send(arr, ctx.Index(), 0, nil)
					return
				}
				// Completion via reduction: handlers run concurrently on
				// the parallel backend, so a shared done-counter would
				// race; the reduction's commit half is serialized.
				ctx.Contribute(int64(1), charm.SumI64,
					charm.CallbackFunc(0, func(c *charm.Ctx, _ any) { c.Exit() }))
			},
		}
		arr = rt.DeclareArray("w", func() charm.Chare { return &thermalWorker{} },
			handlers, charm.ArrayOpts{Migratable: true})
		const objs = 128
		for i := 0; i < objs; i++ {
			// Round-robin placement: the Base configuration starts
			// perfectly balanced, as a tuned application would.
			arr.InsertOn(charm.Idx1(i), &thermalWorker{Steps: 216, Work: 0.1}, i%rt.NumPEs())
		}
		ctl := power.NewController(rt, pol)
		if lbPeriod > 0 {
			ctl.LBPeriod = des.Time(lbPeriod)
		}
		ctl.Start()
		arr.Broadcast(0, nil)
		end := rt.Run()
		name := pol.String()
		if pol == power.DVFSWithLB {
			name = fmt.Sprintf("LB_%.0fs", lbPeriod)
		}
		return row{name: name, time: float64(end), temp: m.HottestEver(),
			energy: m.TotalEnergyJ() / 1e3}
	}
	policies := []struct {
		pol power.Policy
		lbp float64
	}{
		{power.Base, 0},
		{power.NaiveDVFS, 0},
		{power.DVFSWithLB, 10},
		{power.DVFSWithLB, 5},
		{power.MetaTemp, 0},
	}
	rows, err := sweep(len(policies), func(i int) (row, error) {
		return runPolicy(policies[i].pol, policies[i].lbp), nil
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "config\texec_time_s\tmax_temp_C\tenergy_kJ")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\n", r.name, r.time, r.temp, r.energy)
	}
	return tw.Flush()
}

// ---- Fig 5 ----

// Fig05ShrinkExpand reproduces Fig 5: LeanMD per-step times across a
// shrink (256→128 PEs) and a later expand (128→256), with the
// reconfiguration spikes visible.
func Fig05ShrinkExpand(w io.Writer) error {
	rt := newRuntime(machine.Stampede(256))
	rt.SetBalancer(lb.Greedy{})
	mgr := malleable.NewManager(rt)
	cfg := leanmd.Config{
		CellsX: 8, CellsY: 8, CellsZ: 4, AtomsPerCell: 25,
		Steps: 120, Seed: 3, MigratePeriod: 200,
		// Full non-bonded electrostatics per pair: compute dominates the
		// step, as in the real application.
		PerInteractionWork: 500e-9,
		// Periodic AtSync LB keeps the baseline balanced (offset so LB
		// steps never coincide with the reconfiguration steps).
		LBPeriod: 6,
	}
	// StepHook cannot return an error: keep the first and report it after
	// the run.
	var hookErr error
	cfg.StepHook = func(step int) {
		var err error
		switch step {
		case 40:
			err = mgr.Reconfigure(128)
		case 80:
			err = mgr.Reconfigure(256)
		}
		if hookErr == nil {
			hookErr = err
		}
	}
	res, err := leanmd.Run(rt, cfg)
	if err == nil {
		err = hookErr
	}
	if err != nil {
		return err
	}
	ts := res.StepTimes()
	tw := table(w)
	fmt.Fprintln(tw, "step\ttime_per_step_s\tPEs")
	pes := 256
	for i, t := range ts {
		if i == 40 {
			pes = 128
		}
		if i == 80 {
			pes = 256
		}
		if i%4 == 0 || i == 40 || i == 80 {
			fmt.Fprintf(tw, "%d\t%.4f\t%d\n", i, t, pes)
		}
	}
	for _, ev := range mgr.Events {
		fmt.Fprintf(tw, "# reconfigure %d->%d PEs took %.2fs\t\t\n", ev.FromPEs, ev.ToPEs, float64(ev.Duration))
	}
	return tw.Flush()
}

// ---- Fig 6 ----

// Fig06ControlPoint reproduces Fig 6: the underlying time-vs-pipelining
// curve and the control system's tuning trajectory converging onto it.
func Fig06ControlPoint(w io.Writer) error {
	mk := func() *charm.Runtime { return newRuntime(machine.Stampede(32)) }
	counts := []int{1, 2, 4, 6, 8, 12, 16, 24, 32, 40}
	curve, err := pingpong.Sweep(mk, pingpong.Config{}, counts)
	if err != nil {
		return err
	}
	res, err := pingpong.Run(mk(), pingpong.Config{Steps: 40})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "pipeline_msgs\tfixed_time_per_step_s")
	ks := make([]int, 0, len(curve))
	for k := range curve {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		fmt.Fprintf(tw, "%d\t%.6f\n", k, curve[k])
	}
	fmt.Fprintln(tw, "\nstep\ttuned_pipeline\ttuned_time_s")
	for i := range res.StepTimes {
		fmt.Fprintf(tw, "%d\t%d\t%.6f\n", i, res.PipeValues[i], res.StepTimes[i])
	}
	fmt.Fprintf(tw, "# converged to %d pipeline messages\t\t\n", res.FinalPipe)
	return tw.Flush()
}

// ---- Fig 7 ----

// Fig07Interop reproduces Fig 7: strong scaling of the per-step useful
// computation against the two sorting libraries; the MPI multiway merge
// becomes the bottleneck while HistSort stays a small fraction.
func Fig07Interop(w io.Writer) error {
	const totalKeys = 1 << 20
	pesList := []int{8, 32, 128, 512}
	type point struct{ ms, hs *sorting.Result }
	pts, err := sweep(len(pesList), func(i int) (point, error) {
		p := pesList[i]
		keys := totalKeys / p
		run := func(algo sorting.Algo) (*sorting.Result, error) {
			return sorting.Run(newRuntime(machine.Testbed(p)), sorting.Config{
				Ranks: p, KeysPerRank: keys, Algo: algo, Seed: 7,
				ComputePerKey: 2e-6,
			})
		}
		ms, err := run(sorting.MergeTree)
		if err != nil {
			return point{}, err
		}
		// HistSort goes via the §III-G interop interface.
		hs, err := run(sorting.HistSortCharm)
		return point{ms: ms, hs: hs}, err
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "PEs\tuseful_s\tmerge_sort_s\thistsort_s\tmerge_frac\thist_frac")
	for i, p := range pesList {
		ms, hs := pts[i].ms, pts[i].hs
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\t%.1f%%\t%.1f%%\n",
			p, ms.ComputeTime, ms.SortTime, hs.SortTime,
			ms.SortFraction*100, hs.SortFraction*100)
	}
	return tw.Flush()
}

// ---- Fig 8 ----

// Fig08AMRScaling reproduces the left panel of Fig 8: AMR3D strong
// scaling with and without the distributed load balancer.
func Fig08AMRScaling(w io.Writer) error {
	run := func(pes int, balance bool) (float64, error) {
		rt := newRuntime(machine.Vesta(pes))
		if balance {
			rt.SetBalancer(lb.Distributed{Seed: 11})
		}
		res, err := amr.Run(rt, amr.Config{
			MinDepth: 2, MaxDepth: 5, StartDepth: 3, BlockSize: 8,
			Steps: 12, RemeshPeriod: 4, Rebalance: balance,
			PerCellWork: 200e-9,
		})
		if err != nil {
			return 0, err
		}
		ts := res.StepTimes()
		sum := 0.0
		for _, v := range ts[len(ts)-4:] {
			sum += v
		}
		return sum / 4, nil
	}
	pesList := []int{16, 32, 64, 128, 256}
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
	fmt.Fprintln(tw, "PEs\tNoLB_s_per_step\tDistributedLB_s_per_step\tideal_s_per_step")
	base := pts[0].with * float64(pesList[0])
	for i, pes := range pesList {
		fmt.Fprintf(tw, "%d\t%.5f\t%.5f\t%.5f\n", pes, pts[i].no, pts[i].with, base/float64(pes))
	}
	return tw.Flush()
}

// Fig08AMRCheckpoint reproduces the right panel of Fig 8: disk checkpoint
// and restart times falling (checkpoint) and flattening/ rising (restart)
// with PE count for a fixed mesh.
func Fig08AMRCheckpoint(w io.Writer) error {
	pesList := []int{256, 512, 1024, 2048, 4096}
	type point struct{ ck, rs float64 }
	pts, err := sweep(len(pesList), func(i int) (point, error) {
		pes := pesList[i]
		rt := newRuntime(machine.Vesta(pes))
		app, err := amr.New(rt, amr.Config{
			MinDepth: 4, MaxDepth: 4, StartDepth: 4, BlockSize: 8,
			Steps: 1, RemeshPeriod: 0,
		})
		if err != nil {
			return point{}, err
		}
		if _, err := app.Run(); err != nil {
			return point{}, err
		}
		snap := ckpt.Capture(rt)
		tm := ckpt.DefaultModel(pes)
		return point{
			ck: float64(ckpt.DiskCheckpointTime(snap, pes, tm)),
			rs: float64(ckpt.DiskRestartTime(snap, pes, tm)),
		}, nil
	})
	if err != nil {
		return err
	}
	tw := table(w)
	fmt.Fprintln(tw, "PEs\tcheckpoint_s\trestart_s")
	for i, pes := range pesList {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\n", pes, pts[i].ck, pts[i].rs)
	}
	return tw.Flush()
}

// ---- Fig 16 ----

// Fig16CloudStencil reproduces Fig 16 plus the in-text over-decomposition
// numbers of §IV-F.1: Stencil2D on 32 cloud VMs, an interfering VM
// arriving mid-run, with and without heterogeneity-aware LB.
func Fig16CloudStencil(w io.Writer) error {
	const iters = 200
	run := func(withLB bool) (*stencil.Result, error) {
		rt := newRuntime(machine.Cloud(32))
		lbPeriod := 0
		if withLB {
			rt.SetBalancer(lb.Refine{Tolerance: 1.1})
			lbPeriod = 20 // "load balancing happens every 20 steps"
		}
		// The interfering VM starts one-quarter into the run.
		app, err := stencil.New(rt, stencil.Config{
			GridN: 576, Chares: 16, Iters: iters, LBPeriod: lbPeriod,
			PerPointWork: 60e-9,
		})
		if err != nil {
			return nil, err
		}
		// Estimate the iteration-100 time from a few warm iterations is
		// unnecessary: inject at a fixed virtual time chosen inside the
		// run (≈ iteration 100 of the unperturbed run).
		probe, err := stencil.Run(newRuntime(machine.Cloud(32)), stencil.Config{GridN: 576, Chares: 16,
			Iters: 10, PerPointWork: 60e-9})
		if err != nil {
			return nil, err
		}
		at := float64(probe.Elapsed) / 10 * 100
		cloud.InterfereNode(rt, 0, des.Time(at), -1, 0.6)
		return app.Run()
	}
	mainRuns, err := sweep(2, func(i int) (*stencil.Result, error) {
		return run(i == 1)
	})
	if err != nil {
		return err
	}
	noLB, withLB := mainRuns[0], mainRuns[1]
	tw := table(w)
	fmt.Fprintln(tw, "iter\tNoLB_iter_s\tLB_iter_s")
	nt, lt := noLB.IterTimes(), withLB.IterTimes()
	for i := 0; i < iters; i += 10 {
		fmt.Fprintf(tw, "%d\t%.5f\t%.5f\n", i, nt[i], lt[i])
	}

	// §IV-F.1: 1 chare/process vs 8 chares/process on 32 VMs.
	// 36 blocks ≈ 1 per VM (32 VMs); 256 blocks = 8 per VM.
	overRuns, err := sweep(2, func(i int) (float64, error) {
		res, err := stencil.Run(newRuntime(machine.Cloud(32)), stencil.Config{GridN: 576, Chares: []int{6, 16}[i],
			Iters: 10, PerPointWork: 60e-9})
		if err != nil {
			return 0, err
		}
		ts := res.IterTimes()
		sum := 0.0
		for _, v := range ts[2:] {
			sum += v
		}
		return sum / float64(len(ts)-2), nil
	})
	if err != nil {
		return err
	}
	one, eight := overRuns[0], overRuns[1]
	fmt.Fprintf(tw, "# over-decomposition: 1 chare/VM %.2fms/iter -> 8 chares/VM %.2fms/iter (%.1fx)\t\t\n",
		one*1e3, eight*1e3, one/eight)
	return tw.Flush()
}
