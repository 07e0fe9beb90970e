package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"charmgo/internal/apps/leanmd"
	"charmgo/internal/apps/pdes"
	"charmgo/internal/apps/stencil"
	"charmgo/internal/chaos"
	"charmgo/internal/charm"
	"charmgo/internal/lb"
	"charmgo/internal/machine"
	"charmgo/internal/projections"
)

// workload is one named set of inputs. Why is the one-line reason it is in
// the suite (echoed in BENCHMARK.json and the README); Ref names the
// workload whose digest this one must reproduce on the same seed ("" means
// its own first repetition is the reference), and RefLayer the layer whose
// overhead_x the wall-time ratio to that reference measures.
type workload struct {
	Name     string
	Why      string
	Ref      string
	RefLayer string
	spec     func(seed int64, smoke bool) spec
}

// spec is a workload's full input, echoed verbatim into every report. One
// flat struct covers the three apps; fields of the other two stay zero.
type spec struct {
	App     string `json:"app"`     // stencil | phold | leanmd
	Machine string `json:"machine"` // testbed | vesta
	PEs     int    `json:"pes"`
	Backend string `json:"backend"`
	Traced  bool   `json:"projections,omitempty"`
	Seed    int64  `json:"seed"`

	GridN  int `json:"grid_n,omitempty"`
	Chares int `json:"chares,omitempty"`
	Iters  int `json:"iters,omitempty"`

	LPs          int     `json:"lps,omitempty"`
	EventsPerLP  int     `json:"events_per_lp,omitempty"`
	TargetEvents int     `json:"target_events,omitempty"`
	Lookahead    float64 `json:"lookahead,omitempty"`
	MeanDelay    float64 `json:"mean_delay,omitempty"`

	Cells              int     `json:"cells,omitempty"` // per dimension
	AtomsPerCell       int     `json:"atoms_per_cell,omitempty"`
	Gaussian           float64 `json:"gaussian,omitempty"`
	Steps              int     `json:"steps,omitempty"`
	LBPeriod           int     `json:"lb_period,omitempty"`
	MigratePeriod      int     `json:"migrate_period,omitempty"`
	PerInteractionWork float64 `json:"per_interaction_work,omitempty"`
	// One PE crashes at a seeded instant inside (CrashStart, CrashEnd)
	// virtual seconds; the window is kept narrow so the amount of rolled
	// back work, and with it wall_s, barely depends on the seed.
	CrashStart float64 `json:"crash_start,omitempty"`
	CrashEnd   float64 `json:"crash_end,omitempty"`
}

// Heartbeat cadence of the chaos campaign (internal/chaos/campaign.go):
// detection takes at most one period plus one timeout.
const (
	heartbeatPeriod  = 2e-4
	heartbeatTimeout = 1.5e-4
)

func stencilKernel(seed int64, smoke bool) spec {
	s := spec{App: "stencil", Machine: "testbed", PEs: 256, Backend: "sequential", Seed: seed,
		GridN: 2048, Chares: 16, Iters: 24}
	if smoke {
		s.PEs, s.GridN, s.Chares, s.Iters = 16, 256, 4, 6
	}
	return s
}

func stencilWide(seed int64, smoke bool) spec {
	s := spec{App: "stencil", Machine: "testbed", PEs: 16384, Backend: "sequential", Seed: seed,
		GridN: 1024, Chares: 128, Iters: 4}
	if smoke {
		s.PEs, s.GridN, s.Chares, s.Iters = 1024, 128, 32, 2
	}
	return s
}

func phold(backend string) func(int64, bool) spec {
	return func(seed int64, smoke bool) spec {
		s := spec{App: "phold", Machine: "testbed", PEs: 16, Backend: backend, Seed: seed,
			LPs: 256, EventsPerLP: 8, TargetEvents: 16000, Lookahead: 0.05, MeanDelay: 4}
		if smoke {
			s.PEs, s.LPs, s.TargetEvents = 8, 64, 3000
		}
		return s
	}
}

func leanMD(traced bool) func(int64, bool) spec {
	return func(seed int64, smoke bool) spec {
		s := spec{App: "leanmd", Machine: "vesta", PEs: 128, Backend: "sequential", Traced: traced, Seed: seed,
			Cells: 6, AtomsPerCell: 27, Gaussian: 6, Steps: 8, LBPeriod: 2, MigratePeriod: 4,
			PerInteractionWork: 300e-9, CrashStart: 0.00995, CrashEnd: 0.01025}
		if smoke {
			s.PEs, s.Cells, s.AtomsPerCell, s.Steps, s.LBPeriod, s.MigratePeriod = 16, 3, 12, 8, 2, 4
			s.CrashStart, s.CrashEnd = 0.0016, 0.0020
		}
		return s
	}
}

var workloads = []workload{
	{Name: "stencil_kernel", spec: stencilKernel,
		Why: "coarse grain: the Jacobi kernel is nearly all of the run, so runtime and engine changes must not move it"},
	{Name: "phold_seq", spec: phold("sequential"),
		Why: "fine grain: near-empty handlers, so per-event cost in des and charm is nearly all of the run"},
	{Name: "phold_par", spec: phold("parallel"), Ref: "phold_seq", RefLayer: "parsim",
		Why: "the same PHOLD input on the conservative parallel engine: launch, handoff and stall cost of parsim"},
	{Name: "phold_opt", spec: phold("optimistic"), Ref: "phold_seq", RefLayer: "optsim",
		Why: "the same PHOLD input on the Time Warp engine: speculation, state saving, rollback and replay cost"},
	{Name: "leanmd_lbft", spec: leanMD(false),
		Why: "the adaptive path at medium grain: load balancing, migration, forwarding, checkpoint and crash recovery"},
	{Name: "leanmd_traced", spec: leanMD(true), Ref: "leanmd_lbft", RefLayer: "projections",
		Why: "leanmd_lbft with projections attached: isolates the cost of tracing, with leanmd_lbft as its bypass"},
	{Name: "stencil_wide", spec: stencilWide,
		Why: "wide and shallow: one chare per PE on 16k PEs stresses the calendar, per-PE state, location tables and set-up"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// world is one built, not yet run, instance of a spec: the product of the
// set-up phase that setup_s times.
type world struct {
	sp      spec
	rt      *charm.Runtime
	stencil *stencil.App
	phold   *pdes.App
	leanmd  *leanmd.App
	ctrl    *chaos.Controller
	tracer  *projections.Tracer
	saved   int // LeanMD steps completed at the last checkpoint
}

// outcome is what a run produced, as far as the correctness checks need it.
type outcome struct {
	Virtual float64   // simulated elapsed seconds
	Events  uint64    // engine events executed
	Values  []float64 // app result values: residuals, energies, commit counters
}

// seededSource fills the stencil interior with a hash of (seed, x, y) in
// [0, 100): the field, and so every residual, depends on the seed while
// the amount of work does not.
func seededSource(seed int64) func(x, y int) float64 {
	return func(x, y int) float64 {
		h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(x)*0xBF58476D1CE4E5B9 + uint64(y)*0x94D049BB133111EB
		h ^= h >> 31
		h *= 0xD6E8FEB86659FD93
		h ^= h >> 29
		return float64(h>>11) / (1 << 53) * 100
	}
}

func (w *world) onCheckpoint() { w.saved = w.leanmd.Steps() }
func (w *world) onRollback()   { w.leanmd.TruncateResult(w.saved) }

// setup builds the machine, the runtime and the app and wires the hooks:
// everything a user pays before Run.
func setup(sp spec, workers int) (*world, error) {
	var mc machine.Config
	switch sp.Machine {
	case "testbed":
		mc = machine.Testbed(sp.PEs)
	case "vesta":
		mc = machine.Vesta(sp.PEs)
	default:
		return nil, fmt.Errorf("unknown machine %q", sp.Machine)
	}
	mc.Backend = sp.Backend
	mc.ParallelWorkers = workers
	w := &world{sp: sp, rt: charm.New(machine.New(mc))}
	var err error
	switch sp.App {
	case "stencil":
		w.stencil, err = stencil.New(w.rt, stencil.Config{
			GridN: sp.GridN, Chares: sp.Chares, Iters: sp.Iters, Source: seededSource(sp.Seed)})
	case "phold":
		w.phold, err = pdes.New(w.rt, pdes.Config{
			LPs: sp.LPs, EventsPerLP: sp.EventsPerLP, TargetEvents: sp.TargetEvents,
			Lookahead: sp.Lookahead, MeanDelay: sp.MeanDelay, Seed: sp.Seed})
	case "leanmd":
		w.rt.SetBalancer(lb.Greedy{})
		w.leanmd, err = leanmd.New(w.rt, leanmd.Config{
			CellsX: sp.Cells, CellsY: sp.Cells, CellsZ: sp.Cells,
			AtomsPerCell: sp.AtomsPerCell, Gaussian: sp.Gaussian, Steps: sp.Steps,
			LBPeriod: sp.LBPeriod, MigratePeriod: sp.MigratePeriod,
			PerInteractionWork: sp.PerInteractionWork, Seed: sp.Seed})
		if err == nil {
			w.ctrl, err = chaos.Enable(w.rt,
				chaos.CrashPlan(sp.Seed, 1, sp.PEs, sp.CrashStart, sp.CrashEnd),
				chaos.Options{
					CheckpointEveryRounds: 1,
					HeartbeatPeriod:       heartbeatPeriod,
					HeartbeatTimeout:      heartbeatTimeout,
					OnCheckpoint:          w.onCheckpoint,
					OnRollback:            w.onRollback,
				})
		}
	default:
		err = fmt.Errorf("unknown app %q", sp.App)
	}
	if err != nil {
		return nil, err
	}
	if sp.Traced {
		w.tracer = projections.Attach(w.rt, projections.Options{})
	}
	return w, nil
}

// run executes the built app to completion and applies the workload's
// physical sanity check. Nothing but app.Run() is costly here, so the
// caller's timer around run reads as "host seconds inside app.Run()".
func (w *world) run() (outcome, error) {
	var virtual float64
	var values []float64
	switch {
	case w.stencil != nil:
		res, err := w.stencil.Run()
		if err != nil {
			return outcome{}, err
		}
		for i := 1; i < len(res.Residuals); i++ {
			if res.Residuals[i] > res.Residuals[i-1] {
				return outcome{}, fmt.Errorf("stencil residual rose at iteration %d: %g > %g",
					i, res.Residuals[i], res.Residuals[i-1])
			}
		}
		virtual, values = float64(res.Elapsed), res.Residuals
	case w.phold != nil:
		res, err := w.phold.Run()
		if err != nil {
			return outcome{}, err
		}
		if res.Committed < w.sp.TargetEvents {
			return outcome{}, fmt.Errorf("phold committed %d of %d events", res.Committed, w.sp.TargetEvents)
		}
		virtual = float64(res.Elapsed)
		values = []float64{float64(res.Committed), float64(res.Windows), res.MaxVT}
	case w.leanmd != nil:
		res, err := w.leanmd.Run()
		if cerr := w.ctrl.Err(); cerr != nil {
			return outcome{}, cerr // the failed recovery is the cause, the stall its symptom
		}
		if err != nil {
			return outcome{}, err
		}
		if n := w.ctrl.Survived(); n != 1 {
			return outcome{}, fmt.Errorf("leanmd survived %d of 1 crashes", n)
		}
		e0, e1 := res.Energy[0], res.Energy[len(res.Energy)-1]
		if drift := math.Abs(e1-e0) / math.Abs(e0); !(drift <= 1e-2) {
			return outcome{}, fmt.Errorf("leanmd energy drift %g > 1e-2", drift)
		}
		virtual, values = float64(res.Elapsed), res.Energy
	}
	return outcome{Virtual: virtual, Events: w.rt.Engine().Executed(), Values: values}, nil
}

// digest fingerprints a finished run: every element's PUP bytes and
// placement, the app's result values, the simulated elapsed time and the
// engine's event count. Equal digests across backends, and with tracing on
// and off, are the suite's correctness criterion.
func (w *world) digest(out outcome) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%v|%v|%d", chaos.StateDigest(w.rt), out.Values, out.Virtual, out.Events)
	return hex.EncodeToString(h.Sum(nil))
}
