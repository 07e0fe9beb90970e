// Package leanmd implements the LeanMD molecular-dynamics mini-app of
// §IV-B: the 3-D simulation space is decomposed into a dense chare array
// of Cells holding atoms, and a sparse 6-D chare array of pairwise Computes
// that evaluate Lennard-Jones forces between neighbouring cells — the
// non-bonded force structure of NAMD. Computes dominate the load and are
// deliberately over-decomposed (~14 per cell), which is what lets the RTS
// overlap communication with computation and balance load (Fig 9).
//
// The physics is real: jittered-lattice initial conditions, cut-off
// Lennard-Jones forces with Newton's-third-law symmetry, velocity-Verlet
// integration, periodic boundaries, and atom exchange between cells. The
// cost of each force evaluation is charged from the actual interaction
// count.
package leanmd

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/pup"
)

// Config parameterizes a run.
type Config struct {
	// CellsX/Y/Z is the cell grid; the cut-off equals the cell edge.
	CellsX, CellsY, CellsZ int
	// AtomsPerCell is the average occupancy (peak occupancy when the
	// distribution is non-uniform).
	AtomsPerCell int
	// Steps to simulate.
	Steps int
	// LBPeriod calls AtSync every LBPeriod steps; 0 disables.
	LBPeriod int
	// MigratePeriod exchanges out-of-cell atoms every MigratePeriod
	// steps; 0 disables exchange.
	MigratePeriod int
	// Gaussian concentrates atoms near the box centre, creating the load
	// imbalance the LB figures rely on; 0 gives a uniform fill.
	Gaussian float64
	// PerInteractionWork is compute seconds per pair interaction.
	PerInteractionWork float64
	// Dt is the integration step (LJ units).
	Dt   float64
	Seed int64
	// UseMulticast delivers each cell's positions to its computes as one
	// section multicast instead of ~14 individual sends.
	UseMulticast bool
	// TopoAware places cells (and their computes) with the topology-aware
	// mapper, so neighbour traffic stays within few torus hops.
	TopoAware bool
	// StepHook, when set, runs on PE 0 after each step's energy
	// reduction lands (drivers use it to trigger shrink/expand,
	// checkpoints, or failures at step boundaries).
	StepHook func(step int)
}

func (c Config) withDefaults() Config {
	if c.AtomsPerCell == 0 {
		c.AtomsPerCell = 40
	}
	if c.PerInteractionWork == 0 {
		c.PerInteractionWork = 45e-9
	}
	if c.Dt == 0 {
		c.Dt = 0.002
	}
	if c.MigratePeriod == 0 {
		c.MigratePeriod = 20
	}
	return c
}

// NumCells returns the total cell count.
func (c Config) NumCells() int { return c.CellsX * c.CellsY * c.CellsZ }

// Result reports a completed run.
type Result struct {
	// StepDone[k] is the virtual time step k's energy reduction landed.
	StepDone []des.Time
	// Energy[k] is total (kinetic + potential) energy after step k.
	Energy []float64
	// Atoms is the total atom count (constant across the run).
	Atoms   int
	Elapsed des.Time
}

// StepTimes returns per-step durations.
func (r *Result) StepTimes() []float64 {
	out := make([]float64, len(r.StepDone))
	prev := des.Time(0)
	for i, t := range r.StepDone {
		out[i] = float64(t - prev)
		prev = t
	}
	return out
}

const (
	sigma  = 1.0
	eps    = 1.0
	cutoff = 4.0 * sigma // cell edge; typical MD patch is ~4 sigma
	mass   = 1.0
	// latticeSpacing keeps initial pairs near the LJ minimum (1.122 sigma)
	// so the system starts close to equilibrium instead of detonating.
	latticeSpacing = 1.15 * sigma
)

// MaxAtomsPerCell is the densest initial packing a cell accepts.
func MaxAtomsPerCell() int {
	side := int(math.Floor(cutoff / latticeSpacing))
	return side * side * side
}

// Cell EPs.
const (
	epCellStart charm.EP = iota
	epCellForces
	epCellAtoms
	epCellResume
)

// Compute EPs.
const (
	epComputePos charm.EP = iota
	epComputeResume
)

type posMsg struct {
	Step int
	Cell [3]int // sending cell; the compute derives its A/B role itself
	Xs   []float64
}

type forceMsg struct {
	Step int
	// Src is the sending compute's canonical (A,B) identity. Forces are
	// accumulated in Src order, not arrival order, so the floating-point
	// sum is independent of message timing — which keeps a rolled-back
	// replay (a time-shifted re-execution whose arrival times re-round)
	// bit-identical to the failure-free run.
	Src [6]int
	Fs  []float64
	PE  float64 // pair potential, reported once per compute (to cell A)
}

type atomsMsg struct {
	Step int
	Xs   []float64
	Vs   []float64
}

// cell is one spatial box of atoms.
type cell struct {
	I, J, K int
	Step    int
	Xs, Vs  []float64 // 3 per atom
	Fs      []float64
	// Recv buffers this step's force messages; they are summed in
	// canonical Src order only once all computes have reported, keeping
	// the accumulation independent of arrival order.
	Recv   []forceMsg
	MigGot int
	// MigXs/MigVs buffer inbound exchanged atoms until this cell has
	// finished its own step and compacted its arrays.
	MigXs   []float64
	MigVs   []float64
	Pending []forceMsg // forces for a step we haven't started (skew guard)
	WaitMig bool
	InSync  bool

	app *App //pup:skip //charmvet:specstate (idempotent rebind: every handler writes the pointer the factory installs)
}

func (c *cell) Pup(p *pup.Pup) {
	p.Int(&c.I)
	p.Int(&c.J)
	p.Int(&c.K)
	p.Int(&c.Step)
	p.Float64s(&c.Xs)
	p.Float64s(&c.Vs)
	p.Float64s(&c.Fs)
	pupForces := func(p *pup.Pup, f *forceMsg) {
		p.Int(&f.Step)
		for i := range f.Src {
			p.Int(&f.Src[i])
		}
		p.Float64s(&f.Fs)
		p.Float64(&f.PE)
	}
	pup.Slice(p, &c.Recv, pupForces)
	p.Int(&c.MigGot)
	p.Float64s(&c.MigXs)
	p.Float64s(&c.MigVs)
	pup.Slice(p, &c.Pending, pupForces)
	p.Bool(&c.WaitMig)
	p.Bool(&c.InSync)
}

func (c *cell) n() int { return len(c.Xs) / 3 }

// compute evaluates forces for one cell pair (or one cell against itself).
type compute struct {
	A, B   [3]int
	Self   bool
	Step   int
	XsA    []float64
	XsB    []float64
	GotA   bool
	GotB   bool
	InSync bool

	app *App //pup:skip //charmvet:specstate (idempotent rebind: every handler writes the pointer the factory installs)
}

func (cp *compute) Pup(p *pup.Pup) {
	for i := 0; i < 3; i++ {
		p.Int(&cp.A[i])
		p.Int(&cp.B[i])
	}
	p.Bool(&cp.Self)
	p.Int(&cp.Step)
	p.Float64s(&cp.XsA)
	p.Float64s(&cp.XsB)
	p.Bool(&cp.GotA)
	p.Bool(&cp.GotB)
	p.Bool(&cp.InSync)
}

// App wires LeanMD to a runtime.
type App struct {
	rt       *charm.Runtime
	cfg      Config
	cells    *charm.Array
	computes *charm.Array
	res      *Result
	err      error
	// box is the periodic domain size per dimension.
	box [3]float64
	// stepDone is the energy reduction's callback, built once: building it
	// per contribution costs a method-value closure per cell and step.
	stepDone charm.Callback
}

// New builds the cell and compute arrays and populates atoms.
func New(rt *charm.Runtime, cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	if cfg.NumCells() == 0 {
		return nil, fmt.Errorf("leanmd: empty cell grid")
	}
	if cfg.CellsX < 3 || cfg.CellsY < 3 || cfg.CellsZ < 3 {
		return nil, fmt.Errorf("leanmd: periodic neighbours need >= 3 cells per dimension")
	}
	a := &App{rt: rt, cfg: cfg, res: &Result{}}
	a.stepDone = charm.CallbackFunc(0, a.onStepDone)
	a.box = [3]float64{
		float64(cfg.CellsX) * cutoff,
		float64(cfg.CellsY) * cutoff,
		float64(cfg.CellsZ) * cutoff,
	}

	var cellMap, computeMap func(charm.Index, int) int
	if cfg.TopoAware {
		topo := charm.TopoMap3D(rt.Machine(), cfg.CellsX, cfg.CellsY, cfg.CellsZ)
		perNode := rt.Machine().Config().PEsPerNode
		cellMap = topo
		// A compute lives on its first cell's NODE, but spreads over
		// that node's PEs by its own identity (otherwise every compute
		// of a cell would pile onto one PE).
		computeMap = func(idx charm.Index, numPEs int) int {
			d := idx.Dims6()
			node := topo(charm.Idx3(d[0], d[1], d[2]), numPEs) / perNode
			pe := node*perNode + int(idx.Hash()%uint64(perNode))
			if pe >= numPEs {
				pe %= numPEs
			}
			return pe
		}
	}
	cellHandlers := []charm.Handler{
		epCellStart:  a.onCellStart,
		epCellForces: a.onCellForces,
		epCellAtoms:  a.onCellAtoms,
		epCellResume: a.onCellResume,
	}
	a.cells = rt.DeclareArray("leanmd_cells", func() charm.Chare { return &cell{app: a} },
		cellHandlers, charm.ArrayOpts{
			UsesAtSync: cfg.LBPeriod > 0,
			Migratable: true,
			// Cell handlers read only (cell state, payload, immutable cfg);
			// the error latch publishes through Defer.
			PureHandlers: true,
			ResumeEP:     epCellResume,
			HomeMap:      cellMap,
			Bounds:       []int{cfg.CellsX, cfg.CellsY, cfg.CellsZ}, // dense 3-D grid
			EntryNames: []string{
				epCellStart:  "start",
				epCellForces: "forces",
				epCellAtoms:  "atoms",
				epCellResume: "resume",
			},
		})
	computeHandlers := []charm.Handler{
		epComputePos:    a.onComputePos,
		epComputeResume: a.onComputeResume,
	}
	a.computes = rt.DeclareArray("leanmd_computes", func() charm.Chare { return &compute{app: a} },
		computeHandlers, charm.ArrayOpts{
			UsesAtSync: cfg.LBPeriod > 0,
			Migratable: true,
			// See the cells array: same purity discipline.
			PureHandlers: true,
			ResumeEP:     epComputeResume,
			HomeMap:      computeMap,
			EntryNames: []string{
				epComputePos:    "positions",
				epComputeResume: "resume",
			},
		})

	rng := rand.New(rand.NewSource(cfg.Seed*31 + 17))
	total := 0
	for i := 0; i < cfg.CellsX; i++ {
		for j := 0; j < cfg.CellsY; j++ {
			for k := 0; k < cfg.CellsZ; k++ {
				cl := &cell{I: i, J: j, K: k, app: a}
				a.fillCell(cl, rng)
				total += cl.n()
				a.cells.Insert(charm.Idx3(i, j, k), cl)
			}
		}
	}
	a.res.Atoms = total

	// One compute per unordered neighbouring pair, plus one self-compute
	// per cell (~14 computes per cell).
	for i := 0; i < cfg.CellsX; i++ {
		for j := 0; j < cfg.CellsY; j++ {
			for k := 0; k < cfg.CellsZ; k++ {
				me := [3]int{i, j, k}
				a.computes.Insert(a.computeIdx(me, me), &compute{A: me, B: me, Self: true, app: a})
				for _, nb := range a.neighbours(me) {
					if pairOwner(me, nb) {
						a.computes.Insert(a.computeIdx(me, nb),
							&compute{A: me, B: nb, app: a})
					}
				}
			}
		}
	}
	return a, nil
}

// fillCell places atoms on a jittered lattice to avoid overlapping pairs.
func (a *App) fillCell(cl *cell, rng *rand.Rand) {
	cfg := a.cfg
	// Fill fraction from the Gaussian profile.
	frac := 1.0
	if cfg.Gaussian > 0 {
		cx := (float64(cl.I) + 0.5) / float64(cfg.CellsX)
		cy := (float64(cl.J) + 0.5) / float64(cfg.CellsY)
		cz := (float64(cl.K) + 0.5) / float64(cfg.CellsZ)
		d2 := (cx-0.5)*(cx-0.5) + (cy-0.5)*(cy-0.5) + (cz-0.5)*(cz-0.5)
		frac = math.Exp(-d2 * cfg.Gaussian)
	}
	want := int(float64(cfg.AtomsPerCell)*frac + 0.5)
	if cap := MaxAtomsPerCell(); want > cap {
		want = cap // respect the safe liquid density
	}
	side := int(math.Floor(cutoff / latticeSpacing))
	spacing := float64(latticeSpacing)
	base := [3]float64{float64(cl.I) * cutoff, float64(cl.J) * cutoff, float64(cl.K) * cutoff}
	placed := 0
	for x := 0; x < side && placed < want; x++ {
		for y := 0; y < side && placed < want; y++ {
			for z := 0; z < side && placed < want; z++ {
				jit := func() float64 { return (rng.Float64() - 0.5) * spacing * 0.1 }
				cl.Xs = append(cl.Xs,
					base[0]+spacing*(float64(x)+0.6)+jit(),
					base[1]+spacing*(float64(y)+0.6)+jit(),
					base[2]+spacing*(float64(z)+0.6)+jit())
				cl.Vs = append(cl.Vs, rng.NormFloat64()*0.05, rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
				placed++
			}
		}
	}
	cl.Fs = make([]float64, len(cl.Xs))
}

// numNeighbours is the size of a cell's periodic neighbourhood. New rejects
// grids under 3 cells per dimension, so the 26 offsets wrap onto 26 distinct
// cells, none of them the cell itself.
const numNeighbours = 26

// neighbours lists the 26 periodic neighbour cells.
func (a *App) neighbours(c [3]int) (out [numNeighbours][3]int) {
	dims := [3]int{a.cfg.CellsX, a.cfg.CellsY, a.cfg.CellsZ}
	n := 0
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			for dk := -1; dk <= 1; dk++ {
				if di == 0 && dj == 0 && dk == 0 {
					continue
				}
				out[n] = [3]int{
					(c[0] + di + dims[0]) % dims[0],
					(c[1] + dj + dims[1]) % dims[1],
					(c[2] + dk + dims[2]) % dims[2],
				}
				n++
			}
		}
	}
	return out
}

// pairOwner deterministically assigns each unordered pair to one cell.
func pairOwner(a, b [3]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

func canonical(a, b [3]int) ([3]int, [3]int) {
	if pairOwner(a, b) || a == b {
		return a, b
	}
	return b, a
}

func (a *App) computeIdx(x, y [3]int) charm.Index {
	x, y = canonical(x, y)
	return charm.Idx6(x[0], x[1], x[2], y[0], y[1], y[2])
}

// Cells and Computes expose the arrays for tooling.
func (a *App) Cells() *charm.Array    { return a.cells }
func (a *App) Computes() *charm.Array { return a.computes }

// Steps returns the number of steps whose energy reduction has landed.
// Fault-tolerance drivers save it at a checkpoint cut.
func (a *App) Steps() int { return len(a.res.StepDone) }

// TruncateResult rolls the result accumulators back to n completed steps,
// discarding entries appended during a segment being rolled back after a
// failure.
func (a *App) TruncateResult(n int) {
	if n < 0 || n > len(a.res.StepDone) {
		return
	}
	a.res.StepDone = a.res.StepDone[:n]
	a.res.Energy = a.res.Energy[:n]
}

// Run executes the configured number of steps.
func (a *App) Run() (*Result, error) {
	a.cells.Broadcast(epCellStart, nil)
	a.res.Elapsed = a.rt.Run()
	if a.err != nil {
		return nil, a.err
	}
	if len(a.res.StepDone) < a.cfg.Steps {
		return nil, fmt.Errorf("leanmd: completed %d of %d steps (stall)", len(a.res.StepDone), a.cfg.Steps)
	}
	return a.res, nil
}

// Run is the one-call driver.
func Run(rt *charm.Runtime, cfg Config) (*Result, error) {
	app, err := New(rt, cfg)
	if err != nil {
		return nil, err
	}
	return app.Run()
}

// ---- cell handlers ----

func (a *App) onCellStart(obj charm.Chare, ctx *charm.Ctx, msg any) {
	c := obj.(*cell)
	c.app = a
	ctx.SetPos(float64(c.I), float64(c.J), float64(c.K))
	a.sendPositions(c, ctx)
}

// sendPositions ships the cell's positions to all its computes: either as
// individual sends or as one section multicast (the CkMulticast pattern
// NAMD uses for exactly this traffic).
func (a *App) sendPositions(c *cell, ctx *charm.Ctx) {
	me := [3]int{c.I, c.J, c.K}
	bytes := len(c.Xs)*8 + 48
	// Snapshot the positions: the cell integrates Xs in place next step,
	// and an in-flight (or replay-logged, see charm.ArrayOpts.PureHandlers)
	// message must keep the values it was sent with.
	msg := posMsg{Step: c.Step, Cell: me, Xs: append([]float64(nil), c.Xs...)}
	if a.cfg.UseMulticast {
		section := make([]charm.Index, 0, 15)
		section = append(section, a.computeIdx(me, me))
		for _, nb := range a.neighbours(me) {
			section = append(section, a.computeIdx(me, nb))
		}
		ctx.Multicast(a.computes, section, epComputePos, msg,
			&charm.SendOpts{Bytes: bytes})
		return
	}
	send := func(other [3]int) {
		ctx.SendOpt(a.computes, a.computeIdx(me, other), epComputePos,
			msg, &charm.SendOpts{Bytes: bytes})
	}
	send(me) // self-compute
	for _, nb := range a.neighbours(me) {
		send(nb)
	}
}

// expectedForces is how many force messages complete a cell's step: one per
// neighbour pair compute plus its self-compute.
const expectedForces = 1 + numNeighbours

func (a *App) onCellForces(obj charm.Chare, ctx *charm.Ctx, msg any) {
	c := obj.(*cell)
	c.app = a
	f := msg.(forceMsg)
	if f.Step != c.Step {
		c.Pending = append(c.Pending, f)
		return
	}
	c.Recv = append(c.Recv, f)
	a.maybeIntegrate(c, ctx)
}

// maybeIntegrate advances the cell once every compute has reported. The
// buffered forces are summed in canonical compute order — never arrival
// order — so the result is bit-identical however the messages interleave.
func (a *App) maybeIntegrate(c *cell, ctx *charm.Ctx) {
	if c.InSync || c.WaitMig || len(c.Recv) < expectedForces {
		return
	}
	slices.SortFunc(c.Recv, func(a, b forceMsg) int {
		for d := range a.Src {
			if r := cmp.Compare(a.Src[d], b.Src[d]); r != 0 {
				return r
			}
		}
		return 0
	})
	var peAcc float64
	for _, f := range c.Recv {
		for i := range f.Fs {
			c.Fs[i] += f.Fs[i]
		}
		peAcc += f.PE
	}
	// Emptied, not dropped, so the next step refills the same 27 entries
	// (nil and empty PUP alike).
	clear(c.Recv)
	c.Recv = c.Recv[:0]
	// Velocity-Verlet (kick-drift-kick): complete the previous half-kick
	// with the freshly computed forces, measure kinetic energy at the
	// full step, half-kick again, and drift.
	dt := a.cfg.Dt
	half := dt / (2 * mass)
	var ke float64
	for i := 0; i < c.n(); i++ {
		for d := 0; d < 3; d++ {
			v := c.Vs[3*i+d] + c.Fs[3*i+d]*half
			ke += 0.5 * mass * v * v
			v += c.Fs[3*i+d] * half
			c.Vs[3*i+d] = v
			c.Xs[3*i+d] += v * dt
		}
	}
	ctx.Charge(float64(c.n()) * 25e-9) // integration pass
	energy := ke + peAcc
	for i := range c.Fs {
		c.Fs[i] = 0
	}
	c.Step++
	ctx.Contribute(energy, charm.SumF64, a.stepDone)

	if c.Step >= a.cfg.Steps {
		return
	}
	if a.cfg.MigratePeriod > 0 && c.Step%a.cfg.MigratePeriod == 0 {
		a.exchangeAtoms(c, ctx)
		return
	}
	a.afterMove(c, ctx)
}

// afterMove runs the AtSync hook (if due) and then begins the next step.
func (a *App) afterMove(c *cell, ctx *charm.Ctx) {
	if a.cfg.LBPeriod > 0 && c.Step%a.cfg.LBPeriod == 0 {
		c.InSync = true
		ctx.AtSync()
		return
	}
	a.beginStep(c, ctx)
}

func (a *App) beginStep(c *cell, ctx *charm.Ctx) {
	a.sendPositions(c, ctx)
	// Replay early forces (a neighbouring compute can be a step ahead).
	if len(c.Pending) > 0 {
		pend := c.Pending
		c.Pending = nil
		for _, f := range pend {
			if f.Step != c.Step {
				err := fmt.Errorf("leanmd: cell (%d,%d,%d) got force for step %d at step %d",
					c.I, c.J, c.K, f.Step, c.Step)
				ctx.Defer(func() { a.err = err }) // app-global latch: publish at commit
				ctx.Exit()
				return
			}
			c.Recv = append(c.Recv, f)
		}
	}
	a.maybeIntegrate(c, ctx)
}

// exchangeAtoms sends atoms that left the cell to their new owners; every
// cell sends exactly one (possibly empty) migration message to each of its
// neighbours so completion is countable.
func (a *App) exchangeAtoms(c *cell, ctx *charm.Ctx) {
	c.WaitMig = true
	dims := [3]int{a.cfg.CellsX, a.cfg.CellsY, a.cfg.CellsZ}
	nbs := a.neighbours([3]int{c.I, c.J, c.K})
	outX := make(map[[3]int][]float64, len(nbs))
	outV := make(map[[3]int][]float64, len(nbs))
	keepX := c.Xs[:0]
	keepV := c.Vs[:0]
	for i := 0; i < c.n(); i++ {
		x, y, z := c.Xs[3*i], c.Xs[3*i+1], c.Xs[3*i+2]
		if !finite(x) || !finite(y) || !finite(z) {
			err := fmt.Errorf("leanmd: non-finite position at cell (%d,%d,%d); integration blew up", c.I, c.J, c.K)
			ctx.Defer(func() { a.err = err })
			ctx.Exit()
			return
		}
		// Periodic wrap into the box.
		x = wrap(x, a.box[0])
		y = wrap(y, a.box[1])
		z = wrap(z, a.box[2])
		ci := int(x / cutoff)
		cj := int(y / cutoff)
		ck := int(z / cutoff)
		ci, cj, ck = clampDim(ci, dims[0]), clampDim(cj, dims[1]), clampDim(ck, dims[2])
		owner := [3]int{ci, cj, ck}
		if owner == ([3]int{c.I, c.J, c.K}) {
			keepX = append(keepX, x, y, z)
			keepV = append(keepV, c.Vs[3*i], c.Vs[3*i+1], c.Vs[3*i+2])
			continue
		}
		outX[owner] = append(outX[owner], x, y, z)
		outV[owner] = append(outV[owner], c.Vs[3*i], c.Vs[3*i+1], c.Vs[3*i+2])
	}
	c.Xs = append([]float64(nil), keepX...)
	c.Vs = append([]float64(nil), keepV...)
	lost := 0
	for _, nb := range nbs {
		xs := outX[nb]
		ctx.SendOpt(a.cells, charm.Idx3(nb[0], nb[1], nb[2]), epCellAtoms,
			atomsMsg{Step: c.Step, Xs: xs, Vs: outV[nb]},
			&charm.SendOpts{Bytes: len(xs)*16 + 48})
		delete(outX, nb)
	}
	// Any atom that moved more than one cell in MigratePeriod steps would
	// be dropped; that means dt is too large — fail loudly.
	for range outX {
		lost++
	}
	if lost > 0 {
		err := fmt.Errorf("leanmd: %d atoms crossed more than one cell; reduce Dt", lost)
		ctx.Defer(func() { a.err = err })
		ctx.Exit()
	}
	a.maybeFinishExchange(c, ctx)
}

func (a *App) onCellAtoms(obj charm.Chare, ctx *charm.Ctx, msg any) {
	c := obj.(*cell)
	c.app = a
	m := msg.(atomsMsg)
	c.MigXs = append(c.MigXs, m.Xs...)
	c.MigVs = append(c.MigVs, m.Vs...)
	c.MigGot++
	a.maybeFinishExchange(c, ctx)
}

func (a *App) maybeFinishExchange(c *cell, ctx *charm.Ctx) {
	if !c.WaitMig || c.MigGot < numNeighbours {
		return
	}
	c.WaitMig = false
	c.MigGot = 0
	c.Xs = append(c.Xs, c.MigXs...)
	c.Vs = append(c.Vs, c.MigVs...)
	c.MigXs, c.MigVs = nil, nil
	c.Fs = make([]float64, len(c.Xs))
	a.afterMove(c, ctx)
}

func (a *App) onCellResume(obj charm.Chare, ctx *charm.Ctx, msg any) {
	c := obj.(*cell)
	c.app = a
	c.InSync = false
	ctx.SetPos(float64(c.I), float64(c.J), float64(c.K))
	a.beginStep(c, ctx)
}

// onStepDone runs on PE 0 per energy reduction.
func (a *App) onStepDone(ctx *charm.Ctx, result any) {
	a.res.StepDone = append(a.res.StepDone, ctx.Now())
	a.res.Energy = append(a.res.Energy, result.(float64))
	if a.cfg.StepHook != nil {
		a.cfg.StepHook(len(a.res.StepDone))
	}
	if len(a.res.StepDone) >= a.cfg.Steps {
		ctx.Exit()
	}
}

// ---- compute handlers ----

func (a *App) onComputePos(obj charm.Chare, ctx *charm.Ctx, msg any) {
	cp := obj.(*compute)
	cp.app = a
	m := msg.(posMsg)
	if m.Step != cp.Step {
		err := fmt.Errorf("leanmd: compute %v/%v got positions for step %d at step %d",
			cp.A, cp.B, m.Step, cp.Step)
		ctx.Defer(func() { a.err = err })
		ctx.Exit()
		return
	}
	if m.Cell == cp.A {
		cp.XsA, cp.GotA = m.Xs, true
	} else {
		cp.XsB, cp.GotB = m.Xs, true
	}
	if cp.Self {
		cp.GotB = true
	}
	if cp.GotA && cp.GotB {
		a.runInteractions(cp, ctx)
	}
}

// runInteractions does the real Lennard-Jones force evaluation.
func (a *App) runInteractions(cp *compute, ctx *charm.Ctx) {
	midA := [3]float64{float64(cp.A[0]) + 0.5, float64(cp.A[1]) + 0.5, float64(cp.A[2]) + 0.5}
	midB := [3]float64{float64(cp.B[0]) + 0.5, float64(cp.B[1]) + 0.5, float64(cp.B[2]) + 0.5}
	ctx.SetPos(
		(midA[0]+midB[0])/2, (midA[1]+midB[1])/2, (midA[2]+midB[2])/2)

	xa, xb := cp.XsA, cp.XsB
	fa := make([]float64, len(xa))
	var fb []float64
	if !cp.Self {
		fb = make([]float64, len(xb))
	}
	na := len(xa) / 3
	interactions := 0
	var pe float64
	rc2 := cutoff * cutoff
	pair := func(i, j int, xj []float64, fj []float64) {
		dx := xa[3*i] - xj[3*j]
		dy := xa[3*i+1] - xj[3*j+1]
		dz := xa[3*i+2] - xj[3*j+2]
		// Minimum-image convention for periodic boundaries.
		dx = mini(dx, a.box[0])
		dy = mini(dy, a.box[1])
		dz = mini(dz, a.box[2])
		r2 := dx*dx + dy*dy + dz*dz
		if r2 >= rc2 || r2 == 0 {
			return
		}
		interactions++
		inv2 := sigma * sigma / r2
		inv6 := inv2 * inv2 * inv2
		fmag := 24 * eps * (2*inv6*inv6 - inv6) / r2
		pe += 4 * eps * (inv6*inv6 - inv6)
		fa[3*i] += fmag * dx
		fa[3*i+1] += fmag * dy
		fa[3*i+2] += fmag * dz
		fj[3*j] -= fmag * dx
		fj[3*j+1] -= fmag * dy
		fj[3*j+2] -= fmag * dz
	}
	if cp.Self {
		for i := 0; i < na; i++ {
			for j := i + 1; j < na; j++ {
				pair(i, j, xa, fa)
			}
		}
	} else {
		nb := len(xb) / 3
		for i := 0; i < na; i++ {
			for j := 0; j < nb; j++ {
				pair(i, j, xb, fb)
			}
		}
	}
	checked := na * na
	if !cp.Self {
		checked = na * len(xb) / 3
	}
	ctx.Charge(float64(checked)*6e-9 + float64(interactions)*a.cfg.PerInteractionWork)

	sz := func(fs []float64) int { return len(fs)*8 + 48 }
	src := [6]int{cp.A[0], cp.A[1], cp.A[2], cp.B[0], cp.B[1], cp.B[2]}
	ctx.SendOpt(a.cells, charm.Idx3(cp.A[0], cp.A[1], cp.A[2]), epCellForces,
		forceMsg{Step: cp.Step, Src: src, Fs: fa, PE: pe}, &charm.SendOpts{Bytes: sz(fa)})
	if !cp.Self {
		ctx.SendOpt(a.cells, charm.Idx3(cp.B[0], cp.B[1], cp.B[2]), epCellForces,
			forceMsg{Step: cp.Step, Src: src, Fs: fb}, &charm.SendOpts{Bytes: sz(fb)})
	}
	cp.XsA, cp.XsB = nil, nil
	cp.GotA, cp.GotB = false, false
	cp.Step++
	if a.cfg.LBPeriod > 0 && cp.Step%a.cfg.LBPeriod == 0 && cp.Step < a.cfg.Steps {
		cp.InSync = true
		ctx.AtSync()
	}
}

func (a *App) onComputeResume(obj charm.Chare, ctx *charm.Ctx, msg any) {
	cp := obj.(*compute)
	cp.app = a
	cp.InSync = false
}

// mini applies the minimum-image convention.
func mini(d, box float64) float64 {
	if d > box/2 {
		return d - box
	}
	if d < -box/2 {
		return d + box
	}
	return d
}

func wrap(x, box float64) float64 {
	x = math.Mod(x, box)
	if x < 0 {
		x += box
	}
	return x
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func clampDim(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
