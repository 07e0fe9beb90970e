// Package amr implements the AMR3D mini-app of §IV-A: tree-based
// structured adaptive mesh refinement solving a 3-D first-order upwind
// advection equation. Blocks — the unit of computation — form the leaves
// of an oct-tree over the periodic unit cube and are chares indexed by
// bitvector indices, so a block derives its parent, children, and
// neighbours with purely local index arithmetic.
//
// The mini-app exercises exactly the features §IV-A highlights:
//
//   - object-based decomposition with dynamic insertion/deletion: blocks
//     split into 8 children (on the same PE) when the solution steepens
//     and 8 siblings merge into their parent when it flattens;
//   - quiescence detection: the 2:1-balance "ripple" of desired depths is
//     an unstructured message wave whose completion only QD can see, which
//     is what makes restructuring O(1) collectives instead of O(depth);
//   - distributed load balancing after each remesh, because refinement
//     concentrates new blocks on the PEs that host the refined region.
//
// The numerics are real: ghost-face exchange with restriction/prolongation
// across refinement boundaries, upwind fluxes, and a solution that on a
// uniformly refined mesh matches a sequential reference bit-for-bit.
package amr

import (
	"fmt"
	"math"
	"sort"

	"charmgo/internal/charm"
	"charmgo/internal/ckpt"
	"charmgo/internal/des"
	"charmgo/internal/pup"
)

// Config parameterizes a run.
type Config struct {
	// MinDepth/MaxDepth bound the oct-tree leaf depth.
	MinDepth, MaxDepth int
	// StartDepth is the initial uniform refinement (default MinDepth+1,
	// clamped into range).
	StartDepth int
	// BlockSize is the cells per block edge (even; default 8).
	BlockSize int
	// Steps is the number of advection steps.
	Steps int
	// RemeshPeriod restructures the mesh every RemeshPeriod steps;
	// 0 disables adaptation.
	RemeshPeriod int
	// RefineTol/CoarsenTol are gradient thresholds.
	RefineTol  float64
	CoarsenTol float64
	// CFL is the Courant number (default 0.4).
	CFL float64
	// PerCellWork is compute seconds per cell update.
	PerCellWork float64
	// Rebalance runs the runtime's balancer after each remesh.
	Rebalance bool
}

func (c Config) withDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = 8
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = c.MinDepth + 3
	}
	if c.StartDepth == 0 {
		c.StartDepth = c.MinDepth + 1
	}
	if c.StartDepth < c.MinDepth {
		c.StartDepth = c.MinDepth
	}
	if c.StartDepth > c.MaxDepth {
		c.StartDepth = c.MaxDepth
	}
	if c.RefineTol == 0 {
		c.RefineTol = 0.08
	}
	if c.CoarsenTol == 0 {
		c.CoarsenTol = 0.02
	}
	if c.CFL == 0 {
		c.CFL = 0.4
	}
	if c.PerCellWork == 0 {
		c.PerCellWork = 12e-9
	}
	return c
}

// velocity is the constant advection field (positive components so the
// upwind direction is fixed).
var velocity = [3]float64{1.0, 0.5, 0.25}

// Result reports a run.
type Result struct {
	// StepDone[k] is the completion time of step k.
	StepDone []des.Time
	// Mass[k] is the integral of u after step k.
	Mass []float64
	// Blocks[k] is the leaf count after step k.
	Blocks  []int
	Elapsed des.Time
	// Remeshes counts restructuring rounds.
	Remeshes int
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
	epGhost charm.EP = iota
	epStart
	epDecide
	epRipple
	epSplit
	epMergeInto
	epMergeData
	epMergeRecv
	epTopo
	epResume
)

// relation of a ghost target to the sender.
const (
	relSame = iota
	relFiner
	relCoarser
)

// nbr is one ghost-exchange counterpart.
type nbr struct {
	Idx     charm.Index
	Rel     int
	Quarter int // sender's quarter on a coarser receiver's face, or the child quarter for finer targets
}

type ghostMsg struct {
	Step    int
	Dim     int
	Data    []float64
	Quarter int // -1 for a full face
}

type topoMsg struct {
	// SendTo[d] lists ghost targets for the +d face; Expect[d] is the
	// number of ghost messages arriving on the -d face; RecvFrom[d]
	// names those senders so constraint ripples travel both directions.
	SendTo   [3][]nbr
	RecvFrom [3][]charm.Index
	Expect   [3]int
}

type mergeMsg struct {
	Octant int
	Data   []float64 // (B/2)^3 restricted payload
}

// block is one oct-tree leaf chare.
type block struct {
	B     int
	Step  int
	U     []float64 // B^3 cell values
	Want  int       // desired depth during remesh
	NbAdv int       // max advertised depth among neighbours this remesh
	Topo  topoMsg
	Got   [3]int
	Ghost [3][]float64 // assembled upwind ghost faces (B^2 each)
	Have  [3][]bool    // which quarters arrived (finer senders)
	Pend  []ghostMsg
	// AwaitTopo gates ghost processing between a remesh decision and the
	// arrival of the rebuilt topology (ghosts buffer meanwhile).
	AwaitTopo bool
	// Decided gates ripple processing: neighbour advertisements can
	// overtake this block's own decide broadcast and must buffer until
	// the block has computed its initial desire.
	Decided   bool
	RippleBuf []int
	// Started flips when the start broadcast arrives; upwind ghosts can
	// overtake the broadcast and must buffer until the block has sent its
	// own step-0 faces.
	Started bool
	// Merge assembly (when acting as a freshly inserted parent).
	MergeGot int

	app *App //pup:skip //charmvet:specstate (idempotent rebind: every handler writes the pointer the factory installs)
}

func (b *block) Pup(p *pup.Pup) {
	p.Int(&b.B)
	p.Int(&b.Step)
	p.Float64s(&b.U)
	p.Int(&b.Want)
	p.Int(&b.NbAdv)
	p.Bool(&b.AwaitTopo)
	p.Bool(&b.Decided)
	pup.Slice(p, &b.RippleBuf, (*pup.Pup).Int)
	p.Bool(&b.Started)
	p.Int(&b.MergeGot)
	for d := 0; d < 3; d++ {
		p.Int(&b.Got[d])
		p.Float64s(&b.Ghost[d])
		pup.Slice(p, &b.Have[d], (*pup.Pup).Bool)
	}
	pup.Slice(p, &b.Pend, func(p *pup.Pup, g *ghostMsg) {
		p.Int(&g.Step)
		p.Int(&g.Dim)
		p.Float64s(&g.Data)
		p.Int(&g.Quarter)
	})
	// Topology is rebroadcast after every remesh and on restart.
	for d := 0; d < 3; d++ {
		pup.Slice(p, &b.Topo.SendTo[d], func(p *pup.Pup, n *nbr) {
			p.Uint8(&n.Idx.Kind)
			p.Uint64(&n.Idx.A)
			p.Uint64(&n.Idx.B)
			p.Uint64(&n.Idx.C)
			p.Int(&n.Rel)
			p.Int(&n.Quarter)
		})
		pup.Slice(p, &b.Topo.RecvFrom[d], func(p *pup.Pup, ix *charm.Index) {
			p.Uint8(&ix.Kind)
			p.Uint64(&ix.A)
			p.Uint64(&ix.B)
			p.Uint64(&ix.C)
		})
		p.Int(&b.Topo.Expect[d])
	}
}

// App wires AMR3D to a runtime.
type App struct {
	rt     *charm.Runtime
	cfg    Config
	blocks *charm.Array
	res    *Result
	err    error

	stepTarget int // next step boundary (remesh point or end)
	doneCount  int
	inRemesh   bool
}

// New builds the initial uniformly refined mesh.
func New(rt *charm.Runtime, cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	if cfg.BlockSize%2 != 0 {
		return nil, fmt.Errorf("amr: block size %d must be even", cfg.BlockSize)
	}
	if cfg.MinDepth < 0 || cfg.MaxDepth < cfg.MinDepth {
		return nil, fmt.Errorf("amr: bad depth range %d..%d", cfg.MinDepth, cfg.MaxDepth)
	}
	a := &App{rt: rt, cfg: cfg, res: &Result{}}
	handlers := []charm.Handler{
		epGhost:     a.onGhost,
		epStart:     a.onStart,
		epDecide:    a.onDecide,
		epRipple:    a.onRipple,
		epSplit:     a.onSplit,
		epMergeInto: a.onMergeInto,
		epMergeData: a.onMergeData,
		epMergeRecv: a.onMergeRecv,
		epTopo:      a.onTopo,
		epResume:    nil,
	}
	a.blocks = rt.DeclareArray("amr_blocks", func() charm.Chare { return &block{app: a} },
		handlers, charm.ArrayOpts{Migratable: true})
	d := cfg.StartDepth
	side := 1 << d
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			for z := 0; z < side; z++ {
				idx := charm.BitVecFromCoords(x, y, z, d)
				b := &block{B: cfg.BlockSize, app: a}
				a.initBlock(b, idx)
				a.blocks.Insert(idx, b)
			}
		}
	}
	return a, nil
}

// initial condition: a smooth 3-D Gaussian pulse.
func initialU(x, y, z float64) float64 {
	dx, dy, dz := x-0.3, y-0.3, z-0.3
	return math.Exp(-(dx*dx + dy*dy + dz*dz) / (2 * 0.08 * 0.08))
}

func (a *App) initBlock(b *block, idx charm.Index) {
	B := b.B
	x0, y0, z0, d := idx.Coords()
	h := 1.0 / float64(B*(1<<d))
	b.U = make([]float64, B*B*B)
	for i := 0; i < B; i++ {
		for j := 0; j < B; j++ {
			for k := 0; k < B; k++ {
				x := (float64(x0*B+i) + 0.5) * h
				y := (float64(y0*B+j) + 0.5) * h
				z := (float64(z0*B+k) + 0.5) * h
				b.U[(i*B+j)*B+k] = initialU(x, y, z)
			}
		}
	}
}

// Blocks exposes the chare array.
func (a *App) Blocks() *charm.Array { return a.blocks }

// dt is the global time step, stable at the deepest allowed level.
func (a *App) dt() float64 {
	h := 1.0 / float64(a.cfg.BlockSize*(1<<a.cfg.MaxDepth))
	v := velocity[0] + velocity[1] + velocity[2]
	return a.cfg.CFL * h / v
}

// Run executes the configured number of steps.
func (a *App) Run() (*Result, error) {
	a.rebuildTopology(true)
	a.phaseLen()
	a.blocks.Broadcast(epStart, nil)
	a.res.Elapsed = a.rt.Run()
	if a.err != nil {
		return nil, a.err
	}
	if len(a.res.StepDone) < a.cfg.Steps {
		return nil, fmt.Errorf("amr: completed %d of %d steps", len(a.res.StepDone), a.cfg.Steps)
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

func (a *App) phaseLen() {
	a.stepTarget = len(a.res.StepDone) + a.cfg.RemeshPeriod
	if a.cfg.RemeshPeriod == 0 || a.stepTarget > a.cfg.Steps {
		a.stepTarget = a.cfg.Steps
	}
}

// ---- topology ----

// leafSet returns the current leaves.
func (a *App) leafSet() map[charm.Index]bool {
	set := map[charm.Index]bool{}
	for _, idx := range a.blocks.Keys() {
		set[idx] = true
	}
	return set
}

// rebuildTopology recomputes every leaf's ghost-exchange lists from the
// tree and (optionally) installs them directly (initial setup); afterwards
// lists travel to blocks as epTopo messages.
//
// In the published system this discovery is fully distributed over the
// bitvector index space; rebuilding it from the array keys is the
// simulation-level stand-in, and its cost is charged as the same O(1)
// collective + one configuration message per block.
func (a *App) rebuildTopology(install bool) map[charm.Index]topoMsg {
	leaves := a.leafSet()
	// Iterate leaves in index order, not map order: the a.err latch below
	// keeps the *last* violation seen, and ghost-list construction should
	// not depend on Go's randomized map iteration (charmvet: dettaint).
	ordered := make([]charm.Index, 0, len(leaves))
	for idx := range leaves {
		ordered = append(ordered, idx)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Less(ordered[j]) })
	out := make(map[charm.Index]topoMsg, len(leaves))
	for _, idx := range ordered {
		out[idx] = topoMsg{}
	}
	for _, idx := range ordered {
		x, y, z, d := idx.Coords()
		side := 1 << d
		tm := out[idx]
		for dim := 0; dim < 3; dim++ {
			nx, ny, nz := x, y, z
			switch dim {
			case 0:
				nx = (x + 1) % side
			case 1:
				ny = (y + 1) % side
			case 2:
				nz = (z + 1) % side
			}
			cand := charm.BitVecFromCoords(nx, ny, nz, d)
			recv := func(target charm.Index) {
				peer := out[target]
				peer.RecvFrom[dim] = append(peer.RecvFrom[dim], idx)
				peer.Expect[dim]++
				out[target] = peer
			}
			switch {
			case leaves[cand]:
				tm.SendTo[dim] = append(tm.SendTo[dim], nbr{Idx: cand, Rel: relSame})
				recv(cand)
			case d > 0 && leaves[cand.Parent()]:
				// Coarser neighbour: I cover one quarter of its face.
				q := faceQuarter(dim, nx, ny, nz)
				tm.SendTo[dim] = append(tm.SendTo[dim], nbr{Idx: cand.Parent(), Rel: relCoarser, Quarter: q})
				recv(cand.Parent())
			default:
				// Finer neighbours: the 4 children of cand touching my face.
				found := 0
				for _, ch := range faceChildren(cand, dim) {
					if !leaves[ch] {
						continue
					}
					cx, cy, cz, _ := ch.Coords()
					q := faceQuarter(dim, cx, cy, cz)
					tm.SendTo[dim] = append(tm.SendTo[dim], nbr{Idx: ch, Rel: relFiner, Quarter: q})
					recv(ch)
					found++
				}
				if found != 4 {
					a.err = fmt.Errorf("amr: 2:1 balance violated at %v dim %d (%d fine neighbours)", idx, dim, found)
				}
			}
		}
		out[idx] = tm
	}
	// RecvFrom lists accumulated in sender order; sort for determinism.
	for _, idx := range ordered {
		tm := out[idx]
		for d := 0; d < 3; d++ {
			sort.Slice(tm.RecvFrom[d], func(i, j int) bool {
				return tm.RecvFrom[d][i].Less(tm.RecvFrom[d][j])
			})
		}
		out[idx] = tm
	}
	if install {
		for _, idx := range ordered {
			b := a.blocks.Get(idx).(*block)
			b.Topo = out[idx]
		}
	}
	return out
}

// faceQuarter maps a block's coords to its quarter (0..3) on the face of a
// coarser neighbour, using the two dimensions orthogonal to dim.
func faceQuarter(dim, x, y, z int) int {
	switch dim {
	case 0:
		return (y%2)*2 + z%2
	case 1:
		return (x%2)*2 + z%2
	default:
		return (x%2)*2 + y%2
	}
}

// faceChildren returns the 4 children of c on the face adjacent to a -dim
// neighbour (the low side in dim, since the sender looks in +dim).
func faceChildren(c charm.Index, dim int) []charm.Index {
	var out []charm.Index
	for o := 0; o < 8; o++ {
		low := false
		switch dim {
		case 0:
			low = o&1 == 0
		case 1:
			low = o&2 == 0
		default:
			low = o&4 == 0
		}
		if low {
			out = append(out, c.Child(o))
		}
	}
	return out
}

// ---- stepping ----

func (a *App) onStart(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	b.Started = true
	b.resetGhosts()
	a.advance(b, ctx)
}

func (b *block) resetGhosts() {
	B := b.B
	for d := 0; d < 3; d++ {
		if b.Ghost[d] == nil {
			b.Ghost[d] = make([]float64, B*B)
		}
		if b.Have[d] == nil {
			b.Have[d] = make([]bool, 4)
		}
	}
}

// face extracts the B² boundary layer of u on the given side of dim.
func face(u []float64, B, dim, side int) []float64 {
	out := make([]float64, B*B)
	idx := func(i, j, k int) float64 { return u[(i*B+j)*B+k] }
	pos := 0
	if side == 1 {
		pos = B - 1
	}
	n := 0
	for p := 0; p < B; p++ {
		for q := 0; q < B; q++ {
			switch dim {
			case 0:
				out[n] = idx(pos, p, q)
			case 1:
				out[n] = idx(p, pos, q)
			default:
				out[n] = idx(p, q, pos)
			}
			n++
		}
	}
	return out
}

// downsample averages a B² face to (B/2)².
func downsample(f []float64, B int) []float64 {
	h := B / 2
	out := make([]float64, h*h)
	for p := 0; p < h; p++ {
		for q := 0; q < h; q++ {
			out[p*h+q] = 0.25 * (f[(2*p)*B+2*q] + f[(2*p)*B+2*q+1] +
				f[(2*p+1)*B+2*q] + f[(2*p+1)*B+2*q+1])
		}
	}
	return out
}

// upsampleQuarter expands quarter q of a B² face to a full B² face at the
// finer resolution (piecewise constant).
func upsampleQuarter(f []float64, B, q int) []float64 {
	h := B / 2
	po := (q / 2) * h
	qo := (q % 2) * h
	out := make([]float64, B*B)
	for p := 0; p < B; p++ {
		for r := 0; r < B; r++ {
			out[p*B+r] = f[(po+p/2)*B+(qo+r/2)]
		}
	}
	return out
}

// sendGhosts ships the block's three upwind (+dim) faces.
func (a *App) sendGhosts(b *block, ctx *charm.Ctx) {
	B := b.B
	for dim := 0; dim < 3; dim++ {
		f := face(b.U, B, dim, 1)
		for _, t := range b.Topo.SendTo[dim] {
			var data []float64
			quarter := -1
			switch t.Rel {
			case relSame:
				data = f
			case relFiner:
				data = upsampleQuarter(f, B, t.Quarter)
			case relCoarser:
				data = downsample(f, B)
				quarter = t.Quarter
			}
			ctx.SendOpt(a.blocks, t.Idx, epGhost,
				ghostMsg{Step: b.Step, Dim: dim, Data: data, Quarter: quarter},
				&charm.SendOpts{Bytes: len(data)*8 + 48})
		}
	}
}

func (a *App) onGhost(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	g := msg.(ghostMsg)
	if !b.Started || b.AwaitTopo || g.Step != b.Step {
		b.Pend = append(b.Pend, g)
		return
	}
	a.applyGhost(b, g)
	a.maybeStep(b, ctx)
}

func (a *App) applyGhost(b *block, g ghostMsg) {
	B := b.B
	b.resetGhosts()
	if len(g.Data) == B*B {
		copy(b.Ghost[g.Dim], g.Data)
	} else {
		// Quarter from a finer sender (already at my resolution after
		// its downsample? no: finer senders downsample to my quarter).
		h := B / 2
		q := g.Quarter
		po := (q / 2) * h
		qo := (q % 2) * h
		for p := 0; p < h; p++ {
			for r := 0; r < h; r++ {
				b.Ghost[g.Dim][(po+p)*B+(qo+r)] = g.Data[p*h+r]
			}
		}
	}
	b.Got[g.Dim]++
}

// maybeStep advances the block once all upwind ghosts arrived.
func (a *App) maybeStep(b *block, ctx *charm.Ctx) {
	for d := 0; d < 3; d++ {
		if b.Got[d] < b.Topo.Expect[d] {
			return
		}
	}
	if a.inRemesh {
		return
	}
	B := b.B
	_, _, _, depth := ctx.Index().Coords()
	h := 1.0 / float64(B*(1<<depth))
	dt := a.dt()
	u := b.U
	nu := make([]float64, len(u))
	at := func(i, j, k int) float64 {
		// Upwind neighbours in -dim; fall to ghost faces. Note the
		// ghost of dim d arrived from the +d neighbour of the sender,
		// i.e. it is OUR -d ghost... the sender's +face is our -face.
		if i < 0 {
			return b.Ghost[0][j*B+k]
		}
		if j < 0 {
			return b.Ghost[1][i*B+k]
		}
		if k < 0 {
			return b.Ghost[2][i*B+j]
		}
		return u[(i*B+j)*B+k]
	}
	var mass float64
	cellV := h * h * h
	for i := 0; i < B; i++ {
		for j := 0; j < B; j++ {
			for k := 0; k < B; k++ {
				c := u[(i*B+j)*B+k]
				v := c -
					dt/h*(velocity[0]*(c-at(i-1, j, k))+
						velocity[1]*(c-at(i, j-1, k))+
						velocity[2]*(c-at(i, j, k-1)))
				nu[(i*B+j)*B+k] = v
				mass += v * cellV
			}
		}
	}
	b.U = nu
	ctx.Charge(float64(B*B*B) * a.cfg.PerCellWork)
	b.Step++
	for d := 0; d < 3; d++ {
		b.Got[d] = 0
	}
	ctx.ContributeF64(mass, charm.SumF64, charm.CallbackFunc(0, a.onStepDone))
	if b.Step >= a.stepTarget {
		return // wait for the driver (remesh or finish)
	}
	a.advance(b, ctx)
}

func (a *App) advance(b *block, ctx *charm.Ctx) {
	a.sendGhosts(b, ctx)
	// Upwind-only coupling lets upstream blocks run several steps ahead,
	// so the buffer may hold ghosts for multiple future steps: apply the
	// current step's, keep the rest.
	if len(b.Pend) > 0 {
		var keep []ghostMsg
		for _, g := range b.Pend {
			switch {
			case g.Step == b.Step:
				a.applyGhost(b, g)
			case g.Step > b.Step:
				keep = append(keep, g)
			default:
				a.err = fmt.Errorf("amr: stale ghost for step %d at step %d", g.Step, b.Step)
				ctx.Exit()
				return
			}
		}
		b.Pend = keep
	}
	a.maybeStep(b, ctx)
}

// onStepDone runs on PE 0 per mass reduction.
func (a *App) onStepDone(ctx *charm.Ctx, result any) {
	a.res.StepDone = append(a.res.StepDone, ctx.Now())
	a.res.Mass = append(a.res.Mass, result.(float64))
	a.res.Blocks = append(a.res.Blocks, a.blocks.Len())
	n := len(a.res.StepDone)
	if n >= a.cfg.Steps {
		ctx.Exit()
		return
	}
	if n >= a.stepTarget {
		a.startRemesh(ctx)
	}
}

// ---- remesh ----

func (a *App) startRemesh(ctx *charm.Ctx) {
	a.inRemesh = true
	a.res.Remeshes++
	ctx.Broadcast(a.blocks, epDecide, nil, nil)
	a.rt.StartQD(charm.CallbackFunc(0, func(ctx *charm.Ctx, _ any) {
		a.applyRemesh(ctx)
	}))
}

// onDecide computes the block's desired depth and starts the ripple.
func (a *App) onDecide(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	b.AwaitTopo = true
	_, _, _, d := ctx.Index().Coords()
	g := b.maxGradient()
	want := d
	if g > a.cfg.RefineTol && d < a.cfg.MaxDepth {
		want = d + 1
	} else if g < a.cfg.CoarsenTol && d > a.cfg.MinDepth {
		want = d - 1
	}
	b.Want = want
	b.NbAdv = 0
	b.Decided = true
	ctx.Charge(float64(b.B*b.B*b.B) * 2e-9)
	a.ripple(b, ctx, adv(want, d))
	// Apply neighbour advertisements that overtook the decide broadcast.
	if len(b.RippleBuf) > 0 {
		buf := b.RippleBuf
		b.RippleBuf = nil
		for _, nbAdv := range buf {
			a.applyRipple(b, ctx, nbAdv, d)
		}
	}
}

// adv is the depth a block advertises during the constraint wave: its
// target depth for refiners, its current depth for would-be coarseners
// (coarsening is tentative — it may be vetoed by siblings — so neighbours
// must not rely on it).
func adv(want, depth int) int {
	if want > depth {
		return want
	}
	return depth
}

// maxGradient is the refinement indicator.
func (b *block) maxGradient() float64 {
	B := b.B
	g := 0.0
	at := func(i, j, k int) float64 { return b.U[(i*B+j)*B+k] }
	for i := 0; i < B; i++ {
		for j := 0; j < B; j++ {
			for k := 0; k < B; k++ {
				if i+1 < B {
					g = math.Max(g, math.Abs(at(i+1, j, k)-at(i, j, k)))
				}
				if j+1 < B {
					g = math.Max(g, math.Abs(at(i, j+1, k)-at(i, j, k)))
				}
				if k+1 < B {
					g = math.Max(g, math.Abs(at(i, j, k+1)-at(i, j, k)))
				}
			}
		}
	}
	return g
}

// ripple notifies every ghost counterpart — both the blocks we send to
// and the blocks that send to us — of our advertised depth.
func (a *App) ripple(b *block, ctx *charm.Ctx, myAdv int) {
	for dim := 0; dim < 3; dim++ {
		for _, t := range b.Topo.SendTo[dim] {
			ctx.SendOpt(a.blocks, t.Idx, epRipple, myAdv, &charm.SendOpts{Bytes: 24})
		}
		for _, src := range b.Topo.RecvFrom[dim] {
			ctx.SendOpt(a.blocks, src, epRipple, myAdv, &charm.SendOpts{Bytes: 24})
		}
	}
}

// onRipple raises our desired depth to stay within one level of a
// neighbour's advertised depth, propagating when our own advertisement
// changes. Advertisements arriving before our own decision buffer.
func (a *App) onRipple(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	nbAdv := msg.(int)
	if !b.Decided {
		b.RippleBuf = append(b.RippleBuf, nbAdv)
		return
	}
	_, _, _, d := ctx.Index().Coords()
	a.applyRipple(b, ctx, nbAdv, d)
}

func (a *App) applyRipple(b *block, ctx *charm.Ctx, nbAdv, d int) {
	if nbAdv > b.NbAdv {
		b.NbAdv = nbAdv
	}
	if nbAdv-1 > b.Want {
		oldAdv := adv(b.Want, d)
		b.Want = nbAdv - 1
		if newAdv := adv(b.Want, d); newAdv > oldAdv {
			a.ripple(b, ctx, newAdv)
		}
	}
}

// applyRemesh runs after the decide wave quiesces: compute the new leaf
// set deterministically and command splits and merges.
func (a *App) applyRemesh(ctx *charm.Ctx) {
	// Gather desires in deterministic key order.
	keys := a.blocks.Keys()
	want := map[charm.Index]int{}
	for _, idx := range keys {
		want[idx] = a.blocks.Get(idx).(*block).Want
	}
	var splits, mergeParents []charm.Index
	for _, idx := range keys {
		w := want[idx]
		_, _, _, d := idx.Coords()
		if w > d {
			splits = append(splits, idx)
			continue
		}
		if w < d && idx.Octant() == 0 {
			// Coarsen only if all 8 siblings exist, all want to coarsen,
			// and no sibling has a neighbour whose advertised depth would
			// violate 2:1 against the coarser parent.
			parent := idx.Parent()
			ok := true
			for o := 0; o < 8; o++ {
				ch := parent.Child(o)
				cw, exists := want[ch]
				_, _, _, cd := ch.Coords()
				if !exists || cw >= cd {
					ok = false
					break
				}
				if a.blocks.Get(ch).(*block).NbAdv > cd {
					ok = false
					break
				}
			}
			if ok {
				mergeParents = append(mergeParents, parent)
			}
		}
	}
	for _, idx := range splits {
		a.blocks.Send(idx, epSplit, nil)
	}
	for _, parent := range mergeParents {
		// The octant-0 child hosts the new parent block.
		a.blocks.Send(parent.Child(0), epMergeInto, parent)
	}
	// When the structural traffic quiesces, rebuild topology and resume.
	a.rt.StartQD(charm.CallbackFunc(0, func(ctx *charm.Ctx, _ any) {
		topo := a.rebuildTopology(false)
		if a.err != nil {
			ctx.Exit()
			return
		}
		idxs := make([]charm.Index, 0, len(topo))
		for idx := range topo {
			idxs = append(idxs, idx)
		}
		sort.Slice(idxs, func(i, j int) bool { return idxs[i].Less(idxs[j]) })
		for _, idx := range idxs {
			ctx.SendOpt(a.blocks, idx, epTopo, topo[idx], &charm.SendOpts{Bytes: 200})
		}
		a.inRemesh = false
		a.phaseLen()
		if a.cfg.Rebalance && a.rt.Balancer() != nil {
			a.rt.Rebalance()
		}
	}))
}

// onSplit replaces the block with 8 prolongated children on this PE.
func (a *App) onSplit(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	idx := ctx.Index()
	B := b.B
	for o := 0; o < 8; o++ {
		child := &block{B: B, Step: b.Step, AwaitTopo: true, Started: true, app: a}
		child.U = make([]float64, B*B*B)
		xo := (o & 1) * B / 2
		yo := (o >> 1 & 1) * B / 2
		zo := (o >> 2 & 1) * B / 2
		for i := 0; i < B; i++ {
			for j := 0; j < B; j++ {
				for k := 0; k < B; k++ {
					child.U[(i*B+j)*B+k] = b.U[((xo+i/2)*B+(yo+j/2))*B+(zo+k/2)]
				}
			}
		}
		ctx.Insert(a.blocks, idx.Child(o), child)
	}
	ctx.Charge(float64(8*B*B*B) * 3e-9)
	ctx.Destroy(a.blocks, idx)
}

// onMergeInto (octant-0 child) creates the parent and asks siblings for
// their restricted data; it contributes its own immediately.
func (a *App) onMergeInto(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	parent := msg.(charm.Index)
	nb := &block{B: b.B, Step: b.Step, AwaitTopo: true, Started: true, app: a}
	nb.U = make([]float64, b.B*b.B*b.B)
	ctx.Insert(a.blocks, parent, nb)
	for o := 1; o < 8; o++ {
		ctx.SendOpt(a.blocks, parent.Child(o), epMergeData, parent, nil)
	}
	a.contributeMerge(b, ctx, parent, 0)
	ctx.Destroy(a.blocks, ctx.Index())
}

// onMergeData (octants 1..7) restrict and ship their data, then die.
func (a *App) onMergeData(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	parent := msg.(charm.Index)
	a.contributeMerge(b, ctx, parent, ctx.Index().Octant())
	ctx.Destroy(a.blocks, ctx.Index())
}

func (a *App) contributeMerge(b *block, ctx *charm.Ctx, parent charm.Index, octant int) {
	B := b.B
	h := B / 2
	data := make([]float64, h*h*h)
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			for k := 0; k < h; k++ {
				s := 0.0
				for di := 0; di < 2; di++ {
					for dj := 0; dj < 2; dj++ {
						for dk := 0; dk < 2; dk++ {
							s += b.U[((2*i+di)*B+2*j+dj)*B+2*k+dk]
						}
					}
				}
				data[(i*h+j)*h+k] = s / 8
			}
		}
	}
	ctx.Charge(float64(B*B*B) * 2e-9)
	ctx.SendOpt(a.blocks, parent, epMergeRecv,
		mergeMsg{Octant: octant, Data: data},
		&charm.SendOpts{Bytes: len(data)*8 + 32})
}

// onMergeRecv assembles a restricted octant into the freshly created
// parent block.
func (a *App) onMergeRecv(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	m := msg.(mergeMsg)
	B := b.B
	h := B / 2
	xo := (m.Octant & 1) * h
	yo := (m.Octant >> 1 & 1) * h
	zo := (m.Octant >> 2 & 1) * h
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			for k := 0; k < h; k++ {
				b.U[((xo+i)*B+yo+j)*B+zo+k] = m.Data[(i*h+j)*h+k]
			}
		}
	}
	b.MergeGot++
}

func (a *App) onTopo(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	b.Topo = msg.(topoMsg)
	b.AwaitTopo = false
	b.Decided = false
	for d := 0; d < 3; d++ {
		b.Got[d] = 0
	}
	b.resetGhosts()
	a.advance(b, ctx)
}

// RestoreInto rebuilds an AMR application from a disk checkpoint (the
// "+restart log" flow of §III-B): the configured runtime may have a
// different PE count than the checkpointed run — elements are re-homed by
// the location manager. Block step counters are rebased to zero, so the
// returned app executes cfg.Steps further steps from the restored field.
func RestoreInto(rt *charm.Runtime, cfg Config, snap *ckpt.Snapshot) (*App, error) {
	app, err := New(rt, cfg)
	if err != nil {
		return nil, err
	}
	// Drop the freshly initialized mesh; the checkpoint defines the tree.
	for _, idx := range app.blocks.Keys() {
		app.blocks.Remove(idx)
	}
	if err := ckpt.Restore(rt, snap); err != nil {
		return nil, err
	}
	if app.blocks.Len() == 0 {
		return nil, fmt.Errorf("amr: checkpoint restored no blocks")
	}
	// Rebase: all blocks sit at the same physical step (checkpoints are
	// taken at step boundaries); continue counting from zero.
	for _, idx := range app.blocks.Keys() {
		b := app.blocks.Get(idx).(*block)
		b.app = app
		b.Step = 0
		b.Got = [3]int{}
		b.Pend = nil
		b.AwaitTopo = false
		b.Started = false
	}
	return app, nil
}
