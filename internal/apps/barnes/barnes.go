// Package barnes implements the Barnes-Hut N-body mini-app of §IV-C and a
// ChaNGa-style phase breakdown (Figs 12, 13). Space is over-decomposed
// into a chare array of TreePieces by an oct decomposition; each step runs
// the phases a cosmology code runs:
//
//	DD      — domain decomposition: particles that drifted out of a
//	          piece's region migrate to their owner; completion is
//	          detected with quiescence detection.
//	TB      — tree build: each piece builds a real local octree and the
//	          pieces exchange top-level multipole summaries through a
//	          concatenating reduction.
//	Gravity — each piece computes Barnes-Hut forces on its particles:
//	          its own octree exactly, far pieces through their multipole
//	          (opening-angle test), near pieces via prioritized remote
//	          work requests answered with real tree walks.
//	LB      — optional ORB load balancing at AtSync barriers.
//
// The Plummer-model particle distribution concentrates mass centrally, so
// load is naturally imbalanced — the reason Fig 12 needs both
// over-decomposition and a geometric balancer.
package barnes

import (
	"fmt"
	"math"
	"math/rand"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/pup"
)

// Config parameterizes a run.
type Config struct {
	// Particles is the total particle count.
	Particles int
	// Depth is the oct-decomposition depth: 8^Depth TreePieces.
	Depth int
	// Steps is the number of simulation steps.
	Steps int
	// Theta is the Barnes-Hut opening angle (default 0.6).
	Theta float64
	// LBPeriod calls AtSync every LBPeriod steps; 0 disables.
	LBPeriod int
	// PerInteractionWork is compute seconds per particle-node
	// interaction.
	PerInteractionWork float64
	// Dt is the leapfrog step.
	Dt   float64
	Seed int64
	// Center places the Plummer cluster; default is the box centre.
	// Real datasets are not grid-aligned, so benchmarks offset it to
	// break octant symmetry.
	Center [3]float64
	// Uniform draws particles uniformly in the box instead of from the
	// Plummer model — a cosmological-box-like distribution that is
	// near-even at piece granularity (the ChaNGa cosmo25 regime).
	Uniform bool
}

func (c Config) withDefaults() Config {
	if c.Theta == 0 {
		c.Theta = 0.6
	}
	if c.PerInteractionWork == 0 {
		c.PerInteractionWork = 25e-9
	}
	if c.Dt == 0 {
		c.Dt = 1e-3
	}
	if c.Depth == 0 {
		c.Depth = 1
	}
	if c.Center == ([3]float64{}) {
		c.Center = [3]float64{0.5, 0.5, 0.5}
	}
	return c
}

// NumPieces returns the TreePiece count.
func (c Config) NumPieces() int { return 1 << (3 * c.Depth) }

// PhaseTimes is the Fig 13 breakdown for one step.
type PhaseTimes struct {
	DD      float64
	TB      float64
	Gravity float64
	LB      float64
	Total   float64
}

// Result reports a run.
type Result struct {
	// Phases[k] is the measured phase breakdown of step k.
	Phases []PhaseTimes
	// StepDone[k] is the completion time of step k.
	StepDone  []des.Time
	Elapsed   des.Time
	Particles int
}

// MeanPhases averages the per-step breakdowns, skipping the first step
// (cold caches, initial DD storm).
func (r *Result) MeanPhases() PhaseTimes {
	if len(r.Phases) == 0 {
		return PhaseTimes{}
	}
	start := 0
	if len(r.Phases) > 1 {
		start = 1
	}
	var m PhaseTimes
	n := float64(len(r.Phases) - start)
	for _, p := range r.Phases[start:] {
		m.DD += p.DD / n
		m.TB += p.TB / n
		m.Gravity += p.Gravity / n
		m.LB += p.LB / n
		m.Total += p.Total / n
	}
	return m
}

const (
	epStartDD charm.EP = iota
	epDDParticles
	epDDDone
	epTBDone
	epGravReq
	epGravResp
	epResume
)

const pstride = 7 // x y z vx vy vz m

type summary struct {
	Piece int
	Mass  float64
	CX    float64
	CY    float64
	CZ    float64
	// Bounding box of the piece's region.
	Lo [3]float64
	Hi [3]float64
	N  int
}

type gravReq struct {
	Step  int
	Piece int // requester
}

// rnode is one flattened octree node shipped to a requester: ChaNGa-style
// node fetching — the data travels, the force computation stays with the
// requesting piece, so gravity work is never serialized on a hot owner.
type rnode struct {
	Lo, Hi     [3]float64
	CX, CY, CZ float64
	Mass       float64
	ChildStart int
	ChildCount int
}

type gravResp struct {
	Step  int
	Nodes []rnode
}

// node is one octree node of a piece's local tree.
type node struct {
	lo, hi     [3]float64
	mass       float64
	cx, cy, cz float64
	children   []*node
	pidx       []int // particle indices for leaves
}

type piece struct {
	ID   int
	Step int
	Ps   []float64 // pstride per particle
	app  *App      //pup:skip //charmvet:specstate (idempotent rebind: every handler writes the pointer the factory installs)

	// Per-step phase state (rebuilt each step; not serialized beyond
	// what correctness needs — pieces only migrate between steps, where
	// this state is reconstructable). The //charmvet:specstate waivers
	// record that barnes is pinned to the sequential/conservative
	// backends: this mid-step scratch is NOT rollback-safe (a Time Warp
	// rollback would factory-reset it while the pup'd state rewinds), so
	// it must be pupped or commit-deferred before barnes can run on the
	// optimistic backend.
	tree       *node     //pup:skip //charmvet:specstate (see above)
	treeStep   int       //pup:skip //charmvet:specstate (see above)
	sums       []summary //pup:skip //charmvet:specstate (see above)
	nearReqs   int       //pup:skip //charmvet:specstate (see above)
	nearSent   []int     //pup:skip //charmvet:specstate (see above)
	Fs         []float64 //pup:skip //charmvet:specstate (see above)
	pendingReq []gravReq //pup:skip //charmvet:specstate (see above)
	InSync     bool
}

func (p *piece) Pup(pp *pup.Pup) {
	pp.Int(&p.ID)
	pp.Int(&p.Step)
	pp.Float64s(&p.Ps)
	pp.Bool(&p.InSync)
}

func (p *piece) n() int { return len(p.Ps) / pstride }

// App wires Barnes-Hut to a runtime.
type App struct {
	rt     *charm.Runtime
	cfg    Config
	pieces *charm.Array
	res    *Result
	err    error

	// Phase bookkeeping on PE 0.
	stepStart des.Time
	ddStart   des.Time
	tbStart   des.Time
	gravStart des.Time
	cur       PhaseTimes
	gravLeft  int
}

// New creates the TreePieces and assigns Plummer-distributed particles.
func New(rt *charm.Runtime, cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	if cfg.Particles < cfg.NumPieces() {
		return nil, fmt.Errorf("barnes: %d particles for %d pieces", cfg.Particles, cfg.NumPieces())
	}
	a := &App{rt: rt, cfg: cfg, res: &Result{Particles: cfg.Particles}}
	handlers := []charm.Handler{
		epStartDD:     a.onStartDD,
		epDDParticles: a.onDDParticles,
		epDDDone:      a.onDDDone,
		epTBDone:      a.onTBDone,
		epGravReq:     a.onGravReq,
		epGravResp:    a.onGravResp,
		epResume:      a.onResume,
	}
	a.pieces = rt.DeclareArray("barnes_pieces", func() charm.Chare { return &piece{app: a} },
		handlers, charm.ArrayOpts{
			Migratable: true, // RTS-triggered rebalancing between steps
			ResumeEP:   epResume,
		})
	np := cfg.NumPieces()
	ps := make([][]float64, np)
	rng := rand.New(rand.NewSource(cfg.Seed*131 + 7))
	for i := 0; i < cfg.Particles; i++ {
		var x, y, z float64
		if cfg.Uniform {
			x, y, z = rng.Float64(), rng.Float64(), rng.Float64()
		} else {
			x, y, z = plummer(rng, cfg.Center)
		}
		owner := a.ownerOf(x, y, z)
		ps[owner] = append(ps[owner], x, y, z,
			rng.NormFloat64()*0.01, rng.NormFloat64()*0.01, rng.NormFloat64()*0.01,
			1.0/float64(cfg.Particles))
	}
	for i := 0; i < np; i++ {
		a.pieces.Insert(charm.Idx1(i), &piece{ID: i, Ps: ps[i], app: a})
	}
	return a, nil
}

// plummer samples the Plummer model scaled into the unit cube around the
// given centre, clipping the far tail so every particle stays in the box.
func plummer(rng *rand.Rand, c [3]float64) (x, y, z float64) {
	clip := 0.45
	for _, cv := range c {
		if d := 0.95 * math.Min(cv, 1-cv); d < clip {
			clip = d
		}
	}
	for {
		m := rng.Float64()
		r := 0.1 / math.Sqrt(math.Pow(m, -2.0/3.0)-1)
		if r > clip {
			continue
		}
		u, v := rng.Float64(), rng.Float64()
		th := math.Acos(2*u - 1)
		ph := 2 * math.Pi * v
		x = c[0] + r*math.Sin(th)*math.Cos(ph)
		y = c[1] + r*math.Sin(th)*math.Sin(ph)
		z = c[2] + r*math.Cos(th)
		return
	}
}

// ownerOf maps a position to its oct-decomposition piece.
func (a *App) ownerOf(x, y, z float64) int {
	side := 1 << a.cfg.Depth
	cl := func(v float64) int {
		i := int(v * float64(side))
		if i < 0 {
			i = 0
		}
		if i >= side {
			i = side - 1
		}
		return i
	}
	ix, iy, iz := cl(x), cl(y), cl(z)
	return (ix*side+iy)*side + iz
}

func (a *App) pieceBounds(id int) (lo, hi [3]float64) {
	side := 1 << a.cfg.Depth
	iz := id % side
	iy := id / side % side
	ix := id / (side * side)
	w := 1.0 / float64(side)
	lo = [3]float64{float64(ix) * w, float64(iy) * w, float64(iz) * w}
	hi = [3]float64{lo[0] + w, lo[1] + w, lo[2] + w}
	return lo, hi
}

// Run executes the configured steps.
func (a *App) Run() (*Result, error) {
	a.startStep()
	a.res.Elapsed = a.rt.Run()
	if a.err != nil {
		return nil, a.err
	}
	if len(a.res.StepDone) < a.cfg.Steps {
		return nil, fmt.Errorf("barnes: completed %d of %d steps", len(a.res.StepDone), a.cfg.Steps)
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

// ---- phase driver (PE 0) ----

func (a *App) startStep() {
	a.stepStart = a.rt.Now()
	a.ddStart = a.rt.Now()
	a.cur = PhaseTimes{}
	a.pieces.Broadcast(epStartDD, nil)
	a.rt.StartQD(charm.CallbackFunc(0, func(ctx *charm.Ctx, _ any) {
		// DD traffic has quiesced; every piece owns its particles.
		a.cur.DD = float64(ctx.Now() - a.ddStart)
		a.tbStart = ctx.Now()
		ctx.Broadcast(a.pieces, epDDDone, nil, nil)
	}))
}

// ---- piece handlers ----

// onStartDD migrates drifted particles to their owners.
func (a *App) onStartDD(obj charm.Chare, ctx *charm.Ctx, msg any) {
	p := obj.(*piece)
	p.app = a
	out := map[int][]float64{}
	keep := p.Ps[:0]
	for i := 0; i < p.n(); i++ {
		seg := p.Ps[i*pstride : (i+1)*pstride]
		owner := a.ownerOf(seg[0], seg[1], seg[2])
		if owner == p.ID {
			keep = append(keep, seg...)
			continue
		}
		out[owner] = append(out[owner], seg...)
	}
	p.Ps = append([]float64(nil), keep...)
	// Deterministic send order.
	for dst := 0; dst < a.cfg.NumPieces(); dst++ {
		if data, ok := out[dst]; ok {
			ctx.SendOpt(a.pieces, charm.Idx1(dst), epDDParticles, data,
				&charm.SendOpts{Bytes: len(data)*8 + 32})
		}
	}
	ctx.Charge(float64(p.n()) * 200e-9) // key computation + local reorder
}

func (a *App) onDDParticles(obj charm.Chare, ctx *charm.Ctx, msg any) {
	p := obj.(*piece)
	p.app = a
	p.Ps = append(p.Ps, msg.([]float64)...)
}

// onDDDone builds the local tree and contributes the multipole summary.
func (a *App) onDDDone(obj charm.Chare, ctx *charm.Ctx, msg any) {
	p := obj.(*piece)
	p.app = a
	lo, hi := a.pieceBounds(p.ID)
	p.tree = buildTree(p.Ps, lo, hi, 0)
	p.treeStep = p.Step
	ctx.Charge(float64(p.n()) * 80e-9) // tree construction
	var s summary
	s.Piece = p.ID
	s.Lo, s.Hi = lo, hi
	s.N = p.n()
	if p.tree != nil {
		s.Mass, s.CX, s.CY, s.CZ = p.tree.mass, p.tree.cx, p.tree.cy, p.tree.cz
	}
	ctx.SetPos(s.CX, s.CY, s.CZ)
	ctx.Contribute([]summary{s}, concatSummaries, charm.CallbackBcast(a.pieces, epTBDone))
}

var concatSummaries = charm.Reducer{
	Name: "concat_summaries",
	Merge: func(x, y any) any {
		xa, ya := x.([]summary), y.([]summary)
		out := make([]summary, 0, len(xa)+len(ya))
		out = append(out, xa...)
		return append(out, ya...)
	},
}

// onTBDone starts the gravity phase.
func (a *App) onTBDone(obj charm.Chare, ctx *charm.Ctx, msg any) {
	p := obj.(*piece)
	p.app = a
	if p.ID == 0 {
		a.cur.TB = float64(ctx.Now() - a.tbStart)
		a.gravStart = ctx.Now()
		a.gravLeft = a.cfg.NumPieces()
	}
	p.sums = msg.([]summary)
	p.Fs = make([]float64, 3*p.n())
	p.nearSent = nil

	// Far-field: multipole contributions; near-field: ship our particles
	// to the owner with a prioritized request.
	myLo, myHi := a.pieceBounds(p.ID)
	interactions := 0
	for _, s := range p.sums {
		if s.Piece == p.ID || s.N == 0 {
			continue
		}
		if a.farEnough(myLo, myHi, s) {
			for i := 0; i < p.n(); i++ {
				accumulate(p.Fs, i, p.Ps[i*pstride], p.Ps[i*pstride+1], p.Ps[i*pstride+2],
					s.CX, s.CY, s.CZ, s.Mass)
				interactions++
			}
			continue
		}
		// Near: fetch the neighbour's tree nodes (§IV-C prioritized
		// messages: remote data requests outrank local computation).
		p.nearSent = append(p.nearSent, s.Piece)
		ctx.SendOpt(a.pieces, charm.Idx1(s.Piece), epGravReq,
			gravReq{Step: p.Step, Piece: p.ID},
			&charm.SendOpts{Bytes: 48, Prio: -10})
	}
	p.nearReqs = len(p.nearSent)

	// Local exact tree walk (the dominant real computation).
	if p.tree != nil {
		work := 0
		for i := 0; i < p.n(); i++ {
			work += walk(p.tree, p.Ps, i, p.Fs, a.cfg.Theta)
		}
		interactions += work
	}
	ctx.Charge(float64(interactions) * a.cfg.PerInteractionWork)

	// Replay requests that arrived before our TB finished.
	if len(p.pendingReq) > 0 {
		reqs := p.pendingReq
		p.pendingReq = nil
		for _, r := range reqs {
			a.serveGravReq(p, ctx, r)
		}
	}
	a.maybeFinishGravity(p, ctx)
}

// farEnough applies the opening-angle test conservatively over the whole
// requesting region.
func (a *App) farEnough(lo, hi [3]float64, s summary) bool {
	size := s.Hi[0] - s.Lo[0]
	// Minimum distance between the two boxes.
	d2 := 0.0
	for d := 0; d < 3; d++ {
		gap := 0.0
		if s.Lo[d] > hi[d] {
			gap = s.Lo[d] - hi[d]
		} else if lo[d] > s.Hi[d] {
			gap = lo[d] - s.Hi[d]
		}
		d2 += gap * gap
	}
	if d2 == 0 {
		return false
	}
	return size/math.Sqrt(d2) < a.cfg.Theta
}

func (a *App) onGravReq(obj charm.Chare, ctx *charm.Ctx, msg any) {
	p := obj.(*piece)
	p.app = a
	r := msg.(gravReq)
	if p.treeStep < r.Step || (p.tree == nil && p.Step <= r.Step && p.n() > 0) {
		// Our tree for the requested step is not built yet; defer until
		// our own TB completes.
		p.pendingReq = append(p.pendingReq, r)
		return
	}
	a.serveGravReq(p, ctx, r)
}

// serveGravReq ships the piece's flattened tree to the requester.
func (a *App) serveGravReq(p *piece, ctx *charm.Ctx, r gravReq) {
	nodes := flatten(p.tree)
	ctx.Charge(float64(len(nodes)) * 60e-9) // packing the node cache
	ctx.SendOpt(a.pieces, charm.Idx1(r.Piece), epGravResp,
		gravResp{Step: r.Step, Nodes: nodes},
		&charm.SendOpts{Bytes: len(nodes)*64 + 32, Prio: -10})
}

// flatten serializes the octree breadth-first into a shippable node array.
func flatten(root *node) []rnode {
	if root == nil {
		return nil
	}
	out := []rnode{}
	queue := []*node{root}
	for len(queue) > 0 {
		nd := queue[0]
		queue = queue[1:]
		rn := rnode{Lo: nd.lo, Hi: nd.hi, CX: nd.cx, CY: nd.cy, CZ: nd.cz, Mass: nd.mass}
		if len(nd.children) > 0 {
			rn.ChildStart = len(out) + 1 + len(queue)
			rn.ChildCount = len(nd.children)
			queue = append(queue, nd.children...)
		}
		out = append(out, rn)
	}
	return out
}

// walkRemote accumulates BH forces of a shipped tree on one position.
func walkRemote(nodes []rnode, at int, x, y, z float64, fs []float64, out int, theta float64) int {
	nd := &nodes[at]
	size := nd.Hi[0] - nd.Lo[0]
	dx, dy, dz := nd.CX-x, nd.CY-y, nd.CZ-z
	d2 := dx*dx + dy*dy + dz*dz
	if nd.ChildCount == 0 || (d2 > 0 && size*size < theta*theta*d2) {
		accumulateXYZ(fs, out, x, y, z, nd.CX, nd.CY, nd.CZ, nd.Mass)
		return 1
	}
	w := 0
	for c := nd.ChildStart; c < nd.ChildStart+nd.ChildCount; c++ {
		w += walkRemote(nodes, c, x, y, z, fs, out, theta)
	}
	return w
}

// onGravResp walks the received remote tree for all local particles — the
// near-field force work runs here, on the requester.
func (a *App) onGravResp(obj charm.Chare, ctx *charm.Ctx, msg any) {
	p := obj.(*piece)
	p.app = a
	resp := msg.(gravResp)
	work := 0
	if len(resp.Nodes) > 0 {
		for i := 0; i < p.n(); i++ {
			work += walkRemote(resp.Nodes, 0,
				p.Ps[i*pstride], p.Ps[i*pstride+1], p.Ps[i*pstride+2],
				p.Fs, i, a.cfg.Theta)
		}
	}
	ctx.Charge(float64(work) * a.cfg.PerInteractionWork)
	p.nearReqs--
	a.maybeFinishGravity(p, ctx)
}

// maybeFinishGravity integrates and closes the step for this piece.
func (a *App) maybeFinishGravity(p *piece, ctx *charm.Ctx) {
	if p.nearReqs > 0 || p.Fs == nil {
		return
	}
	dt := a.cfg.Dt
	for i := 0; i < p.n(); i++ {
		for d := 0; d < 3; d++ {
			p.Ps[i*pstride+3+d] += p.Fs[3*i+d] * dt
			p.Ps[i*pstride+d] += p.Ps[i*pstride+3+d] * dt
		}
	}
	ctx.Charge(float64(p.n()) * 15e-9)
	p.Fs = nil
	// The tree is retained (not nilled) so late-arriving near-field
	// requests for this step can still be served; it is rebuilt at the
	// next TB.
	p.sums = nil
	p.Step++
	ctx.Contribute(int64(1), charm.SumI64, charm.CallbackFunc(0, a.onGravityDone))
}

// onGravityDone closes the step on PE 0 and drives LB / the next step.
func (a *App) onGravityDone(ctx *charm.Ctx, _ any) {
	a.cur.Gravity = float64(ctx.Now() - a.gravStart)
	step := len(a.res.StepDone)
	if a.cfg.LBPeriod > 0 && (step+1)%a.cfg.LBPeriod == 0 && a.rt.Balancer() != nil {
		before := a.rt.MaxBusy()
		a.rt.Rebalance()
		a.cur.LB = float64(a.rt.MaxBusy() - before)
	}
	a.cur.Total = float64(ctx.Now()-a.stepStart) + a.cur.LB
	a.res.Phases = append(a.res.Phases, a.cur)
	a.res.StepDone = append(a.res.StepDone, ctx.Now())
	if len(a.res.StepDone) >= a.cfg.Steps {
		ctx.Exit()
		return
	}
	a.startStep()
}

func (a *App) onResume(obj charm.Chare, ctx *charm.Ctx, msg any) {
	obj.(*piece).InSync = false
}

// ---- octree ----

const leafCap = 8

func buildTree(ps []float64, lo, hi [3]float64, _ int) *node {
	n := len(ps) / pstride
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return build(ps, idx, lo, hi)
}

func build(ps []float64, idx []int, lo, hi [3]float64) *node {
	nd := &node{lo: lo, hi: hi}
	for _, i := range idx {
		m := ps[i*pstride+6]
		nd.mass += m
		nd.cx += m * ps[i*pstride]
		nd.cy += m * ps[i*pstride+1]
		nd.cz += m * ps[i*pstride+2]
	}
	if nd.mass > 0 {
		nd.cx /= nd.mass
		nd.cy /= nd.mass
		nd.cz /= nd.mass
	}
	if len(idx) <= leafCap {
		nd.pidx = append([]int(nil), idx...)
		return nd
	}
	mid := [3]float64{(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2, (lo[2] + hi[2]) / 2}
	buckets := make([][]int, 8)
	for _, i := range idx {
		o := 0
		if ps[i*pstride] >= mid[0] {
			o |= 1
		}
		if ps[i*pstride+1] >= mid[1] {
			o |= 2
		}
		if ps[i*pstride+2] >= mid[2] {
			o |= 4
		}
		buckets[o] = append(buckets[o], i)
	}
	// Degenerate distribution (all particles at one point): stop.
	nonEmpty := 0
	for _, b := range buckets {
		if len(b) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty <= 1 && len(idx) > leafCap {
		nd.pidx = append([]int(nil), idx...)
		return nd
	}
	for o, b := range buckets {
		if len(b) == 0 {
			continue
		}
		clo, chi := lo, hi
		if o&1 != 0 {
			clo[0] = mid[0]
		} else {
			chi[0] = mid[0]
		}
		if o&2 != 0 {
			clo[1] = mid[1]
		} else {
			chi[1] = mid[1]
		}
		if o&4 != 0 {
			clo[2] = mid[2]
		} else {
			chi[2] = mid[2]
		}
		nd.children = append(nd.children, build(ps, b, clo, chi))
	}
	return nd
}

// walk accumulates BH forces of the tree on particle i, skipping
// self-interaction, returning the interaction count.
func walk(nd *node, ps []float64, i int, fs []float64, theta float64) int {
	return walkInner(nd, ps, ps[i*pstride], ps[i*pstride+1], ps[i*pstride+2], i, fs, theta)
}

func walkInner(nd *node, ps []float64, x, y, z float64, self int, fs []float64, theta float64) int {
	size := nd.hi[0] - nd.lo[0]
	dx, dy, dz := nd.cx-x, nd.cy-y, nd.cz-z
	d2 := dx*dx + dy*dy + dz*dz
	if nd.children == nil {
		w := 0
		for _, j := range nd.pidx {
			if j == self {
				continue
			}
			accumulate(fs, self, x, y, z, ps[j*pstride], ps[j*pstride+1], ps[j*pstride+2], ps[j*pstride+6])
			w++
		}
		return w
	}
	if d2 > 0 && size*size < theta*theta*d2 {
		accumulateXYZ(fs, self, x, y, z, nd.cx, nd.cy, nd.cz, nd.mass)
		return 1
	}
	w := 0
	for _, c := range nd.children {
		w += walkInner(c, ps, x, y, z, self, fs, theta)
	}
	return w
}

const soften2 = 1e-4

func accumulate(fs []float64, i int, x, y, z, ox, oy, oz, m float64) {
	accumulateXYZ(fs, i, x, y, z, ox, oy, oz, m)
}

func accumulateXYZ(fs []float64, i int, x, y, z, ox, oy, oz, m float64) {
	dx, dy, dz := ox-x, oy-y, oz-z
	d2 := dx*dx + dy*dy + dz*dz + soften2
	inv := m / (d2 * math.Sqrt(d2))
	fs[3*i] += dx * inv
	fs[3*i+1] += dy * inv
	fs[3*i+2] += dz * inv
}
