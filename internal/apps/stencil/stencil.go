// Package stencil implements the Stencil2D mini-app (§IV-F): a 5-point
// Jacobi iteration on a 2-D grid over-decomposed into a chare array of
// blocks. Each block exchanges ghost rows/columns with its four neighbours
// asynchronously, computes a real Jacobi update, and contributes its
// residual to a per-iteration reduction — the timestamps of those
// reductions are the per-iteration times plotted in Fig 16.
//
// The app demonstrates over-decomposition (multiple blocks per PE overlap
// ghost latency with computation — the 77 ms → 32 ms cloud result) and
// both application-triggered (AtSync period) and RTS-triggered load
// balancing under interference.
package stencil

import (
	"fmt"
	"math"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/pup"
)

// Config parameterizes a run.
type Config struct {
	// GridN is the global grid edge (GridN × GridN points).
	GridN int
	// Chares is the chare-array edge (Chares × Chares blocks).
	Chares int
	// Iters is the number of Jacobi iterations.
	Iters int
	// LBPeriod triggers AtSync every LBPeriod iterations; 0 disables.
	LBPeriod int
	// PerPointWork is compute seconds (base frequency) per point update.
	PerPointWork float64
	// Source initializes interior points; default zero.
	Source func(x, y int) float64
	// Boundary gives the fixed Dirichlet value on the global edges
	// (side 0=left 1=right 2=top 3=bottom, k the position along it);
	// default is a hot (100°) left wall.
	Boundary func(side, k int) float64
}

func (c Config) withDefaults() Config {
	if c.PerPointWork == 0 {
		c.PerPointWork = 8e-9
	}
	if c.Source == nil {
		c.Source = func(x, y int) float64 { return 0 }
	}
	if c.Boundary == nil {
		c.Boundary = func(side, k int) float64 {
			if side == 0 {
				return 100
			}
			return 0
		}
	}
	return c
}

// Result reports a completed run.
type Result struct {
	// IterDone[k] is the virtual time iteration k's residual reduction
	// completed.
	IterDone []des.Time
	// Residuals[k] is the global Jacobi residual after iteration k.
	Residuals []float64
	// Elapsed is the total virtual run time.
	Elapsed des.Time
}

// IterTimes returns per-iteration durations (differences of IterDone).
func (r *Result) IterTimes() []float64 {
	out := make([]float64, len(r.IterDone))
	prev := des.Time(0)
	for i, t := range r.IterDone {
		out[i] = float64(t - prev)
		prev = t
	}
	return out
}

const (
	epStart charm.EP = iota
	epGhost
	epResume
)

// ghostMsg is an early ghost edge a block holds until its iteration: a
// copy of the edge, since the message that carried it is recycled when
// the handler returns. On the wire an edge is a charm.Vec tagged
// Iter<<2 | Side.
type ghostMsg struct {
	Side int // 0=from left, 1=from right, 2=from above, 3=from below
	Iter int
	Data []float64
}

type block struct {
	BI, BJ int
	B      int // interior points per side
	NB     int // blocks per side
	Iter   int
	Cur    []float64 // (B+2)^2 with ghost ring
	New    []float64
	Got    int
	Buffer []ghostMsg // early ghosts (next iteration, or pre-start); entries are reused
	InSync bool
	// Started flips on the start broadcast; ghosts can overtake it.
	Started bool

	app *App //pup:skip //charmvet:specstate (idempotent rebind: every handler writes the pointer the factory installs)
}

func (b *block) Pup(p *pup.Pup) {
	p.Int(&b.BI)
	p.Int(&b.BJ)
	p.Int(&b.B)
	p.Int(&b.NB)
	p.Int(&b.Iter)
	p.Float64s(&b.Cur)
	p.Float64s(&b.New)
	p.Int(&b.Got)
	pup.Slice(p, &b.Buffer, func(p *pup.Pup, g *ghostMsg) {
		p.Int(&g.Side)
		p.Int(&g.Iter)
		p.Float64s(&g.Data)
	})
	p.Bool(&b.InSync)
	p.Bool(&b.Started)
}

func (b *block) at(x, y int) float64     { return b.Cur[y*(b.B+2)+x] }
func (b *block) set(x, y int, v float64) { b.Cur[y*(b.B+2)+x] = v }

func (b *block) neighbors() int {
	n := 0
	if b.BI > 0 {
		n++
	}
	if b.BI < b.NB-1 {
		n++
	}
	if b.BJ > 0 {
		n++
	}
	if b.BJ < b.NB-1 {
		n++
	}
	return n
}

// App wires the mini-app to a runtime.
type App struct {
	rt  *charm.Runtime
	cfg Config
	arr *charm.Array
	res *Result
	err error
	// iterDone is the residual reduction's callback, built once: building
	// it per contribution costs a method-value closure per block and
	// iteration.
	iterDone charm.Callback
}

// New declares the block array on the runtime.
func New(rt *charm.Runtime, cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	if cfg.GridN%cfg.Chares != 0 {
		return nil, fmt.Errorf("stencil: grid %d not divisible by %d chares", cfg.GridN, cfg.Chares)
	}
	app := &App{rt: rt, cfg: cfg, res: &Result{}}
	app.iterDone = charm.CallbackFunc(0, app.onIterDone)
	// The PE grid for the declared PE count, found once; HomeMap searches
	// again only when the active count differs (after SetActivePEs).
	px0, py0 := peGrid(rt.NumPEs())
	handlers := []charm.Handler{
		epStart:  app.onStart,
		epGhost:  app.onGhost,
		epResume: app.onResume,
	}
	app.arr = rt.DeclareArray("stencil_blocks", app.factory, handlers, charm.ArrayOpts{
		UsesAtSync: cfg.LBPeriod > 0,
		Migratable: true,
		// Block handlers read only (block state, payload, immutable cfg);
		// the error latch publishes through Defer.
		PureHandlers: true,
		ResumeEP:     epResume,
		Bounds:       []int{cfg.Chares, cfg.Chares}, // dense 2-D grid: flat location tables
		// 2-D block mapping: contiguous tiles of chares share a PE so
		// most ghost exchanges stay node-local (the standard stencil
		// mapping; the RTS is free to migrate away from it later).
		HomeMap: func(idx charm.Index, numPEs int) int {
			px, py := px0, py0
			if px*py != numPEs {
				px, py = peGrid(numPEs)
			}
			ti := idx.I() * px / cfg.Chares
			tj := idx.J() * py / cfg.Chares
			return ti*py + tj
		},
	})
	bsz := cfg.GridN / cfg.Chares
	for i := 0; i < cfg.Chares; i++ {
		for j := 0; j < cfg.Chares; j++ {
			b := &block{BI: i, BJ: j, B: bsz, NB: cfg.Chares,
				Cur: make([]float64, (bsz+2)*(bsz+2)),
				New: make([]float64, (bsz+2)*(bsz+2)),
				app: app,
			}
			for y := 1; y <= bsz; y++ {
				for x := 1; x <= bsz; x++ {
					b.set(x, y, cfg.Source(i*bsz+x-1, j*bsz+y-1))
				}
			}
			// Global edges: the fixed boundary lives in the ghost ring
			// of edge blocks and is never overwritten.
			if i == 0 {
				for y := 1; y <= bsz; y++ {
					b.set(0, y, cfg.Boundary(0, j*bsz+y-1))
				}
			}
			if i == cfg.Chares-1 {
				for y := 1; y <= bsz; y++ {
					b.set(bsz+1, y, cfg.Boundary(1, j*bsz+y-1))
				}
			}
			if j == 0 {
				for x := 1; x <= bsz; x++ {
					b.set(x, 0, cfg.Boundary(2, i*bsz+x-1))
				}
			}
			if j == cfg.Chares-1 {
				for x := 1; x <= bsz; x++ {
					b.set(x, bsz+1, cfg.Boundary(3, i*bsz+x-1))
				}
			}
			app.arr.Insert(charm.Idx2(i, j), b)
		}
	}
	return app, nil
}

// peGrid factors numPEs into the px × py PE grid the home map tiles blocks
// over: px is the smallest divisor of numPEs at or above its square root.
func peGrid(numPEs int) (px, py int) {
	px = 1
	for px*px < numPEs {
		px++
	}
	for numPEs%px != 0 {
		px--
	}
	return px, numPEs / px
}

func (a *App) factory() charm.Chare { return &block{app: a} }

// Array exposes the block array (for checkpoint/LB tooling).
func (a *App) Array() *charm.Array { return a.arr }

// Iters returns the number of iterations whose residual reduction has
// landed. Fault-tolerance drivers save it at a checkpoint cut.
func (a *App) Iters() int { return len(a.res.IterDone) }

// TruncateResult rolls the result accumulators back to n completed
// iterations, discarding entries appended during a segment being rolled
// back after a failure.
func (a *App) TruncateResult(n int) {
	if n < 0 || n > len(a.res.IterDone) {
		return
	}
	a.res.IterDone = a.res.IterDone[:n]
	a.res.Residuals = a.res.Residuals[:n]
}

// Start kicks off iteration 0.
func (a *App) Start() { a.arr.Broadcast(epStart, nil) }

// Run executes the app to completion on the runtime and returns its result.
func (a *App) Run() (*Result, error) {
	a.Start()
	a.res.Elapsed = a.rt.Run()
	if a.err != nil {
		return nil, a.err
	}
	if len(a.res.IterDone) < a.cfg.Iters {
		return nil, fmt.Errorf("stencil: only %d of %d iterations completed", len(a.res.IterDone), a.cfg.Iters)
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

func (a *App) onStart(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	b.Started = true
	ctx.SetPos(float64(b.BI), float64(b.BJ), 0)
	a.advance(b, ctx)
}

// sendGhosts ships the block's boundary values for iteration b.Iter. Each
// edge is read straight out of Cur — a column at stride B+2, a row at
// stride 1 — into the message's own storage.
func (a *App) sendGhosts(b *block, ctx *charm.Ctx) {
	bsz := b.B
	opts := &charm.SendOpts{Bytes: bsz*8 + 32}
	send := func(di, dj, side, first, stride int) {
		ctx.SendVec(a.arr, charm.Idx2(b.BI+di, b.BJ+dj), epGhost, b.Iter<<2|side,
			b.Cur[first:], bsz, stride, opts)
	}
	if b.BI > 0 {
		send(-1, 0, 1, bsz+3, bsz+2) // column x=1 arrives at the left neighbour as its "from right"
	}
	if b.BI < b.NB-1 {
		send(+1, 0, 0, bsz+2+bsz, bsz+2) // column x=bsz
	}
	if b.BJ > 0 {
		send(0, -1, 3, bsz+3, 1) // row y=1
	}
	if b.BJ < b.NB-1 {
		send(0, +1, 2, bsz*(bsz+2)+1, 1) // row y=bsz
	}
}

func (a *App) onGhost(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	v := msg.(*charm.Vec)
	side, iter := v.Tag()&3, v.Tag()>>2
	if !b.Started || iter != b.Iter {
		// The block has not started yet, or a fast neighbour is one
		// iteration ahead; hold a copy of the ghost, reusing the storage
		// of an entry consumed earlier.
		n := len(b.Buffer)
		if n < cap(b.Buffer) {
			b.Buffer = b.Buffer[:n+1]
		} else {
			b.Buffer = append(b.Buffer, ghostMsg{})
		}
		g := &b.Buffer[n]
		g.Side, g.Iter = side, iter
		g.Data = append(g.Data[:0], v.Data()...)
		return
	}
	a.applyGhost(b, side, v.Data())
	b.Got++
	a.maybeCompute(b, ctx)
}

// applyGhost writes one ghost edge into the block's ghost ring.
func (a *App) applyGhost(b *block, side int, data []float64) {
	bsz := b.B
	switch side {
	case 0: // from left neighbour: fill x=0 ghost column
		for y := 1; y <= bsz; y++ {
			b.set(0, y, data[y-1])
		}
	case 1:
		for y := 1; y <= bsz; y++ {
			b.set(bsz+1, y, data[y-1])
		}
	case 2:
		for x := 1; x <= bsz; x++ {
			b.set(x, 0, data[x-1])
		}
	case 3:
		for x := 1; x <= bsz; x++ {
			b.set(x, bsz+1, data[x-1])
		}
	}
}

// maybeCompute runs the Jacobi update once all ghosts for the current
// iteration arrived.
func (a *App) maybeCompute(b *block, ctx *charm.Ctx) {
	if b.InSync || b.Got < b.neighbors() {
		return
	}
	bsz := b.B
	var residual float64
	for y := 1; y <= bsz; y++ {
		for x := 1; x <= bsz; x++ {
			v := 0.25 * (b.at(x-1, y) + b.at(x+1, y) + b.at(x, y-1) + b.at(x, y+1))
			d := v - b.at(x, y)
			residual += d * d
			b.New[y*(bsz+2)+x] = v
		}
	}
	// Copy the updated interior back, preserving the ghost ring (which
	// holds the fixed global boundary on edge blocks).
	for y := 1; y <= bsz; y++ {
		copy(b.Cur[y*(bsz+2)+1:y*(bsz+2)+1+bsz], b.New[y*(bsz+2)+1:y*(bsz+2)+1+bsz])
	}
	ctx.Charge(float64(bsz*bsz) * a.cfg.PerPointWork)

	b.Iter++
	b.Got = 0
	ctx.Contribute(residual, charm.SumF64, a.iterDone)

	if b.Iter >= a.cfg.Iters {
		return // done; the final reduction ends the run
	}
	if a.cfg.LBPeriod > 0 && b.Iter%a.cfg.LBPeriod == 0 {
		b.InSync = true
		ctx.AtSync()
		return
	}
	a.advance(b, ctx)
}

// advance starts the next iteration: send ghosts, replay buffered ones.
func (a *App) advance(b *block, ctx *charm.Ctx) {
	a.sendGhosts(b, ctx)
	if len(b.Buffer) > 0 {
		// Emptied, not dropped: the entries keep their Data for the next
		// early ghosts. Nothing below appends to Buffer before the loop ends.
		buf := b.Buffer
		b.Buffer = b.Buffer[:0]
		for i := range buf {
			g := &buf[i]
			if g.Iter != b.Iter {
				err := fmt.Errorf("stencil: block (%d,%d) buffered ghost for iter %d at iter %d",
					b.BI, b.BJ, g.Iter, b.Iter)
				ctx.Defer(func() { a.err = err }) // app-global latch: publish at commit
				ctx.Exit()
				return
			}
			a.applyGhost(b, g.Side, g.Data)
			b.Got++
		}
	}
	a.maybeCompute(b, ctx)
}

func (a *App) onResume(obj charm.Chare, ctx *charm.Ctx, msg any) {
	b := obj.(*block)
	b.app = a
	b.InSync = false
	a.advance(b, ctx)
}

// onIterDone runs on PE 0 when an iteration's residual reduction arrives.
func (a *App) onIterDone(ctx *charm.Ctx, result any) {
	a.res.IterDone = append(a.res.IterDone, ctx.Now())
	a.res.Residuals = append(a.res.Residuals, math.Sqrt(result.(float64)))
	if len(a.res.IterDone) >= a.cfg.Iters {
		ctx.Exit()
	}
}
