// Package ampi implements Adaptive MPI (§II-D): an MPI-flavoured API whose
// ranks are light-weight user-level threads (goroutines) bound to
// migratable rank-chares instead of OS processes. Several ranks virtualize
// onto one PE, which buys the over-decomposition benefits — communication/
// computation overlap, cache blocking from smaller working sets (Fig 14),
// and RTS-managed load balancing via MPI_Migrate.
//
// Rank code is ordinary blocking-style Go. The DES engine drives ranks
// cooperatively: exactly one rank executes at a time, so simulations remain
// deterministic, while each rank experiences a private sequential timeline.
package ampi

import (
	"fmt"

	"charmgo/internal/charm"
	"charmgo/internal/pup"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Options configures an AMPI job.
type Options struct {
	// StateBytes is the modeled per-rank memory footprint (the
	// iso-malloc'd state), charged on migration and checkpoint.
	StateBytes int
	// PerOpOverhead is CPU time added to every MPI call, modeling the
	// virtualization layer; zero simulates native MPI.
	PerOpOverhead float64
	// Migratable enables MPI_Migrate/AtSync (requires a balancer on the
	// runtime). Native-MPI baselines leave it off.
	Migratable bool
}

type mail struct {
	src   int
	tag   int
	data  any
	bytes int
}

type wakeKind int

const (
	wStart wakeKind = iota
	wMsg
	wColl
	wResumed
	wAbort
)

type wake struct {
	kind wakeKind
	data any
}

type yieldKind int

const (
	yBlocked yieldKind = iota
	yFinished
)

type blockReason int

const (
	notBlocked blockReason = iota
	onRecv
	onColl
	onMigrate
)

// Rank is the handle rank code receives; its methods are the MPI surface.
type Rank struct {
	env *Env
	id  int

	ctx    *charm.Ctx
	resume chan wake
	yield  chan yieldKind

	mailbox []mail
	blocked blockReason
	recvSrc int
	recvTag int

	started  bool
	aborted  bool
	finished bool
	err      error
}

// rankChare is the migratable backing object of one rank. The Rank handle
// itself (the user-level thread) is looked up by ID in the Env — real AMPI
// keeps the ULT stack alive across migration via iso-malloc; here the
// goroutine simply stays resident while its chare is re-homed.
type rankChare struct {
	ID         int
	StateBytes int
}

func (rc *rankChare) Pup(p *pup.Pup) {
	p.Int(&rc.ID)
	p.Int(&rc.StateBytes)
	p.Virtual(rc.StateBytes)
}

// Env is a running AMPI job.
type Env struct {
	rt    *charm.Runtime
	arr   *charm.Array
	opts  Options
	ranks []*Rank
	nDone int
}

const (
	epStart charm.EP = iota
	epMsg
	epColl
	epResume
)

var abortSentinel = &struct{ s string }{"ampi abort"}

// Run executes fn as n MPI ranks on the runtime and returns when every rank
// has returned. Ranks are block-mapped: rank i starts on PE i*P/n, so
// consecutive ranks share PEs at virtualization ratios above one. An error
// reports deadlock (ranks still blocked when the machine went idle) or a
// rank panic.
func Run(rt *charm.Runtime, n int, fn func(r *Rank), opts Options) error {
	env, err := Start(rt, "ampi_ranks", n, fn, opts)
	if err != nil {
		return err
	}
	rt.Run()
	return env.Finish()
}

// Start launches the ranks without running the engine, for callers that
// compose AMPI with other work (interoperation, §III-G). arrName must be
// unique per job.
func Start(rt *charm.Runtime, arrName string, n int, fn func(r *Rank), opts Options) (*Env, error) {
	if n < 1 {
		return nil, fmt.Errorf("ampi: need at least 1 rank")
	}
	env := &Env{rt: rt, opts: opts}
	handlers := []charm.Handler{
		epStart:  env.onStart,
		epMsg:    env.onMsg,
		epColl:   env.onColl,
		epResume: env.onResume,
	}
	env.arr = rt.DeclareArray(arrName, func() charm.Chare { return &rankChare{} }, handlers,
		charm.ArrayOpts{
			UsesAtSync: opts.Migratable,
			ResumeEP:   epResume,
			HomeMap: func(idx charm.Index, numPEs int) int {
				return idx.I() * numPEs / n
			},
		})
	env.ranks = make([]*Rank, n)
	p := rt.NumPEs()
	for i := 0; i < n; i++ {
		r := &Rank{
			env:    env,
			id:     i,
			resume: make(chan wake),
			yield:  make(chan yieldKind),
		}
		env.ranks[i] = r
		rc := &rankChare{ID: i, StateBytes: opts.StateBytes}
		env.arr.InsertOn(charm.Idx1(i), rc, i*p/n)
		go r.main(fn)
	}
	// Kick every rank off.
	env.arr.Broadcast(epStart, nil)
	return env, nil
}

// Finish checks the job's outcome after the engine has drained, aborting
// any still-parked ranks. It is idempotent.
func (e *Env) Finish() error {
	var firstErr error
	for _, r := range e.ranks {
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
	}
	if firstErr != nil {
		e.abortAll()
		return firstErr
	}
	if e.nDone < len(e.ranks) {
		blocked := 0
		for _, r := range e.ranks {
			if !r.finished && !r.aborted {
				blocked++
			}
		}
		e.abortAll()
		if blocked > 0 {
			return fmt.Errorf("ampi: deadlock: %d of %d ranks still blocked at idle", blocked, len(e.ranks))
		}
	}
	return nil
}

func (e *Env) abortAll() {
	for _, r := range e.ranks {
		if r.finished || r.aborted {
			continue
		}
		if r.blocked != notBlocked || !r.started {
			// Parked on a blocking call (or never started): unpark with
			// an abort so the goroutine exits. Mark aborted before the
			// send so the write is ordered before the rank goroutine's
			// own r.aborted store after it wakes.
			r.aborted = true
			r.resume <- wake{kind: wAbort}
		}
	}
}

// ---- scheduler-side handlers ----

func (e *Env) rankOf(obj charm.Chare) *Rank { return e.ranks[obj.(*rankChare).ID] }

// segment runs the rank until it blocks again, within ctx's execution.
func (e *Env) segment(ctx *charm.Ctx, r *Rank, w wake) {
	//charmvet:retain (cleared below before segment returns; the rank goroutine only touches it while parked inside this same delivery)
	r.ctx = ctx
	r.blocked = notBlocked
	r.resume <- w
	yk := <-r.yield
	r.ctx = nil
	if yk == yFinished {
		r.finished = true
		e.nDone++
	}
}

func (e *Env) onStart(obj charm.Chare, ctx *charm.Ctx, msg any) {
	r := e.rankOf(obj)
	r.started = true
	e.segment(ctx, r, wake{kind: wStart})
}

func (e *Env) onMsg(obj charm.Chare, ctx *charm.Ctx, msg any) {
	r := e.rankOf(obj)
	m := msg.(mail)
	r.mailbox = append(r.mailbox, m)
	if r.blocked == onRecv && matches(m, r.recvSrc, r.recvTag) {
		e.segment(ctx, r, wake{kind: wMsg})
	}
}

func (e *Env) onColl(obj charm.Chare, ctx *charm.Ctx, msg any) {
	r := e.rankOf(obj)
	if r.blocked != onColl {
		panic(fmt.Sprintf("ampi: rank %d got collective result while not in a collective", r.id))
	}
	e.segment(ctx, r, wake{kind: wColl, data: msg})
}

func (e *Env) onResume(obj charm.Chare, ctx *charm.Ctx, msg any) {
	r := e.rankOf(obj)
	if r.blocked == onMigrate {
		e.segment(ctx, r, wake{kind: wResumed})
	}
}

func matches(m mail, src, tag int) bool {
	return (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag)
}

// ---- rank-side API ----

func (r *Rank) main(fn func(*Rank)) {
	defer func() {
		rec := recover()
		if r.aborted {
			return // parked scheduler is gone; just exit the goroutine
		}
		if rec != nil {
			r.err = fmt.Errorf("ampi: rank %d panicked: %v", r.id, rec)
		}
		r.yield <- yFinished
	}()
	w := <-r.resume
	if w.kind == wAbort {
		r.aborted = true
		return
	}
	fn(r)
}

// block parks the rank until the scheduler wakes it.
func (r *Rank) block(why blockReason) wake {
	r.blocked = why
	r.yield <- yBlocked
	w := <-r.resume
	if w.kind == wAbort {
		r.aborted = true
		panic(abortSentinel)
	}
	return w
}

func (r *Rank) overhead() {
	if r.env.opts.PerOpOverhead > 0 {
		r.ctx.Charge(r.env.opts.PerOpOverhead)
	}
}

// ID returns the rank number (MPI_Comm_rank).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks (MPI_Comm_size).
func (r *Rank) Size() int { return len(r.env.ranks) }

// Wtime returns the rank's current virtual time (MPI_Wtime).
func (r *Rank) Wtime() float64 { return float64(r.ctx.Now()) }

// Charge accounts work seconds of computation at base frequency.
func (r *Rank) Charge(work float64) { r.ctx.Charge(work) }

// ChargeCache accounts computation whose working set is ws bytes, shared
// with the other virtual ranks on the node (the Fig 14 cache model).
func (r *Rank) ChargeCache(work float64, ws int64, nodeSharers int) {
	r.ctx.ChargeWithCache(work, ws, nodeSharers)
}

// Send posts an asynchronous (eager/buffered) message (MPI_Send).
func (r *Rank) Send(dst, tag int, data any, bytes int) {
	if dst < 0 || dst >= len(r.env.ranks) {
		panic(fmt.Sprintf("ampi: send to rank %d of %d", dst, len(r.env.ranks)))
	}
	r.overhead()
	r.ctx.SendOpt(r.env.arr, charm.Idx1(dst), epMsg,
		mail{src: r.id, tag: tag, data: data, bytes: bytes},
		&charm.SendOpts{Bytes: bytes + 32})
}

// Recv blocks until a matching message arrives and returns its payload and
// source rank (MPI_Recv). Use AnySource/AnyTag as wildcards.
func (r *Rank) Recv(src, tag int) (any, int) {
	r.overhead()
	for {
		for i, m := range r.mailbox {
			if matches(m, src, tag) {
				r.mailbox = append(r.mailbox[:i], r.mailbox[i+1:]...)
				return m.data, m.src
			}
		}
		r.recvSrc, r.recvTag = src, tag
		r.block(onRecv)
	}
}

// Barrier synchronizes all ranks (MPI_Barrier).
func (r *Rank) Barrier() {
	r.overhead()
	r.ctx.Contribute(int64(1), charm.SumI64, charm.CallbackBcast(r.env.arr, epColl))
	r.block(onColl)
}

// AllreduceF combines one float64 across all ranks (MPI_Allreduce).
func (r *Rank) AllreduceF(val float64, op charm.Reducer) float64 {
	r.overhead()
	r.ctx.Contribute(val, op, charm.CallbackBcast(r.env.arr, epColl))
	w := r.block(onColl)
	return w.data.(float64)
}

// AllreduceI combines one int64 across all ranks.
func (r *Rank) AllreduceI(val int64, op charm.Reducer) int64 {
	r.overhead()
	r.ctx.Contribute(val, op, charm.CallbackBcast(r.env.arr, epColl))
	w := r.block(onColl)
	return w.data.(int64)
}

// AllreduceVec sums a vector elementwise across all ranks (histogram
// reductions); every rank must contribute the same length.
func (r *Rank) AllreduceVec(vals []float64) []float64 {
	r.overhead()
	r.ctx.Contribute(vals, charm.SumVecF64, charm.CallbackBcast(r.env.arr, epColl))
	w := r.block(onColl)
	return w.data.([]float64)
}

// AllreduceMin returns the global minimum (the hydro dt reduction).
func (r *Rank) AllreduceMin(val float64) float64 { return r.AllreduceF(val, charm.MinF64) }

// AllreduceSum returns the global sum.
func (r *Rank) AllreduceSum(val float64) float64 { return r.AllreduceF(val, charm.SumF64) }

// CharmCtx exposes the charm execution context of the rank's current
// segment — the interoperation hook (§III-G): rank code uses it to invoke
// entry methods of Charm-side library modules (the CharmLibInit pattern),
// then typically blocks in Recv until the library delivers its result via
// Env.SendToRank.
func (r *Rank) CharmCtx() *charm.Ctx { return r.ctx }

// SendToRank delivers a message into a rank's MPI mailbox from Charm-side
// code (a library module's completion path). The receiving rank sees it as
// an ordinary Recv with source = src.
func (e *Env) SendToRank(ctx *charm.Ctx, dst, src, tag int, data any, bytes int) {
	ctx.SendOpt(e.arr, charm.Idx1(dst), epMsg,
		mail{src: src, tag: tag, data: data, bytes: bytes},
		&charm.SendOpts{Bytes: bytes + 32})
}

// Migrate is MPI_Migrate: the AtSync load-balancing point. All ranks must
// call it collectively; the runtime's balancer may move rank-chares before
// resuming. A no-op for jobs started without Migratable.
func (r *Rank) Migrate() {
	if !r.env.opts.Migratable {
		return
	}
	r.overhead()
	r.ctx.AtSync()
	r.block(onMigrate)
}
