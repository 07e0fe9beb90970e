// Package pdes implements the parallel discrete event simulation mini-app
// of §IV-E: logical processes (LPs) as chares executing timestamped events
// under the YAWNS windowed conservative protocol, benchmarked with PHOLD.
//
// Each YAWNS round has two phases. The window calculation finds, by global
// reduction, the earliest time any LP could next create an event; lookahead
// then bounds a window inside which every pending event can execute without
// being preempted. The execution phase runs those events — each schedules a
// successor with a random future timestamp on a random LP, so communication
// is unpredictable fine-grained point-to-point traffic: exactly the
// workload where the paper leans on over-decomposition (idle LPs cost
// nothing, the PE runs whichever LP has events), message-driven execution
// (no posted receives to match), and TRAM (Fig 15b: aggregation hurts at
// low event density and wins big at high).
package pdes

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/pup"
	"charmgo/internal/tram"
)

// Config parameterizes a PHOLD run.
type Config struct {
	// LPs is the number of logical processes.
	LPs int
	// EventsPerLP is the initial event population per LP.
	EventsPerLP int
	// Lookahead is the minimum event-to-event delay (the YAWNS window).
	Lookahead float64
	// MeanDelay is the mean of the exponential extra delay.
	MeanDelay float64
	// EventWork is the compute cost of executing one event.
	EventWork float64
	// TargetEvents ends the run once this many events committed.
	TargetEvents int
	// UseTram routes events through the aggregation layer.
	UseTram bool
	// TramBuf overrides the TRAM buffer threshold.
	TramBuf int
	// LBPeriodWindows rebalances the LPs every k YAWNS windows using the
	// runtime's installed strategy (0 = never). Windows are quiescent
	// points, so migration is always safe there.
	LBPeriodWindows int
	Seed            int64
	// WindowHook, when set, runs on PE 0 at each window boundary (after
	// the exit check, before the next window opens) with the number of
	// completed windows. The boundary is quiescent — no events in flight —
	// so fault-tolerance drivers checkpoint here.
	WindowHook func(windows int)
}

func (c Config) withDefaults() Config {
	if c.EventsPerLP == 0 {
		c.EventsPerLP = 32
	}
	if c.Lookahead == 0 {
		c.Lookahead = 1.0
	}
	if c.MeanDelay == 0 {
		c.MeanDelay = 4.0
	}
	if c.EventWork == 0 {
		c.EventWork = 2e-6
	}
	if c.TargetEvents == 0 {
		c.TargetEvents = c.LPs * c.EventsPerLP * 4
	}
	return c
}

// Result reports a run.
type Result struct {
	// Committed is the number of events executed.
	Committed int
	// Windows is the number of YAWNS rounds.
	Windows int
	// Elapsed is the virtual wall time.
	Elapsed des.Time
	// EventRate is Committed / Elapsed (events per second, the Fig 15
	// metric).
	EventRate float64
	// MaxVT is the simulation time the run reached: the earliest event
	// timestamp still pending when it stopped.
	MaxVT float64
}

const (
	epExecute charm.EP = iota
	epEvent
	epReportMin
)

// tsHeap is a min-heap of event timestamps, maintained inline: push/pop
// run on float64s directly, so heap maintenance costs no interface boxing
// per event. The sift algorithm matches container/heap step for step, so
// the array layout (and hence pupped checkpoint bytes) is unchanged.
type tsHeap []float64

func (h *tsHeap) push(v float64) {
	s := append(*h, v)
	*h = s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= v {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = v
}

func (h *tsHeap) pop() float64 {
	s := *h
	n := len(s) - 1
	top := s[0]
	v := s[n]
	s = s[:n]
	*h = s
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && s[r] < s[c] {
				c = r
			}
			if s[c] >= v {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = v
	}
	return top
}

// lp is one logical process.
type lp struct {
	ID    int
	Q     tsHeap
	Exec  int64 // events executed
	RngLo uint64
	RngHi uint64

	app *App //pup:skip //charmvet:specstate (idempotent rebind: every handler writes the pointer the factory installs)
}

func (l *lp) Pup(p *pup.Pup) {
	p.Int(&l.ID)
	// A binary heap's array layout depends on insertion order even when
	// the multiset of pending timestamps does not. Sort before
	// serializing: a sorted ascending array is itself a valid min-heap,
	// so this canonicalizes the bytes — checkpoints and state digests
	// become independent of message arrival order — without changing the
	// LP's behaviour.
	sort.Float64s(l.Q)
	pup.Slice(p, (*[]float64)(&l.Q), (*pup.Pup).Float64)
	p.Int64(&l.Exec)
	p.Uint64(&l.RngLo)
	p.Uint64(&l.RngHi)
}

// rng is a small deterministic generator carried in the LP state (so it
// migrates with the LP).
func (l *lp) rand() float64 {
	l.RngLo ^= l.RngLo << 13
	l.RngLo ^= l.RngLo >> 7
	l.RngLo ^= l.RngLo << 17
	return float64(l.RngLo%(1<<52)) / float64(uint64(1)<<52)
}

func (l *lp) randN(n int) int { return int(l.rand()*float64(n)) % n }

func (l *lp) expo(mean float64) float64 {
	u := l.rand()
	if u <= 0 {
		u = 1e-12
	}
	return -mean * math.Log(u)
}

// App wires PDES to a runtime.
type App struct {
	rt   *charm.Runtime
	cfg  Config
	lps  *charm.Array
	tram *tram.Client
	res  *Result
	err  error

	window float64 // current window end

	// onWindowCB is the window reduction's callback, built once: every
	// LP's report_min delivery passes it to Contribute, and building it
	// there costs a method-value closure per delivery. onQuietCB, the
	// quiescence detection's callback that starts the next window
	// calculation, is built once for the same reason.
	onWindowCB charm.Callback
	onQuietCB  charm.Callback
}

// New creates the LP array and the initial PHOLD event population.
func New(rt *charm.Runtime, cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.LPs < 1:
		return nil, fmt.Errorf("pdes: need LPs")
	case cfg.EventsPerLP < 1:
		return nil, fmt.Errorf("pdes: EventsPerLP %d out of range (want >= 1)", cfg.EventsPerLP)
	case cfg.TargetEvents < 0:
		return nil, fmt.Errorf("pdes: TargetEvents %d out of range (want >= 0)", cfg.TargetEvents)
	}
	a := &App{rt: rt, cfg: cfg, res: &Result{}}
	a.onWindowCB = charm.CallbackFunc(0, a.onWindow)
	a.onQuietCB = charm.CallbackFunc(0, func(*charm.Ctx, any) { a.askMin() })
	handlers := []charm.Handler{
		epExecute:   a.onExecute,
		epEvent:     a.onEvent,
		epReportMin: a.onReportMin,
	}
	a.lps = rt.DeclareArray("pdes_lps", func() charm.Chare { return &lp{app: a} },
		handlers, charm.ArrayOpts{
			Migratable: true,
			Bounds:     []int{cfg.LPs}, // dense 1-D index space: flat location tables
			// LP handlers touch only (LP state, payload); app-global writes
			// go through Defer. TRAM's phase-side aggregation buffers are
			// app-global, so aggregated runs stay on eager state saving.
			PureHandlers: !cfg.UseTram,
			HomeMap: func(idx charm.Index, numPEs int) int {
				return idx.I() * numPEs / cfg.LPs // block map: LPs/PE contiguity
			},
			EntryNames: []string{
				epExecute:   "execute",
				epEvent:     "event",
				epReportMin: "report_min",
			},
		})
	rng := rand.New(rand.NewSource(cfg.Seed*1619 + 11))
	for i := 0; i < cfg.LPs; i++ {
		l := &lp{ID: i, RngLo: uint64(rng.Int63()) | 1, app: a}
		for e := 0; e < cfg.EventsPerLP; e++ {
			l.Q.push(l.expo(cfg.MeanDelay))
		}
		a.lps.Insert(charm.Idx1(i), l)
	}
	if cfg.UseTram {
		// A short flush timeout drains the partially filled buffers at
		// the end of each execution phase (the YAWNS window boundary is
		// the natural TRAM flush point); the threshold still aggregates
		// the intra-window burst.
		topts := tram.Options{FlushTimeout: 1e-4}
		if cfg.TramBuf > 0 {
			topts.BufItems = cfg.TramBuf
		}
		a.tram = tram.New(rt, a.lps, epEvent, topts)
	}
	return a, nil
}

// TramStats returns the aggregation statistics (zero when TRAM is off).
func (a *App) TramStats() tram.Stats {
	if a.tram == nil {
		return tram.Stats{}
	}
	return a.tram.Stats
}

// Run executes YAWNS rounds until TargetEvents commit.
func (a *App) Run() (*Result, error) {
	// Bootstrap: first window from the initial population.
	a.askMin()
	a.res.Elapsed = a.rt.Run()
	if a.err != nil {
		return nil, a.err
	}
	committed := a.committed()
	if committed < int64(a.cfg.TargetEvents) {
		return nil, fmt.Errorf("pdes: committed %d of %d events", committed, a.cfg.TargetEvents)
	}
	a.res.Committed = int(committed)
	if a.res.Elapsed > 0 {
		a.res.EventRate = float64(committed) / float64(a.res.Elapsed)
	}
	return a.res, nil
}

// committed is the number of events executed so far: the sum of the LPs'
// Exec counts. LP state is what a checkpoint restores and a speculation
// rolls back, so the sum is always the committed count. Driver or global
// context only (the window callback, after Run), where no phase runs.
func (a *App) committed() int64 {
	var n int64
	a.lps.Each(func(c charm.Chare) { n += c.(*lp).Exec })
	return n
}

// Run is the one-call driver.
func Run(rt *charm.Runtime, cfg Config) (*Result, error) {
	app, err := New(rt, cfg)
	if err != nil {
		return nil, err
	}
	return app.Run()
}

// askMin starts a window calculation: every LP reports its earliest
// pending timestamp.
func (a *App) askMin() {
	a.lps.Broadcast(epReportMin, nil)
}

// AskMin restarts the YAWNS protocol from a quiescent cut: every LP
// reports its earliest pending timestamp and the next window opens from
// the resulting reduction. Fault-tolerance drivers use it as the replay
// kick after a rollback; the extra window-min round mutates no LP state,
// so the replayed execution commits exactly the failure-free values.
func (a *App) AskMin() { a.askMin() }

// DriverState is the app-global driver state paired with a chare
// checkpoint: the window counters live outside the LP chares, so rollback
// must restore them explicitly. (The committed count is the LPs' own state;
// see committed.)
type DriverState struct {
	Window  float64
	Windows int
}

// DriverState snapshots the driver counters at a checkpoint cut.
func (a *App) DriverState() DriverState {
	return DriverState{Window: a.window, Windows: a.res.Windows}
}

// RestoreDriverState rolls the driver counters back to a checkpoint cut.
func (a *App) RestoreDriverState(s DriverState) {
	a.window = s.Window
	a.res.Windows = s.Windows
}

func (a *App) onReportMin(obj charm.Chare, ctx *charm.Ctx, msg any) {
	l := obj.(*lp)
	l.app = a
	m := math.Inf(1)
	if len(l.Q) > 0 {
		m = l.Q[0]
	}
	ctx.Charge(3e-7)
	ctx.ContributeF64(m, charm.MinF64, a.onWindowCB)
}

// onWindow receives the global minimum and opens the next window.
func (a *App) onWindow(ctx *charm.Ctx, result any) {
	gmin := result.(float64)
	if a.committed() >= int64(a.cfg.TargetEvents) || math.IsInf(gmin, 1) {
		a.res.MaxVT = gmin
		ctx.Exit()
		return
	}
	if a.cfg.WindowHook != nil {
		a.cfg.WindowHook(a.res.Windows)
	}
	a.res.Windows++
	if a.cfg.LBPeriodWindows > 0 && a.res.Windows%a.cfg.LBPeriodWindows == 0 &&
		a.rt.Balancer() != nil {
		a.rt.Rebalance()
	}
	a.window = gmin + a.cfg.Lookahead
	ctx.Broadcast(a.lps, epExecute, a.window, nil)
	// Execution completion (including events still inside TRAM buffers)
	// is detected by quiescence, then the next window begins.
	a.rt.StartQD(a.onQuietCB)
}

// onExecute runs every pending event below the window end, scheduling the
// successor events (PHOLD).
func (a *App) onExecute(obj charm.Chare, ctx *charm.Ctx, msg any) {
	l := obj.(*lp)
	l.app = a
	w := msg.(float64)
	// The committed count is l.Exec, summed at the window boundary (see
	// committed), so executing publishes nothing app-global.
	for len(l.Q) > 0 && l.Q[0] < w {
		ts := l.Q.pop()
		ctx.Charge(a.cfg.EventWork)
		l.Exec++
		// Successor: random LP, random future time (conservative:
		// at least Lookahead away).
		nts := ts + a.cfg.Lookahead + l.expo(a.cfg.MeanDelay)
		dst := l.randN(a.cfg.LPs)
		if dst == l.ID {
			l.Q.push(nts)
			continue
		}
		if a.tram != nil {
			a.tram.Submit(ctx, charm.Idx1(dst), nts)
		} else {
			// The timestamp rides in the message's own storage, unboxed;
			// the modeled size stays the event's 32 bytes.
			v := [1]float64{nts}
			ctx.SendVec(a.lps, charm.Idx1(dst), epEvent, 0, v[:], 1, 1,
				&charm.SendOpts{Bytes: 32})
		}
	}
}

// onEvent enqueues an incoming event: a one-value *charm.Vec when sent
// directly, the submitted float64 when TRAM's LocalInvoke delivers it.
func (a *App) onEvent(obj charm.Chare, ctx *charm.Ctx, msg any) {
	l := obj.(*lp)
	l.app = a
	var ts float64
	if v, ok := msg.(*charm.Vec); ok {
		ts = v.Data()[0]
	} else {
		ts = msg.(float64)
	}
	ctx.Charge(2e-7)
	l.Q.push(ts)
	if ts < a.window {
		// Conservative protocol violated — fail loudly. The error latch is
		// app-global, so it is published at commit time. The push above
		// runs unconditionally so LP state never depends on a.window, a
		// mutable app-global the PureHandlers replay contract excludes
		// (the run aborts either way).
		ctx.Defer(func() {
			a.err = fmt.Errorf("pdes: event at %v arrived inside open window %v", ts, a.window)
		})
		ctx.Exit()
	}
}
