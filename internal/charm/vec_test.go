package charm

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"charmgo/internal/des"
	"charmgo/internal/machine"
	"charmgo/internal/parsim"
	"charmgo/internal/pup"
)

// vecLen is how many values a vector with the given tag carries: lengths
// vary from send to send, so a recycled message is always refilled to a
// different length than it last held.
func vecLen(tag int) int { return 1 + tag%9 }

// vecVal is value k of the vector sent with tag.
func vecVal(tag, k int) float64 { return float64(tag*1000+k) + 0.5 }

// sendPattern sends tag's vector from a source laid out at the given stride,
// with poison between the values a correct gather skips.
func sendPattern(ctx *Ctx, arr *Array, idx Index, ep EP, tag, stride int) {
	n := vecLen(tag)
	src := make([]float64, n*stride)
	for i := range src {
		src[i] = -1
	}
	for k := 0; k < n; k++ {
		src[k*stride] = vecVal(tag, k)
	}
	ctx.SendVec(arr, idx, ep, tag, src, n, stride, nil)
}

// vecSink counts the vectors it received and those whose values were not
// the sender's.
type vecSink struct {
	Got, Bad int
}

func (s *vecSink) Pup(p *pup.Pup) {
	p.Int(&s.Got)
	p.Int(&s.Bad)
}

func declSinks(rt *Runtime) *Array {
	handlers := []Handler{func(obj Chare, ctx *Ctx, msg any) {
		s := obj.(*vecSink)
		v := msg.(*Vec)
		s.Got++
		d := v.Data()
		if len(d) != vecLen(v.Tag()) {
			s.Bad++
			return
		}
		for k, x := range d {
			if x != vecVal(v.Tag(), k) {
				s.Bad++
				return
			}
		}
	}}
	return rt.DeclareArray("sinks", func() Chare { return &vecSink{} }, handlers, ArrayOpts{Migratable: true})
}

func checkSink(t *testing.T, arr *Array, idx Index, want int) {
	t.Helper()
	s := arr.Get(idx).(*vecSink)
	if s.Got != want || s.Bad != 0 {
		t.Fatalf("%v received %d vectors, %d of them wrong; want %d, all right", idx, s.Got, s.Bad, want)
	}
}

// dropFirst drops the first n transmits.
type dropFirst struct{ n int }

func (d *dropFirst) OnTransmit(_, _, _ int, _ des.Time) (bool, des.Time) {
	if d.n > 0 {
		d.n--
		return true, 0
	}
	return false, 0
}

// TestVecLifetime holds a SendVec payload to its message's lifetime: the
// receiver sees the sender's values after every path that keeps a message
// alive — forwarding, home-PE buffering, optimistic rollback and replay —
// and after one that recycles it early (an injected drop).
func TestVecLifetime(t *testing.T) {
	t.Run("forwarded", func(t *testing.T) {
		rt := testRT(4)
		arr := declSinks(rt)
		arr.InsertOn(Idx1(5), &vecSink{}, 1)
		arr.InsertOn(Idx1(6), &vecSink{}, 2)
		const n = 20
		rt.Boot(func(ctx *Ctx) {
			for tag := 0; tag < n; tag++ {
				sendPattern(ctx, arr, Idx1(5), 0, tag, 1+tag%3)
				sendPattern(ctx, arr, Idx1(6), 0, tag+n, 1)
			}
		})
		// Move the target while its vectors are on the wire; the other
		// sink's deliveries recycle messages meanwhile.
		rt.Engine().At(1e-9, func() { rt.moveElement(arr.lookup(Idx1(5)), 3, false) })
		rt.Run()
		if rt.Stats.MsgsForwarded == 0 {
			t.Fatal("no message was forwarded: the move did not catch the vectors in flight")
		}
		checkSink(t, arr, Idx1(5), n)
		checkSink(t, arr, Idx1(6), n)
	})

	t.Run("buffered at home", func(t *testing.T) {
		rt := testRT(4)
		arr := declSinks(rt)
		arr.InsertOn(Idx1(0), &vecSink{}, 2)
		const n = 10
		rt.Boot(func(ctx *Ctx) {
			for tag := 0; tag < n; tag++ {
				sendPattern(ctx, arr, Idx1(99), 0, tag, 2)
				sendPattern(ctx, arr, Idx1(0), 0, 100+tag, 1)
			}
		})
		// A second burst draws the first one's recycled messages while the
		// vectors for the missing element wait at its home PE.
		rt.Engine().At(5e-4, func() {
			ctx := rt.newCtx(1, nil)
			for tag := 0; tag < n; tag++ {
				sendPattern(ctx, arr, Idx1(0), 0, 200+tag, 3)
			}
			rt.finishExec(ctx, nil)
		})
		rt.Engine().At(1e-3, func() { arr.Insert(Idx1(99), &vecSink{}) })
		rt.Run()
		checkSink(t, arr, Idx1(99), n)
		checkSink(t, arr, Idx1(0), 2*n)
	})

	t.Run("dropped then reused", func(t *testing.T) {
		rt := testRT(4)
		arr := declSinks(rt)
		arr.InsertOn(Idx1(0), &vecSink{}, 3)
		rt.SetFaultFilter(&dropFirst{n: 2})
		const n = 12
		rt.Boot(func(ctx *Ctx) {
			// The first two (the longest vectors) are dropped and recycled
			// at once; the sends after them refill those messages shorter.
			sendPattern(ctx, arr, Idx1(0), 0, 8, 1)
			sendPattern(ctx, arr, Idx1(0), 0, 17, 2)
			for tag := 0; tag < n; tag++ {
				sendPattern(ctx, arr, Idx1(0), 0, 9*tag, 1+tag%2)
			}
		})
		rt.Run()
		if rt.Stats.MsgsDropped != 2 {
			t.Fatalf("%d messages dropped, want 2", rt.Stats.MsgsDropped)
		}
		checkSink(t, arr, Idx1(0), n)
	})

	t.Run("rollback and replay", func(t *testing.T) {
		ref := runVecRing(t, "sequential", 1)
		var rolledBack, replays uint64
		for _, backend := range []string{"parallel", "optimistic"} {
			for _, workers := range []int{1, 2, 8} {
				got := runVecRing(t, backend, workers)
				if got.digest != ref.digest {
					t.Errorf("%s backend, %d workers: ring state\n  %s\nwant (sequential)\n  %s", backend, workers, got.digest, ref.digest)
				}
				rolledBack += got.rolledBack
				replays += got.replays
			}
		}
		t.Logf("optimistic runs: %d speculations rolled back, %d deliveries replayed", rolledBack, replays)
		if rolledBack == 0 || replays == 0 {
			t.Fatalf("the optimistic runs rolled back %d speculations and replayed %d deliveries; the ring no longer exercises rollback", rolledBack, replays)
		}
	})
}

// vecRing is one element of a periodic 1-D halo exchange: each round it
// sends a vector to both neighbours, waits for both of theirs, and folds
// them into Acc. A neighbour can be a round ahead, or start first; its
// vector is copied into Early until the round comes.
type vecRing struct {
	I, N, Round, Rounds int
	Got, Bad            int
	Acc                 float64
	Started             bool
	Early               []ringGhost
}

type ringGhost struct {
	Tag  int
	Data []float64
}

func (r *vecRing) Pup(p *pup.Pup) {
	p.Int(&r.I)
	p.Int(&r.N)
	p.Int(&r.Round)
	p.Int(&r.Rounds)
	p.Int(&r.Got)
	p.Int(&r.Bad)
	p.Float64(&r.Acc)
	p.Bool(&r.Started)
	pup.Slice(p, &r.Early, func(p *pup.Pup, g *ringGhost) {
		p.Int(&g.Tag)
		p.Float64s(&g.Data)
	})
}

// ringVal is value k of the vector element i sends in round r.
func ringVal(i, r, k int) float64 { return float64(i*10000+r*100+k) + 0.25 }

type ringRun struct {
	digest              string
	rolledBack, replays uint64
}

func runVecRing(t *testing.T, backend string, workers int) ringRun {
	t.Helper()
	const (
		epStart EP = iota
		epHalo
		elems  = 32
		rounds = 12
	)
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	cfg := machine.Testbed(8)
	cfg.Backend, cfg.ParallelWorkers = backend, workers
	if backend == "optimistic" {
		cfg.SnapInterval = 4
	}
	rt := New(machine.New(cfg))
	var arr *Array
	send := func(r *vecRing, ctx *Ctx) {
		n := 1 + (r.I+r.Round)%7
		stride := 1 + r.I%2
		src := make([]float64, n*stride)
		for k := 0; k < n; k++ {
			src[k*stride] = ringVal(r.I, r.Round, k)
		}
		// Tag bit 0: 0 travels right (arrives from the left), 1 left.
		ctx.SendVec(arr, Idx1((r.I+1)%r.N), epHalo, r.Round<<1, src, n, stride, nil)
		ctx.SendVec(arr, Idx1((r.I+r.N-1)%r.N), epHalo, r.Round<<1|1, src, n, stride, nil)
	}
	var fold func(r *vecRing, ctx *Ctx, tag int, d []float64)
	advance := func(r *vecRing, ctx *Ctx) {
		send(r, ctx)
		early := r.Early
		r.Early = nil
		for _, g := range early {
			fold(r, ctx, g.Tag, g.Data)
		}
	}
	fold = func(r *vecRing, ctx *Ctx, tag int, d []float64) {
		from := (r.I + r.N - 1) % r.N
		if tag&1 == 1 {
			from = (r.I + 1) % r.N
		}
		round := tag >> 1
		if len(d) != 1+(from+round)%7 {
			r.Bad++
		}
		for k, x := range d {
			if x != ringVal(from, round, k) {
				r.Bad++
			}
			r.Acc = r.Acc*0.5 + x
		}
		if r.Got++; r.Got < 2 {
			return
		}
		r.Got = 0
		ctx.Charge(float64(1+(r.I*7+r.Round*3)%5) * 1e-6)
		if r.Round++; r.Round >= r.Rounds {
			return
		}
		advance(r, ctx)
	}
	handlers := []Handler{
		epStart: func(obj Chare, ctx *Ctx, _ any) {
			r := obj.(*vecRing)
			r.Started = true
			advance(r, ctx)
		},
		epHalo: func(obj Chare, ctx *Ctx, msg any) {
			r := obj.(*vecRing)
			v := msg.(*Vec)
			if !r.Started || v.Tag()>>1 != r.Round {
				r.Early = append(r.Early, ringGhost{Tag: v.Tag(), Data: append([]float64(nil), v.Data()...)})
				return
			}
			fold(r, ctx, v.Tag(), v.Data())
		},
	}
	arr = rt.DeclareArray("ring", func() Chare { return &vecRing{} }, handlers, ArrayOpts{PureHandlers: true})
	for i := 0; i < elems; i++ {
		arr.Insert(Idx1(i), &vecRing{I: i, N: elems, Rounds: rounds})
	}
	rt.Boot(func(ctx *Ctx) { ctx.Broadcast(arr, epStart, nil, nil) })
	rt.Run()

	var b strings.Builder
	for i := 0; i < elems; i++ {
		r := arr.Get(Idx1(i)).(*vecRing)
		if r.Bad != 0 || r.Round != rounds || len(r.Early) != 0 {
			t.Fatalf("%s backend, %d workers: element %d ended at round %d with %d wrong values and %d held vectors",
				backend, workers, i, r.Round, r.Bad, len(r.Early))
		}
		fmt.Fprintf(&b, "%d:%x ", i, math.Float64bits(r.Acc))
	}
	fmt.Fprintf(&b, "t=%v", rt.Now())
	run := ringRun{digest: b.String()}
	if e, ok := rt.Engine().(*parsim.Engine); ok && backend == "optimistic" {
		run.rolledBack = e.EngineStats().RolledBack
		run.replays = rt.SpecSaveStats().Replays
	}
	return run
}

// TestMessageSizeClass pins the message inside Go's 160-byte size class: the
// SendVec slice and tag fit only because the scalar fields are int32.
func TestMessageSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(message{}); got > 160 {
		t.Fatalf("message is %d bytes, past the 160-byte size class", got)
	}
}

// mustPanic runs fn and returns its panic text, failing when it returns.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

// TestMsgSizeFunnel checks what the size funnel refuses: a *Vec as another
// send's payload, and a modeled size past int32.
func TestMsgSizeFunnel(t *testing.T) {
	rt := testRT(2)
	ctx := rt.newCtx(0, nil)
	m := getMsg()
	defer putMsg(m)
	if msg := mustPanic(t, func() { ctx.msgSize((*Vec)(m), nil) }); !strings.Contains(msg, "*Vec cannot be a send's payload") {
		t.Errorf("resending a *Vec: panic %q", msg)
	}
	if msg := mustPanic(t, func() { ctx.msgSize(nil, &SendOpts{Bytes: math.MaxInt32 + 1}) }); !strings.Contains(msg, "does not fit in int32") {
		t.Errorf("oversized message: panic %q", msg)
	}
	if got := ctx.msgSize(nil, &SendOpts{Bytes: math.MaxInt32}); got != math.MaxInt32 {
		t.Errorf("msgSize at the int32 limit = %d", got)
	}
}

// TestPutMsgVecCap checks that a recycled message keeps a small vector's
// capacity for the next send and lets go of a large one.
func TestPutMsgVecCap(t *testing.T) {
	for _, c := range []struct{ cap, kept int }{{8, 8}, {maxPooledVec, maxPooledVec}, {maxPooledVec + 1, 0}} {
		m := getMsg()
		m.vec = make([]float64, c.cap)
		m.payload = (*Vec)(m)
		putMsg(m)
		if got := cap(m.vec); got != c.kept || len(m.vec) != 0 || m.payload != nil {
			t.Errorf("cap %d: recycled message holds len %d cap %d payload %v; want len 0 cap %d, no payload", c.cap, len(m.vec), got, m.payload, c.kept)
		}
	}
}

// TestSendVecAllocFree pins the point of a message-owned payload: two
// elements bounce an 8-value vector, each send copying the vector it
// received into a recycled message, and the steady state allocates nothing
// per event (a fresh slice boxed with its header was two per send).
func TestSendVecAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under -race")
	}
	const rounds = 20000
	rt := testRT(2)
	var arr *Array
	handlers := []Handler{func(obj Chare, ctx *Ctx, msg any) {
		o := obj.(*pingPair)
		v := msg.(*Vec)
		if o.Left--; o.Left <= 0 {
			ctx.Exit()
			return
		}
		ctx.SendVec(arr, Idx1(o.Peer), 0, v.Tag()+1, v.Data(), len(v.Data()), 1, nil)
	}}
	arr = rt.DeclareArray("vecping", func() Chare { return &pingPair{} }, handlers, ArrayOpts{})
	arr.InsertOn(Idx1(0), &pingPair{Peer: 1, Left: rounds}, 0)
	arr.InsertOn(Idx1(1), &pingPair{Peer: 0, Left: rounds}, 1)
	rt.Boot(func(ctx *Ctx) { ctx.SendVec(arr, Idx1(0), 0, 0, make([]float64, 8), 8, 1, nil) })

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt.Run()
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(rt.Engine().Executed())
	t.Logf("allocs/event = %.4f over %d events", perEvent, rt.Engine().Executed())
	if perEvent > 0.05 {
		t.Fatalf("allocs/event = %.3f, want <= 0.05: a SendVec allocates again", perEvent)
	}
}
