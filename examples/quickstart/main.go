// Quickstart: a complete migratable-objects program built directly on the
// public charmgo API — a ring of chares passing a counter, a broadcast, a
// reduction, and one runtime-directed migration, all on a simulated
// 16-PE machine.
package main

import (
	"fmt"

	"charmgo"
	"charmgo/internal/machine"
	"charmgo/internal/pup"
)

// hello is our chare type. Any struct with a Pup method is migratable:
// the runtime can serialize it, move it between PEs, checkpoint it.
type hello struct {
	Visits int64
}

func (h *hello) Pup(p *pup.Pup) { p.Int64(&h.Visits) }

// Entry points of the chare array.
const (
	epToken charmgo.EP = iota
	epStats
)

func main() {
	// A 16-PE InfiniBand-class machine (virtual: times below are the
	// simulated machine's clock, not wall time).
	rt := charmgo.NewRuntime(charmgo.NewMachine(machine.Stampede(16)))

	const ringSize = 32
	var ring *charmgo.Array

	handlers := []charmgo.Handler{
		// epToken: receive the token, do some work, pass it on.
		epToken: func(obj charmgo.Chare, ctx *charmgo.Ctx, msg any) {
			h := obj.(*hello)
			h.Visits++
			hops := msg.(int)
			ctx.Charge(2e-6) // 2 µs of modeled computation
			if hops > 0 {
				next := (ctx.Index().I() + 1) % ringSize
				ctx.Send(ring, charmgo.Idx1(next), epToken, hops-1)
				return
			}
			fmt.Printf("token retired on PE %d at t=%.6fs (virtual)\n", ctx.MyPE(), float64(ctx.Now()))
		},
		// epStats: every chare contributes its visit count to a sum
		// reduction delivered to a function on PE 0.
		epStats: func(obj charmgo.Chare, ctx *charmgo.Ctx, msg any) {
			h := obj.(*hello)
			ctx.Contribute(h.Visits, charmgo.SumI64,
				charmgo.CallbackFunc(0, func(ctx *charmgo.Ctx, result any) {
					fmt.Printf("total visits across the ring: %d\n", result.(int64))
					ctx.Exit()
				}))
		},
	}

	ring = rt.DeclareArray("ring", func() charmgo.Chare { return &hello{} },
		handlers, charmgo.ArrayOpts{Migratable: true})
	for i := 0; i < ringSize; i++ {
		ring.Insert(charmgo.Idx1(i), &hello{})
	}

	// Kick the token around the ring three times, then gather stats.
	ring.Send(charmgo.Idx1(0), epToken, 3*ringSize)
	rt.Engine().At(rt.Now()+1.0, func() {
		ring.Broadcast(epStats, nil)
	})

	end := rt.Run()
	fmt.Printf("simulation finished at t=%.6fs after %d messages\n",
		float64(end), rt.Stats.MsgsDelivered)
}
