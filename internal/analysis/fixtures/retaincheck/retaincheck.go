// Package retaincheck is a charmvet test fixture. Each `// want` comment
// marks an expected retaincheck finding on its line; the package is
// excluded from the real suite and exists only for the analyzer unit
// tests. The pooled types under test are the real *charm.Ctx — valid only
// for the delivery it was issued for, recycled immediately after — and the
// real *charm.Vec, a SendVec message whose Data() is the message's storage.
package retaincheck

import "charmgo/internal/charm"

type keeper struct {
	ctx *charm.Ctx
	n   int
}

var leakedCtx *charm.Ctx

var allCtx []*charm.Ctx

type pair struct {
	c *charm.Ctx
}

func use(fns ...any) {}

func register() { use(onKeep, onOK, onVec) }

func onKeep(obj any, ctx *charm.Ctx, msg any) {
	k := obj.(*keeper)
	k.ctx = ctx // want `ctx stored into k.ctx`

	leakedCtx = ctx // want `stored into leakedCtx`

	allCtx = append(allCtx, ctx) // want `appended to a slice`

	_ = pair{c: ctx} // want `placed in a composite literal`

	later(func() { touch(ctx) }) // want `captured by a closure passed to later`
}

func later(f func()) {}

func touch(ctx *charm.Ctx) {}

func onOK(obj any, ctx *charm.Ctx, msg any) {
	// Passing the Ctx on keeps it within the delivery; method calls on it
	// are its whole point.
	touch(ctx)
	_ = ctx.MyPE()

	// Defer closures run and are dropped before the runtime recycles the
	// Ctx, so capturing it there is sanctioned.
	ctx.Defer(func() { touch(ctx) })

	// A deliberate retention site carries the waiver.
	//charmvet:retain (fixture: deliberate)
	leakedCtx = ctx
}

type hoard struct {
	vec  *charm.Vec
	data []float64
	all  [][]float64
}

type edge struct {
	d []float64
}

func sum(d []float64) (s float64) {
	for _, x := range d {
		s += x
	}
	return s
}

func onVec(obj any, ctx *charm.Ctx, msg any) {
	h := obj.(*hoard)
	v := msg.(*charm.Vec)
	h.vec = v // want `v stored into h.vec`

	h.data = v.Data() // want `v.Data() stored into h.data`

	h.all = append(h.all, v.Data()) // want `v.Data() appended to a slice`

	_ = edge{d: v.Data()} // want `v.Data() placed in a composite literal`

	later(func() { _ = sum(v.Data()) }) // want `captured by a closure passed to later`

	// Copying the values out, reading them, and passing the slice down the
	// same invocation keep nothing.
	h.data = append(h.data[:0], v.Data()...)
	_ = sum(v.Data())
	_ = v.Tag()
	ctx.Defer(func() { _ = sum(v.Data()) })
}
