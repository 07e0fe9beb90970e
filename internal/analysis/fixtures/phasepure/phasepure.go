// Package phasepure is a charmvet test fixture. Each `// want` comment
// marks an expected phasepure finding on its line; the package is
// excluded from the real suite and exists only for the analyzer unit
// tests. Rule A: phase-side code must not write package-level variables
// (concurrent phase workers race on them). Rule B: commit closures must
// not read chare state (other events may have advanced it by commit
// time).
package phasepure

import "charmgo/internal/charm"

var counter int

var total int

var committed int

type lp struct {
	n int
}

func use(fns ...any) {}

func register() { use(onInc, onDefer, onWaived, onGeneric) }

func onInc(obj any, ctx *charm.Ctx, msg any) {
	counter++ // want `phase-side write to package-level variable counter`
	bump()
}

// bump is two frames below the entry method; the finding carries the
// chain.
func bump() {
	total = total + 1 // want `phase-side write to package-level variable total`
}

func onDefer(obj any, ctx *charm.Ctx, msg any) {
	l := obj.(*lp)

	// Writes to the chare's own state during the phase are the normal
	// case.
	l.n++

	// The sanctioned idiom: capture a value, defer the global effect.
	n := l.n
	ctx.Defer(func() { committed += n })

	ctx.Defer(func() { _ = l.n }) // want `commit closure reads chare state l`
}

func onWaived(obj any, ctx *charm.Ctx, msg any) {
	local := 0
	local++
	_ = local

	//charmvet:phase (fixture: deliberate)
	counter++
}

// stack is generic: a call to a method of one of its instantiations
// carries the instantiated method, which resolves to the declared body.
type stack[T any] struct{ items []T }

var pushes int

func (s *stack[T]) push(x T) {
	s.items = append(s.items, x)
	pushes++ // want `phase-side write to package-level variable pushes`
}

func onGeneric(obj any, ctx *charm.Ctx, msg any) {
	var s stack[int]
	s.push(1)
}

// orphanWrite is unreachable from any entry point: no finding.
func orphanWrite() {
	counter = 9
}
