// Package specstate is a charmvet test fixture. Each `// want` comment
// marks an expected specstate finding on its line; the package is
// excluded from the real suite and exists only for the analyzer unit
// tests. The rule: phase-side code must not write //pup:skip fields of a
// Pup-bearing type — on the optimistic backend a rollback unpacks the
// chare's PUP snapshot into a factory-fresh object, so a skip field comes
// back reset, not restored.
package specstate

import (
	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/parsim"
	"charmgo/internal/pup"
)

type cell struct {
	N      int64
	hits   int   //pup:skip (outstanding-reply counter: NOT rollback-safe)
	cache  []int //pup:skip (scratch: NOT rollback-safe)
	Pupped int64 // restored normally: the //pup:skip above must not bleed onto this line
	//charmvet:specstate (fixture: rebuild-on-demand memo; a factory reset only forces a recompute)
	memo int //pup:skip (rebuilt before every read)
	gen  int //pup:skip //charmvet:specstate (fixture: trailing shared-comment placement)
}

func (c *cell) Pup(p *pup.Pup) {
	p.Int64(&c.N)
	p.Int64(&c.Pupped)
}

func use(fns ...any) {}

func register() { use(onWrite, onHelper, onWaived, onCommit, onEvacuate) }

func onWrite(obj any, ctx *charm.Ctx, msg any) {
	c := obj.(*cell)

	// Pup'd state is snapshotted before the handler and restored on
	// rollback: the normal case, no finding.
	c.N++
	c.Pupped++

	c.hits++                     // want `speculative-phase write to non-pup'd field hits`
	c.cache = append(c.cache, 1) // want `speculative-phase write to non-pup'd field cache`
	c.cache[0] = 2               // want `speculative-phase write to non-pup'd field cache`
}

func onHelper(obj any, ctx *charm.Ctx, msg any) {
	scribble(obj.(*cell))
}

// scribble is one frame below the entry method; the finding carries the
// chain.
func scribble(c *cell) {
	c.hits = 0 // want `speculative-phase write to non-pup'd field hits`
}

func onWaived(obj any, ctx *charm.Ctx, msg any) {
	c := obj.(*cell)

	//charmvet:specstate (fixture: deliberate write-site waiver)
	c.hits = 0

	// memo and gen carry declaration-side exemptions (own-line-above and
	// trailing shared-comment placement): no finding anywhere.
	c.memo = 4
	c.gen++
}

func onCommit(obj any, ctx *charm.Ctx, msg any) {
	c := obj.(*cell)
	// A commit closure runs only for speculations that survive to their
	// pop, so a skip-field write there needs no undo: out of scope.
	ctx.Defer(func() { c.hits = 0 })
}

// orphanScribble is unreachable from any entry point: no finding.
func orphanScribble(c *cell) {
	c.hits = 7
}

// mover models a chare that reacts to a proactive evacuation (a PE whose
// failure was predicted is drained at a quiescent cut). The temptation is
// to stage departure bookkeeping in skip fields "because the element is
// leaving anyway" — but on the optimistic backend the evacuation notice
// itself can be speculative: a rollback re-runs the handler, and the
// staged scratch must come back exactly, so it either goes through Pup or
// stays local to the handler.
type mover struct {
	Packed  int64
	deparr  []byte //pup:skip (evacuation pack scratch: NOT rollback-safe)
	pending int    //pup:skip (un-acked departure count: NOT rollback-safe)
}

func (m *mover) Pup(p *pup.Pup) {
	p.Int64(&m.Packed)
}

func onEvacuate(obj any, ctx *charm.Ctx, msg any) {
	m := obj.(*mover)

	// Staging the departure in skip fields phase-side: both flagged.
	m.deparr = append(m.deparr, 1) // want `speculative-phase write to non-pup'd field deparr`
	m.pending++                    // want `speculative-phase write to non-pup'd field pending`

	// The safe forms: a handler-local buffer, and the Pup'd counter.
	local := make([]byte, 0, 8)
	local = append(local, 1)
	_ = local
	m.Packed++

	// Clearing the scratch at commit needs no undo: only surviving
	// speculations commit.
	ctx.Defer(func() { m.deparr = nil; m.pending = 0 })
}

// rearm mirrors optimistic-mode runtime code that holds the engine by its
// concrete type (as charm's speculation controller does): a timer scheduled
// through *parsim.Engine roots its closure as a scheduled event body exactly
// like one scheduled through the des.Engine interface. Nothing else calls
// tock, so the schedule root is its only path to reachability.
func rearm(eng *parsim.Engine, at des.Time) {
	eng.At(at, func() { tock() })
}

func tock() {}
