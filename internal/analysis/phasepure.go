package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PhasePure checks the two-phase commit discipline the parsim backend
// depends on (see internal/parsim): during the *phase*, entry methods from
// the same conservative window run concurrently, each touching only its own
// chare's state and buffering global effects through Ctx (Send, Defer);
// at *commit*, the buffered effects replay sequentially in virtual-time
// order. On the optimistic backend the phase is also speculative: before a
// handler mutates a chare the runtime PUP-packs it, and a rollback unpacks
// that image into a *factory-fresh* element (internal/charm/speculation.go).
// Three statically checkable rules follow:
//
//   - Rule A — phase-side code must not write package-level variables.
//     A direct global write from an entry method (or any helper it calls)
//     races with the other phase workers and, even when "benign", makes
//     the parallel backend diverge from the sequential one. Route the
//     write through ctx.Defer. Waiver: //charmvet:phase.
//
//   - Rule B — commit closures must not read the chare. A closure handed
//     to ctx.Defer from an entry method runs at commit time, after other
//     events of the window may have advanced the chare's state; reading
//     `obj` (or an alias like `l := obj.(*LP)`) from inside it observes a
//     different state than the sequential engine would. Capture the
//     needed values into locals before deferring. Waiver: //charmvet:phase.
//
//   - Rule C — phase-side code must not write a //pup:skip field of a type
//     with a Pup method. A rollback brings such a field back holding
//     whatever the factory gives it while the pup'd state rewinds, so a
//     field that carries state across handlers (an outstanding-reply
//     count, a half-filled scratch buffer) re-runs against a chare that
//     never existed. Waiver: //charmvet:specstate at the write for that
//     write, or at the field's declaration for every write (a cache whose
//     reset only forces a recompute, an idempotent rebind, an app pinned
//     to the non-speculative backends).
//
// Rules A and C share one walk over the direct write shapes `x = v`,
// `x.f = v`, `x[i] = v` and `x++`; mutation through a call or a pointer
// copied out first is not tracked (DESIGN.md §11). Phase-side code is
// computed from the call graph: every function reachable from an
// entry-method or PE-handler root without crossing into a commit/scheduled
// closure or into the runtime's own packages (charm/des/parsim — they are
// the mechanism this discipline protects, and their internals run under
// the engine's own locks and orderings).
var PhasePure = &Analyzer{
	Name: "phasepure",
	Doc:  "checks parsim's two-phase discipline: no phase-side global or //pup:skip writes, no chare reads in commit closures",
	Run:  runPhasePure,
}

func runPhasePure(pass *Pass) {
	g := pass.Graph
	reach := g.PhaseReach()
	for _, n := range pass.pkgNodes() {
		if _, ok := reach[n]; ok {
			chain := g.Chain(reach, n)
			inspectShallow(n.body(), func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						pass.flagPhaseWrite(lhs, chain)
					}
				case *ast.IncDecStmt:
					pass.flagPhaseWrite(x.X, chain)
				}
				return true
			})
		}
		if n.Root == RootEntry {
			pass.checkCommitClosures(n)
		}
	}
}

// flagPhaseWrite walks lhs from the outside in, reporting Rule C when the
// path crosses a //pup:skip field (the outermost one) and Rule A when it
// is rooted at a package-level variable.
func (p *Pass) flagPhaseWrite(lhs ast.Expr, chain []string) {
	var skipped *types.Var
	base := ast.Unparen(lhs)
walk:
	for {
		switch b := base.(type) {
		case *ast.SelectorExpr:
			// pkg.Var: the selector's X names a package, not a value.
			if _, isPkg := p.packageOf(b.X); isPkg {
				base = b.Sel
				break walk
			}
			if s := p.Info.Selections[b]; skipped == nil && s != nil && s.Kind() == types.FieldVal {
				if f, ok := s.Obj().(*types.Var); ok && p.Graph.pupSkipFields()[f] {
					skipped = f
				}
			}
			base = ast.Unparen(b.X)
		case *ast.IndexExpr:
			base = ast.Unparen(b.X)
		case *ast.StarExpr:
			base = ast.Unparen(b.X)
		default:
			break walk
		}
	}
	if skipped != nil && !p.Waived(WaiverSpecState, lhs.Pos()) {
		p.ReportChainf(lhs.Pos(), chain, "speculative-phase write to non-pup'd field %s; a Time Warp rollback rebuilds the chare factory-fresh, so this write is reset rather than restored — pup the field, defer the write through ctx.Defer, or annotate //charmvet:specstate",
			skipped.Name())
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() || p.Waived(WaiverPhase, lhs.Pos()) {
		return
	}
	p.ReportChainf(lhs.Pos(), chain, "phase-side write to package-level variable %s; concurrent phase workers race on it — defer the write through ctx.Defer or annotate //charmvet:phase",
		id.Name)
}

// pupSkipFields collects, module-wide and once per graph, the //pup:skip
// fields of every type with a Pup method, minus those whose declaration
// also carries //charmvet:specstate. A Pup method sits in its receiver's
// package, so that package's directive index answers for the fields.
func (g *Graph) pupSkipFields() map[*types.Var]bool {
	if g.skipFields != nil {
		return g.skipFields
	}
	g.skipFields = map[*types.Var]bool{}
	for _, n := range g.Nodes {
		if n.Fn == nil || !isPupMethod(n.Fn) {
			continue
		}
		st := recvStructOf(n.Fn.Type().(*types.Signature).Recv().Type())
		if st == nil {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			at := n.Pkg.Fset.Position(f.Pos())
			if n.Pkg.dirs.covers(WaiverPupSkip, at) && !n.Pkg.dirs.covers(WaiverSpecState, at) {
				g.skipFields[f] = true
			}
		}
	}
	return g.skipFields
}

// checkCommitClosures enforces Rule B on one entry-method root: find the
// chare parameter (and its type-asserted aliases), then flag Defer/emit
// closures that reference any of them.
func (p *Pass) checkCommitClosures(n *Node) {
	objVars := p.chareParamAliases(n)
	if len(objVars) == 0 {
		return
	}
	inspectShallow(n.body(), func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, ok := scheduleCallKind(p.Info, call); !ok || kind != RootCommit {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit.Body, func(y ast.Node) bool {
				id, ok := y.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := p.Info.Uses[id].(*types.Var)
				if !ok || !objVars[v] {
					return true
				}
				if p.Waived(WaiverPhase, id.Pos()) {
					return true
				}
				p.Reportf(id.Pos(), "commit closure reads chare state %s; at commit time other events may have advanced it — capture the needed values into locals before deferring, or annotate //charmvet:phase", id.Name)
				return true
			})
		}
		return true
	})
}

// chareParamAliases returns the entry method's chare parameter plus every
// local derived from it by assignment or type assertion (`l := obj.(*LP)`),
// iterated to a fixpoint.
func (p *Pass) chareParamAliases(n *Node) map[*types.Var]bool {
	sig := p.Graph.nodeSig(n)
	if sig == nil || sig.Params().Len() != 3 {
		return nil
	}
	objVars := map[*types.Var]bool{sig.Params().At(0): true}
	for {
		grew := false
		inspectShallow(n.body(), func(x ast.Node) bool {
			as, ok := x.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !p.aliasExpr(rhs, objVars) {
					continue
				}
				lid, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				v, _ := p.Info.Defs[lid].(*types.Var)
				if v == nil {
					v, _ = p.Info.Uses[lid].(*types.Var)
				}
				// Only reference-shaped derivations alias the chare: a
				// pointer (`l := obj.(*LP)`) or interface copy still
				// points at live state, while a plain value copy
				// (`n := l.n`) is the sanctioned capture idiom.
				if v != nil && !objVars[v] && refShaped(v.Type()) {
					objVars[v] = true
					grew = true
				}
			}
			return true
		})
		if !grew {
			return objVars
		}
	}
}

// refShaped reports whether t still references the original object after
// an assignment copy: pointers and interfaces do, plain values do not.
func refShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface:
		return true
	}
	return false
}

// aliasExpr reports whether e evaluates to a view of one of vars: the
// variable itself, a type assertion on it, a field/element path from it,
// or the address of such a path. A function call is not an alias even
// when an aliased variable is an argument — `err := fmt.Errorf(..., l.n)`
// builds a fresh value (a callee returning an interior pointer is the
// conservatism documented in DESIGN.md §11).
func (p *Pass) aliasExpr(e ast.Expr, vars map[*types.Var]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := p.Info.Uses[e].(*types.Var)
		return ok && vars[v]
	case *ast.TypeAssertExpr:
		return p.aliasExpr(e.X, vars)
	case *ast.SelectorExpr:
		return p.aliasExpr(e.X, vars)
	case *ast.IndexExpr:
		return p.aliasExpr(e.X, vars)
	case *ast.StarExpr:
		return p.aliasExpr(e.X, vars)
	case *ast.UnaryExpr:
		return e.Op == token.AND && p.aliasExpr(e.X, vars)
	}
	return false
}
