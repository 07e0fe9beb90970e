package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// RetainCheck flags pooled runtime objects stored into state that outlives
// the handler invocation. The zero-alloc delivery path (PR 5) recycles
// *charm.Ctx and *charm.message aggressively: a Ctx is valid only for the
// duration of the entry-method invocation it was issued for, and a message
// is reused as soon as its delivery commits. A reference squirreled away in
// a chare field, a global, a slice, or a closure that runs later therefore
// observes — or corrupts — another event's state. Nothing crashes; the
// simulation just stops being deterministic. This generalizes poolcheck
// (use-after-release inside one block) to escape: release-then-use across
// events.
//
// A store is flagged when a bare identifier of pooled type appears
//
//   - on the right of an assignment whose left side escapes the function:
//     a field selector, an index or dereference expression, or a
//     package-level variable;
//
//   - as an argument to append, or as an element of a composite literal
//     (both build longer-lived structures);
//
//   - captured by a function literal that itself escapes: passed to any
//     call other than Ctx.Defer / Ctx.emit (whose closures the runtime
//     runs and drops within the same delivery), or stored as above.
//
// Method calls *on* a pooled object (ctx.Send(...)) and plain argument
// passing (helper(ctx, ...)) are not stores; passing the value on keeps it
// within the invocation. Aliasing through intermediate locals is not
// tracked (a conservatism documented in DESIGN.md §11). Deliberate
// retention — the pools themselves, runtime structures whose lifecycle
// provably returns the object before reuse — carries //charmvet:retain.
var RetainCheck = &Analyzer{
	Name: "retaincheck",
	Doc:  "flags pooled objects (Ctx, messages) stored into state that outlives the handler",
	Run:  runRetainCheck,
}

// pooledType reports whether t is one of the runtime's pooled reference
// types: *charm.Ctx or *charm.message (name-based, so fixtures using a
// stub charm package qualify).
func pooledType(t types.Type) bool {
	return isCtxPtr(t) || isPtrToNamed(t, "charm", "message")
}

func runRetainCheck(pass *Pass) {
	for _, n := range pass.pkgNodes() {
		pass.checkRetainNode(n)
	}
}

func (p *Pass) checkRetainNode(n *Node) {
	inspectShallow(n.body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				var lhs ast.Expr
				if len(x.Lhs) == len(x.Rhs) {
					lhs = x.Lhs[i]
				} else {
					lhs = x.Lhs[0] // multi-value RHS: be conservative
				}
				if !escapingLHS(p, lhs) {
					continue
				}
				// Only a bare pooled identifier on the right is a store of
				// the object itself; nested occurrences are the append /
				// composite-literal / closure cases, each handled once
				// below.
				p.flagPooledIdent(rhs, "stored into %s, which outlives the handler invocation", types.ExprString(lhs))
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && p.Info.Uses[id] != nil {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					for _, arg := range x.Args[min(1, len(x.Args)):] {
						p.flagPooledIdent(arg, "appended to a slice, which outlives the handler invocation")
					}
				}
			}
			p.checkClosureArgs(n, x)
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				p.flagPooledIdent(elt, "placed in a composite literal, which outlives the handler invocation")
			}
		case *ast.ReturnStmt:
			// Returning a pooled value is passing it up the same
			// invocation; not a store.
		}
		return true
	})
}

// flagPooledIdent flags e when it is a bare identifier of pooled type.
func (p *Pass) flagPooledIdent(e ast.Expr, format string, args ...any) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := p.Info.Uses[id].(*types.Var)
	if !ok || !pooledType(v.Type()) {
		return
	}
	if p.Waived(WaiverRetain, id.Pos()) {
		return
	}
	p.Reportf(id.Pos(), "pooled %s %s %s; the runtime recycles it after this delivery — copy what you need or annotate //charmvet:retain",
		typeShort(v.Type()), id.Name, applyFormat(format, args))
}

// checkClosureArgs flags function-literal call arguments that capture a
// pooled variable, unless the callee is Ctx.Defer / Ctx.emit.
func (p *Pass) checkClosureArgs(n *Node, call *ast.CallExpr) {
	if kind, ok := scheduleCallKind(p.Info, call); ok && kind == RootCommit {
		return // Defer/emit closures run and are dropped within the delivery
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		p.flagPooledCaptures(lit, "captured by a closure passed to "+types.ExprString(call.Fun))
	}
}

// flagPooledCaptures flags pooled variables declared outside lit that its
// body (including nested literals) references.
func (p *Pass) flagPooledCaptures(lit *ast.FuncLit, how string) {
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || !pooledType(v.Type()) {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal (e.g. its own param)
		}
		if p.Waived(WaiverRetain, id.Pos()) {
			return true
		}
		p.Reportf(id.Pos(), "pooled %s %s %s, which may run after the handler returns; the runtime recycles it after this delivery — copy what you need or annotate //charmvet:retain",
			typeShort(v.Type()), id.Name, how)
		return true
	})
}

// escapingLHS reports whether storing through lhs makes the value outlive
// the enclosing function: a field of any object, an element behind an
// index or dereference, or a package-level variable.
func escapingLHS(p *Pass, lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		// Selecting a field (on anything — receiver, global, local struct
		// pointer) stores beyond the local frame in every case that
		// matters; a local struct *value* is the one false-positive shape,
		// accepted for simplicity.
		return true
	case *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.Ident:
		v, ok := p.Info.Uses[lhs].(*types.Var)
		if !ok {
			if d, okd := p.Info.Defs[lhs].(*types.Var); okd {
				v = d
				ok = true
			}
		}
		return ok && v.Parent() == v.Pkg().Scope()
	}
	return false
}

func typeShort(t types.Type) string {
	return types.TypeString(t, func(pkg *types.Package) string { return pkg.Name() })
}

func applyFormat(format string, args []any) string {
	if len(args) == 0 {
		return format
	}
	return fmt.Sprintf(format, args...)
}
