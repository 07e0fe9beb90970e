package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PoolCheck flags uses of a pooled object after it has been released back
// to its pool. The runtime leans hard on recycling — messages, Pup cursors,
// pack buffers, delivery contexts — and the pools zero and reuse a released
// object on the next acquire, so a read after release observes another
// event's state and a write corrupts it. The bug is silent: nothing
// crashes, the simulation just stops being deterministic.
//
// A release is a plain call statement whose callee name starts with put,
// release, free, or recycle (any case) — covering sync.Pool.Put and the
// repo's putMsg/PutBuffer/releaseCtx conventions — with an identifier as
// its first argument. Any later use of that identifier in the statements
// that follow in the same block is flagged, until the variable is
// reassigned. Deferred releases are exempt (they run at function exit), and
// a deliberate post-release use can carry a //charmvet:pooled waiver.
var PoolCheck = &Analyzer{
	Name: "poolcheck",
	Doc:  "flags uses of a pooled object after it was released to its pool",
	Run:  runPoolCheck,
}

var releasePrefixes = []string{"put", "release", "free", "recycle"}

// releasedArg returns the identifier released by stmt, or nil when stmt is
// not a release call. Only direct `put(x)` / `pool.Put(x)` statement forms
// count: a release nested in another expression keeps its result live.
func releasedArg(stmt ast.Stmt) *ast.Ident {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	default:
		return nil
	}
	if !hasReleasePrefix(name) {
		return nil
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok || arg.Name == "_" {
		return nil
	}
	return arg
}

func hasReleasePrefix(name string) bool {
	for _, pre := range releasePrefixes {
		if len(name) >= len(pre) && strings.EqualFold(name[:len(pre)], pre) {
			return true
		}
	}
	return false
}

func runPoolCheck(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			checkBlock(pass, block)
			return true
		})
	}
}

// checkBlock scans one statement list: after a release of x, later
// statements may not use x until it is reassigned.
func checkBlock(pass *Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		arg := releasedArg(stmt)
		if arg == nil {
			continue
		}
		obj := pass.Info.ObjectOf(arg)
		if obj == nil {
			continue
		}
		// Pointer-shaped objects only: releasing an int or a plain struct
		// copy cannot alias pool state.
		if !poolable(obj.Type()) {
			continue
		}
		for _, later := range block.List[i+1:] {
			if reassigns(later, obj, pass.Info) {
				break
			}
			if use := findUse(later, obj, pass.Info); use != nil {
				if pass.Waived(WaiverPooled, use.Pos()) {
					continue
				}
				pass.Reportf(use.Pos(), "%s is used after being released to its pool at line %d; the pool may already have recycled it",
					arg.Name, pass.Fset.Position(stmt.Pos()).Line)
			}
		}
	}
}

// poolable reports whether a released value of type t can alias recycled
// pool storage: pointers, slices, maps, and interfaces qualify.
func poolable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Interface, *types.Chan:
		return true
	}
	return false
}

// reassigns reports whether stmt (at its top level) rebinds obj, which ends
// the released window.
func reassigns(stmt ast.Stmt, obj types.Object, info *types.Info) bool {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			return true
		}
	}
	return false
}

// findUse returns the first reference to obj inside stmt, skipping
// assignment left-hand sides (a plain rebind is handled by reassigns; a
// nested one still counts as suspicious only on the read side).
func findUse(stmt ast.Stmt, obj types.Object, info *types.Info) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = id
			return false
		}
		return true
	})
	return found
}
