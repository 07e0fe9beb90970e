package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetTaint flags nondeterminism sources on call paths the runtime actually
// executes as events. A source is one of:
//
//   - a wall-clock read (time.Now, time.Since, timers): results would
//     depend on host speed and scheduling instead of virtual time
//
//   - a draw from the global math/rand source: process-wide unseeded
//     state, so two runs with the same Config.Seed diverge
//
//   - a keyed range over a map: iteration order is randomized by the Go
//     runtime, so event order inherits the iteration seed
//
//   - a select statement: resolves races between goroutines, importing
//     the host scheduler as an ordering source
//
//   - a go statement: spawns work the virtual clock does not order
//
// Unlike the v1 walltime/detmap/nospawn analyzers, which checked
// hand-curated "critical package" lists intra-procedurally, dettaint walks
// the module call graph: a source is reported iff its enclosing function
// is reachable from an entry method, PE handler, boot function, commit
// closure, engine event body, or Pup method — however many helper calls
// deep — and every finding carries the root→sink call chain. Code only
// ever run from main() setup or test harnesses is exempt by construction.
//
// Two map-range shapes pass without a waiver, as before: a range with no
// iteration variables (only the count is observed) and the collect-then-
// sort idiom (a body of `x = append(x, ...)` statements where every x is
// later passed to a sort or slices call in the same function).
//
// Waivers: //charmvet:wallclock (clock/rand), //charmvet:ordered (map
// range), //charmvet:spawn (go/select). The parallel engine's worker
// spawns carry //charmvet:parsim, honored only inside parsim packages so
// the engine's license cannot be borrowed by runtime or app code. The
// observability layer's wall-clock reads carry //charmvet:telemetry,
// honored only inside telemetry packages — and even there a waived read
// whose value flows into simulated time (a des.Time-typed expression) is
// still reported: wall stamps must stay side-band.
var DetTaint = &Analyzer{
	Name: "dettaint",
	Doc:  "flags nondeterminism sources reachable from runtime event entry points",
	Run:  runDetTaint,
}

// wallClockFuncs are the package-level time functions that read or depend
// on the machine's real clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandExempt are the math/rand package-level functions that only
// construct explicitly-seeded generators — the idiom determinism requires
// (e.g. rand.New(rand.NewSource(seed)) as in lb.go's WorkStealing).
var globalRandExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runDetTaint(pass *Pass) {
	g := pass.Graph
	reach := g.Reach()
	parsimPkg := pass.Path == "charmgo/internal/parsim" ||
		strings.HasPrefix(pass.Path, "charmgo/internal/parsim/") ||
		strings.HasSuffix(pass.Path, "/parsim") // fixture package for the waiver tests
	telemetryPkg := pass.Path == "charmgo/internal/telemetry" ||
		strings.HasPrefix(pass.Path, "charmgo/internal/telemetry/") ||
		strings.HasSuffix(pass.Path, "/telemetry") // fixture package for the waiver tests

	for _, n := range pass.pkgNodes() {
		if _, ok := reach[n]; !ok {
			continue
		}
		chain := g.Chain(reach, n)
		inspectShallow(n.body(), func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.CallExpr:
				pass.checkSourceCall(x, chain, telemetryPkg, n.Body)
			case *ast.RangeStmt:
				pass.checkMapRange(x, n.Body, chain)
			case *ast.GoStmt:
				pass.checkGo(x, chain, parsimPkg)
			case *ast.SelectStmt:
				if !pass.Waived(WaiverSpawn, x.Pos()) {
					pass.ReportChainf(x.Pos(), chain, "select depends on goroutine scheduling on an event path; use the event engine or annotate //charmvet:spawn")
				}
			}
			return true
		})
	}

	// Package-level variable initializers run unconditionally at program
	// start, before any event; a nondeterminism source there taints every
	// run regardless of reachability.
	initChain := []string{"package " + pass.Path + " [var initializer]"}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					ast.Inspect(v, func(x ast.Node) bool {
						if _, isLit := x.(*ast.FuncLit); isLit {
							return false // literal bodies are graph nodes
						}
						if call, ok := x.(*ast.CallExpr); ok {
							pass.checkSourceCall(call, initChain, telemetryPkg, nil)
						}
						return true
					})
				}
			}
		}
	}
}

// checkSourceCall flags wall-clock and global-rand calls. telemetryPkg and
// body scope the //charmvet:telemetry waiver: the waiver is honored only
// inside telemetry packages, and only when the read's value stays out of
// des.Time-typed expressions in the enclosing function (body is nil for
// package-level initializers, where no flow check applies).
func (p *Pass) checkSourceCall(call *ast.CallExpr, chain []string, telemetryPkg bool, body *ast.BlockStmt) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgPath, ok := p.packageOf(sel.X)
	if !ok {
		return
	}
	name := sel.Sel.Name
	switch {
	case pkgPath == "time" && wallClockFuncs[name]:
		if p.Waived(WaiverWallclock, call.Pos()) {
			return
		}
		if p.Waived(WaiverTelemetry, call.Pos()) {
			switch {
			case !telemetryPkg:
				p.ReportChainf(call.Pos(), chain, "charmvet:telemetry waiver is only honored inside the telemetry layer; time.%s reads the wall clock on an event path", name)
			case body != nil && p.flowsIntoSimTime(body, call):
				p.ReportChainf(call.Pos(), chain, "time.%s is waived by charmvet:telemetry but its value flows into simulated time (des.Time); wall stamps must stay side-band", name)
			}
			return
		}
		p.ReportChainf(call.Pos(), chain, "time.%s reads the wall clock on an event path; use virtual time (des.Engine) or annotate //charmvet:wallclock", name)
	case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !globalRandExempt[name]:
		if !p.Waived(WaiverWallclock, call.Pos()) {
			p.ReportChainf(call.Pos(), chain, "rand.%s draws from the global math/rand source on an event path; use a seeded *rand.Rand (rand.New(rand.NewSource(seed))) or annotate //charmvet:wallclock", name)
		}
	}
}

func (p *Pass) checkGo(stmt *ast.GoStmt, chain []string, parsimPkg bool) {
	if p.Waived(WaiverSpawn, stmt.Pos()) {
		return
	}
	if p.Waived(WaiverParsim, stmt.Pos()) {
		if parsimPkg {
			return
		}
		p.ReportChainf(stmt.Pos(), chain, "charmvet:parsim waiver is only honored inside the parsim engine; go statement spawns a goroutine on an event path")
		return
	}
	p.ReportChainf(stmt.Pos(), chain, "go statement spawns a goroutine on an event path; schedule an event instead or annotate //charmvet:spawn")
}

func (p *Pass) checkMapRange(rng *ast.RangeStmt, enclosing *ast.BlockStmt, chain []string) {
	t := p.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if rng.Key == nil && rng.Value == nil {
		return // only the iteration count is observed
	}
	if p.Waived(WaiverOrdered, rng.Pos()) {
		return
	}
	if collected := appendTargets(rng.Body); len(collected) > 0 {
		if allSortedLater(enclosing, rng, collected) {
			return
		}
	}
	p.ReportChainf(rng.Pos(), chain, "iteration over map %s has nondeterministic order on an event path; sort the keys first or annotate //charmvet:ordered",
		types.ExprString(rng.X))
}

// appendTargets returns the printed left-hand sides when every statement in
// body is an append of the form `x = append(x, ...)`; otherwise nil.
func appendTargets(body *ast.BlockStmt) []string {
	if len(body.List) == 0 {
		return nil
	}
	var targets []string
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return nil
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return nil
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
			return nil
		}
		lhs := types.ExprString(as.Lhs[0])
		if types.ExprString(call.Args[0]) != lhs {
			return nil
		}
		targets = append(targets, lhs)
	}
	return targets
}

// allSortedLater reports whether every target is the first argument of a
// sort.* or slices.* call after the range statement within body.
func allSortedLater(body *ast.BlockStmt, rng *ast.RangeStmt, targets []string) bool {
	if body == nil {
		return false
	}
	sorted := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
			return true
		}
		sorted[types.ExprString(call.Args[0])] = true
		return true
	})
	for _, t := range targets {
		if !sorted[t] {
			return false
		}
	}
	return true
}

// flowsIntoSimTime reports whether call's result is used inside an
// expression of simulated-time type: any enclosing expression typed
// des.Time means the wall value reached simulation state (Go requires an
// explicit conversion to cross into des.Time, so every such flow surfaces
// as a des.Time-typed ancestor — a conversion, an arithmetic expression
// over one, or a des.Time-taking call's argument conversion).
func (p *Pass) flowsIntoSimTime(body *ast.BlockStmt, call *ast.CallExpr) bool {
	var stack []ast.Node
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == ast.Node(call) {
			for _, anc := range stack {
				if e, ok := anc.(ast.Expr); ok && isDesTime(p.Info.TypeOf(e)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// packageOf resolves e to an imported package's path when e names a
// package (handling import renames via the type checker).
func (p *Pass) packageOf(e ast.Expr) (string, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", false
	}
	obj := p.Info.Uses[id]
	pn, ok := obj.(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}
