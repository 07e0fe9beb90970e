package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural analyzers
// (dettaint, phasepure) reason over. Nodes are function bodies — declared
// functions and methods, plus every function literal as its own node —
// across all loaded packages at once; the loader's shared type universe
// makes cross-package call resolution exact for module code.
//
// Call edges:
//
//   - static: the callee is a declared function or a concrete method.
//   - iface: a method call through an interface value resolves, CHA-style,
//     to every module method with that name and signature whose receiver
//     type implements the interface.
//   - indirect: a call through a function value resolves to every
//     address-taken module function (and every function literal) with an
//     identical signature — unless the value is a local variable bound
//     exactly once to a known function, in which case the site resolves to
//     that one callee (def-use pruning, below).
//   - closure: creating a function literal edges the enclosing function to
//     it. Creation is not invocation, but the conservative edge keeps a
//     source hidden inside a stored-then-invoked closure reachable.
//
// Known conservatisms (see DESIGN.md §11): reflection and cgo are invisible;
// indirect resolution is signature-keyed, so distinct callbacks that share a
// signature alias each other; closure edges over-approximate literals that
// are created but never called.
//
// Def-use pruning. Signature-keyed resolution is brutal on the common
// cmd/ driver idiom
//
//	run := func() { ... }
//	...
//	run()
//
// where every same-signature closure in the module becomes a callee and
// chains alias across drivers. When the called expression is a simple
// local identifier whose variable has exactly one function-valued binding
// in the whole module — a function literal or a direct reference to a
// declared function — and is never address-taken, the call can only reach
// that binding, so the site gets that single edge instead of the fan-out.
// Any second assignment, a binding the graph cannot name (a call result, a
// conversion, a range element, a mismatched multi-assign), or an &v
// anywhere (including inside nested literals — bindings are collected
// module-wide, so a closure reassigning a captured variable disqualifies
// it) falls back to the signature fan-out.

// RootKind classifies why a node is an analysis entry point.
type RootKind string

const (
	RootEntry    RootKind = "entry method"      // charm.Handler shape, address-taken
	RootPEH      RootKind = "PE handler"        // charm.PEHandler shape, address-taken
	RootBoot     RootKind = "boot/driver func"  // func(*charm.Ctx) shape, address-taken
	RootEventFn  RootKind = "engine event body" // des.PhaseFn / des.CommitFn shape
	RootPup      RootKind = "Pup method"
	RootCommit   RootKind = "commit closure"    // argument to Ctx.Defer / Ctx.emit
	RootSchedule RootKind = "scheduled closure" // argument to an engine At/After call
	RootInit     RootKind = "package init"      // init func: runs at program start, taints every run
)

// Node is one function body in the call graph.
type Node struct {
	Key  string      // stable unique id (types.Func FullName, or parent key + literal position)
	Fn   *types.Func // nil for function literals
	Lit  *ast.FuncLit
	Pkg  *Package
	Body *ast.BlockStmt
	Name string // display name, module prefix trimmed
	Pos  token.Pos
	Root RootKind // empty when not a root

	Edges []Edge

	index int // position in Graph.Nodes, for deterministic worklists
}

// Edge is one call (or closure-creation) edge.
type Edge struct {
	Callee *Node
	Site   token.Pos
	Kind   string // "static", "iface", "indirect", "closure"
}

func (n *Node) String() string { return n.Name }

// Graph is the module-wide call graph.
type Graph struct {
	Pkgs  []*Package
	Nodes []*Node // deterministic order: package path, then source position

	byFn  map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node

	addrTaken map[*types.Func]bool

	// Deferred resolution sites collected during the body walks: every
	// kind resolves after pass 1, when all nodes exist (a call to a
	// function declared later in the file would otherwise find no node).
	staticSites   []staticSite
	indirectSites []indirectSite
	ifaceSites    []ifaceSite

	// Named types of the module, for interface dispatch.
	namedTypes []*types.Named

	reach      map[*Node]reachEdge // lazy: full reachability from all roots
	phaseReach map[*Node]reachEdge // lazy: phase-context reachability
	skipFields map[*types.Var]bool // lazy: //pup:skip fields (phasepure Rule C)
}

type staticSite struct {
	caller *Node
	site   token.Pos
	fn     *types.Func
}

type indirectSite struct {
	caller *Node
	site   token.Pos
	sig    *types.Signature
	local  *types.Var // set when the call is through a simple local identifier
}

type ifaceSite struct {
	caller *Node
	site   token.Pos
	iface  *types.Interface
	name   string
	sig    *types.Signature
}

// NewGraph builds the call graph over pkgs. excludeRoots lists import-path
// prefixes whose functions are never marked as roots (test fixtures full of
// deliberate violations must not anchor chains into real code).
func NewGraph(pkgs []*Package, excludeRoots []string) *Graph {
	g := &Graph{
		Pkgs:      pkgs,
		byFn:      map[*types.Func]*Node{},
		byLit:     map[*ast.FuncLit]*Node{},
		addrTaken: map[*types.Func]bool{},
	}
	// Pass 1: nodes for every declared function and literal, plus static
	// edges, address-taken sets, and deferred indirect/iface sites.
	for _, pkg := range pkgs {
		g.collectNamed(pkg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, v := range vs.Values {
								g.scanInitExpr(pkg, v)
							}
						}
					}
					continue
				}
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{
					Key:  fn.FullName(),
					Fn:   fn,
					Pkg:  pkg,
					Body: fd.Body,
					Name: shortFuncName(fn),
					Pos:  fd.Name.Pos(),
				}
				g.addNode(n)
				g.walkBody(n)
			}
		}
	}
	// Pass 2: resolve deferred sites now that the address-taken set and the
	// node table are complete.
	g.resolveIndirect()
	g.resolveIface()
	g.resolveStatic() // last: resolveIface records its targets via staticEdge
	// Pass 3: roots.
	g.markRoots(excludeRoots)
	return g
}

func (g *Graph) addNode(n *Node) {
	n.index = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	if n.Fn != nil {
		g.byFn[n.Fn] = n
	}
	if n.Lit != nil {
		g.byLit[n.Lit] = n
	}
}

// collectNamed records the package's named types for interface dispatch.
func (g *Graph) collectNamed(pkg *Package) {
	scope := pkg.Types.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			g.namedTypes = append(g.namedTypes, named)
		}
	}
}

// scanInitExpr handles a package-level initializer expression: function
// values referenced there are address-taken (handler tables are often
// package-level composite literals), and function literals become their
// own nodes so their bodies are analyzed.
func (g *Graph) scanInitExpr(pkg *Package, e ast.Expr) {
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			n := &Node{
				Key:  fmt.Sprintf("%s.init@%s", pkg.Path, shortPos(pkg.Fset, x.Pos())),
				Lit:  x,
				Pkg:  pkg,
				Body: x.Body,
				Name: fmt.Sprintf("%s.init.func@%s", pkg.Types.Name(), shortPos(pkg.Fset, x.Pos())),
				Pos:  x.Pos(),
			}
			g.addNode(n)
			g.walkBody(n)
			return false
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
				g.addrTaken[fn] = true
			}
		}
		return true
	})
}

// walkBody scans n's body: static call edges, literal child nodes, deferred
// indirect/iface sites, and address-taken functions. Nested literals are
// walked as their own nodes, not as part of n.
func (g *Graph) walkBody(n *Node) {
	// Call positions: expressions that are the Fun of a call, so a
	// reference there is an invocation rather than a taken address; and
	// selector-owned idents, so a method call's Sel ident is not misread
	// as a bare function value.
	callPos := map[ast.Expr]bool{}
	selOwned := map[*ast.Ident]bool{}
	inspectShallow(n.body(), func(x ast.Node) bool {
		if c, ok := x.(*ast.CallExpr); ok {
			callPos[ast.Unparen(c.Fun)] = true
		}
		if s, ok := x.(*ast.SelectorExpr); ok {
			selOwned[s.Sel] = true
		}
		return true
	})

	inspectShallow(n.body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			child := &Node{
				Key:  fmt.Sprintf("%s$%d", n.Key, g.litOrdinal(n)),
				Lit:  x,
				Pkg:  n.Pkg,
				Body: x.Body,
				Name: fmt.Sprintf("%s.func@%s", n.Name, shortPos(n.Pkg.Fset, x.Pos())),
				Pos:  x.Pos(),
			}
			g.addNode(child)
			n.Edges = append(n.Edges, Edge{Callee: child, Site: x.Pos(), Kind: "closure"})
			g.walkBody(child)
			return false // the child walk owns the literal's body
		case *ast.CallExpr:
			g.resolveCall(n, x)
		case *ast.Ident:
			if fn, ok := n.Pkg.Info.Uses[x].(*types.Func); ok && !callPos[x] && !selOwned[x] {
				g.addrTaken[fn] = true
			}
		case *ast.SelectorExpr:
			if fn, ok := n.Pkg.Info.Uses[x.Sel].(*types.Func); ok && !callPos[x] {
				g.addrTaken[fn] = true
			}
		}
		return true
	})
}

// litOrdinal numbers n's literal children for stable keys.
func (g *Graph) litOrdinal(n *Node) int {
	count := 0
	for _, e := range n.Edges {
		if e.Kind == "closure" {
			count++
		}
	}
	return count
}

// body returns the AST subtree the node owns.
func (n *Node) body() ast.Node {
	if n.Body == nil {
		return &ast.BlockStmt{}
	}
	return n.Body
}

// inspectShallow walks tree but does not descend into nested function
// literals (each literal is its own graph node). The root itself may be a
// literal's body.
func inspectShallow(tree ast.Node, f func(ast.Node) bool) {
	ast.Inspect(tree, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit.Body != tree {
			if !f(x) {
				return false
			}
			return false // handled by the literal's own node
		}
		if x == nil {
			return true
		}
		return f(x)
	})
}

// resolveCall classifies one call site and records the edge (or defers it).
func (g *Graph) resolveCall(n *Node, call *ast.CallExpr) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			g.staticEdge(n, call.Pos(), obj)
			return
		case *types.TypeName, *types.Builtin, nil:
			return // conversion or builtin
		case *types.Var:
			// A call through a bare variable: record the variable so
			// pass 2 can try def-use pruning. Package-level variables
			// are excluded — any package may reassign them — as are
			// struct fields (those arrive as selectors anyway).
			if sig, ok := obj.Type().Underlying().(*types.Signature); ok &&
				!obj.IsField() && obj.Parent() != n.Pkg.Types.Scope() {
				g.indirectSites = append(g.indirectSites,
					indirectSite{caller: n, site: call.Pos(), sig: sig, local: obj})
				return
			}
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				break // calling a func-typed field: indirect
			}
			switch sel.Kind() {
			case types.MethodVal:
				if types.IsInterface(sel.Recv()) {
					if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
						g.ifaceSites = append(g.ifaceSites, ifaceSite{
							caller: n, site: call.Pos(), iface: iface,
							name: fn.Name(), sig: fn.Type().(*types.Signature),
						})
						return
					}
				}
				g.staticEdge(n, call.Pos(), fn)
				return
			case types.MethodExpr:
				g.staticEdge(n, call.Pos(), fn)
				return
			}
		} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			g.staticEdge(n, call.Pos(), fn) // qualified ident pkg.Func
			return
		} else if _, ok := info.Uses[fun.Sel].(*types.TypeName); ok {
			return // qualified conversion pkg.Type(x)
		}
	}
	// Anything else with a function type is an indirect call.
	if t := info.TypeOf(fun); t != nil {
		if sig, ok := t.Underlying().(*types.Signature); ok {
			g.indirectSites = append(g.indirectSites, indirectSite{caller: n, site: call.Pos(), sig: sig})
		}
	}
}

// staticEdge records a direct call for pass-2 resolution.
func (g *Graph) staticEdge(n *Node, site token.Pos, fn *types.Func) {
	g.staticSites = append(g.staticSites, staticSite{caller: n, site: site, fn: fn})
}

// resolveStatic links direct calls whose callee has a body in the module. A
// method of an instantiated generic type is called through its own
// *types.Func; Origin maps it to the declared one the node is keyed by.
func (g *Graph) resolveStatic() {
	for _, s := range g.staticSites {
		if callee := g.byFn[s.fn.Origin()]; callee != nil {
			s.caller.Edges = append(s.caller.Edges, Edge{Callee: callee, Site: s.site, Kind: "static"})
		}
	}
}

// funcBinding summarizes every assignment to one function-typed variable
// across the whole module.
type funcBinding struct {
	count  int   // assignments seen (declarations with values included)
	target *Node // callee of the sole binding, when resolvable
	bad    bool  // address-taken, unresolvable RHS, or unpairable assign
}

// scanFuncBindings walks every node body once and records, for each
// function-typed variable, how many times it is assigned and what the
// assignment binds it to. The map is module-wide: a variable captured and
// reassigned inside a nested literal is charged its second binding even
// though the literal is a different graph node.
func (g *Graph) scanFuncBindings() map[*types.Var]*funcBinding {
	bindings := map[*types.Var]*funcBinding{}
	get := func(v *types.Var) *funcBinding {
		b := bindings[v]
		if b == nil {
			b = &funcBinding{}
			bindings[v] = b
		}
		return b
	}
	// lhsVar returns the function-typed variable an assignment target
	// names, or nil for blank, non-ident, or non-function targets.
	lhsVar := func(info *types.Info, e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		var v *types.Var
		if d, ok := info.Defs[id].(*types.Var); ok {
			v = d
		} else if u, ok := info.Uses[id].(*types.Var); ok {
			v = u
		}
		if v == nil {
			return nil
		}
		if _, ok := v.Type().Underlying().(*types.Signature); !ok {
			return nil
		}
		return v
	}
	for _, n := range g.Nodes {
		info := n.Pkg.Info
		// bindTarget resolves an assignment RHS to the single node it can
		// invoke as, or nil when the value's origin is not a direct
		// function reference (call results, conversions, other variables).
		bindTarget := func(rhs ast.Expr) *Node {
			switch rhs := ast.Unparen(rhs).(type) {
			case *ast.FuncLit:
				return g.byLit[rhs]
			case *ast.Ident:
				if fn, ok := info.Uses[rhs].(*types.Func); ok {
					return g.byFn[fn]
				}
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[rhs.Sel].(*types.Func); ok {
					return g.byFn[fn] // pkg.Func or a bound method value
				}
			}
			return nil
		}
		record := func(lhs ast.Expr, rhs ast.Expr) {
			v := lhsVar(info, lhs)
			if v == nil {
				return
			}
			b := get(v)
			b.count++
			if rhs == nil {
				b.bad = true
				return
			}
			if t := bindTarget(rhs); t != nil {
				b.target = t
			} else {
				b.bad = true
			}
		}
		inspectShallow(n.body(), func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Lhs {
						record(x.Lhs[i], x.Rhs[i])
					}
				} else { // f, err := mk(): origin is a call, not a reference
					for _, l := range x.Lhs {
						record(l, nil)
					}
				}
			case *ast.ValueSpec:
				if len(x.Names) == len(x.Values) {
					for i := range x.Names {
						record(x.Names[i], x.Values[i])
					}
				} else if len(x.Values) > 0 {
					for _, nm := range x.Names {
						record(nm, nil)
					}
				} // var f func() with no value binds nothing yet
			case *ast.RangeStmt:
				if x.Key != nil {
					record(x.Key, nil)
				}
				if x.Value != nil {
					record(x.Value, nil)
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					if v := lhsVar(info, x.X); v != nil {
						get(v).bad = true // writable through the pointer
					}
				}
			}
			return true
		})
	}
	return bindings
}

// resolveIndirect links every indirect call site to the address-taken
// functions and all literals whose signature matches, except sites pruned
// to a single callee by def-use analysis of their local variable.
func (g *Graph) resolveIndirect() {
	bindings := g.scanFuncBindings()
	// Index candidates by a canonical signature string; confirm with
	// types.Identical before linking.
	type cand struct {
		node *Node
		sig  *types.Signature
	}
	bySig := map[string][]cand{}
	add := func(node *Node, sig *types.Signature) {
		key := sigKey(sig)
		bySig[key] = append(bySig[key], cand{node, sig})
	}
	for _, n := range g.Nodes {
		if n.Lit != nil {
			if sig, ok := n.Pkg.Info.TypeOf(n.Lit).(*types.Signature); ok {
				add(n, sig)
			}
			continue
		}
		if g.addrTaken[n.Fn] {
			add(n, n.Fn.Type().(*types.Signature))
		}
	}
	for _, site := range g.indirectSites {
		if site.local != nil {
			if b := bindings[site.local]; b != nil && b.count == 1 && !b.bad && b.target != nil {
				site.caller.Edges = append(site.caller.Edges,
					Edge{Callee: b.target, Site: site.site, Kind: "indirect"})
				continue
			}
		}
		for _, c := range bySig[sigKey(site.sig)] {
			if identicalSig(site.sig, c.sig) {
				site.caller.Edges = append(site.caller.Edges,
					Edge{Callee: c.node, Site: site.site, Kind: "indirect"})
			}
		}
	}
}

// resolveIface links interface method calls to every module method with the
// name and signature whose receiver type implements the interface.
func (g *Graph) resolveIface() {
	for _, site := range g.ifaceSites {
		for _, named := range g.namedTypes {
			var recv types.Type = named
			if !types.Implements(recv, site.iface) {
				recv = types.NewPointer(named)
				if !types.Implements(recv, site.iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), site.name)
			m, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if !identicalSig(m.Type().(*types.Signature), site.sig) {
				continue
			}
			g.staticEdge(site.caller, site.site, m)
		}
	}
}

// sigKey is a cheap canonical hash of a signature ignoring the receiver
// and all parameter/result names (types.TypeString prints names, and
// types.Identical ignores them — an indirect call through a bare
// `func(int) int` variable must land in the same bucket as a callee
// declared `func(x int) int`); collisions are resolved by identicalSig.
func sigKey(sig *types.Signature) string {
	clean := types.NewSignatureType(nil, nil, nil,
		unnamedTuple(sig.Params()), unnamedTuple(sig.Results()), sig.Variadic())
	return types.TypeString(clean, func(p *types.Package) string { return p.Path() })
}

func unnamedTuple(t *types.Tuple) *types.Tuple {
	vars := make([]*types.Var, t.Len())
	for i := 0; i < t.Len(); i++ {
		vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
	}
	return types.NewTuple(vars...)
}

func identicalSig(a, b *types.Signature) bool {
	ac := types.NewSignatureType(nil, nil, nil, a.Params(), a.Results(), a.Variadic())
	bc := types.NewSignatureType(nil, nil, nil, b.Params(), b.Results(), b.Variadic())
	return types.Identical(ac, bc)
}

// ---- roots ----

// markRoots identifies the analysis entry points: the functions the runtime
// invokes as events rather than through ordinary calls.
func (g *Graph) markRoots(excludeRoots []string) {
	for _, n := range g.Nodes {
		if hasPrefix(n.Pkg.Path, excludeRoots) {
			continue
		}
		switch {
		case n.Fn != nil && isPupMethod(n.Fn):
			n.Root = RootPup
		case n.Fn != nil && isInitFunc(n.Fn):
			// Like a package-level var initializer, an init body runs
			// before any event and taints every run of the program.
			n.Root = RootInit
		case g.takenOrLit(n):
			sig := g.nodeSig(n)
			if sig == nil {
				continue
			}
			switch {
			case isHandlerSig(sig):
				n.Root = RootEntry
			case isPEHandlerSig(sig):
				n.Root = RootPEH
			case isBootSig(sig):
				n.Root = RootBoot
			case isPhaseFnSig(sig) || isCommitFnSig(sig):
				n.Root = RootEventFn
			}
		}
	}
	// Call-site roots: closures handed to Ctx.Defer (commit closures) and
	// to the engine's scheduling calls run as events later; mark them even
	// when their shapes match nothing above.
	for _, n := range g.Nodes {
		if hasPrefix(n.Pkg.Path, excludeRoots) {
			continue
		}
		inspectShallow(n.body(), func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind, ok := scheduleCallKind(n.Pkg.Info, call)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				g.markFuncArg(n, arg, kind)
			}
			return true
		})
	}
}

func (g *Graph) markFuncArg(n *Node, arg ast.Expr, kind RootKind) {
	switch arg := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		if child := g.byLit[arg]; child != nil && child.Root == "" {
			child.Root = kind
		}
	case *ast.Ident:
		if fn, ok := n.Pkg.Info.Uses[arg].(*types.Func); ok {
			if t := g.byFn[fn]; t != nil && t.Root == "" {
				t.Root = kind
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := n.Pkg.Info.Uses[arg.Sel].(*types.Func); ok {
			if t := g.byFn[fn]; t != nil && t.Root == "" {
				t.Root = kind
			}
		}
	}
}

// schedulers names the methods that schedule their function-valued
// arguments to run later as event bodies, by the package names their
// receivers are declared in: the engine contract's three forms, and the
// runtime's two timers.
var schedulers = []struct {
	pkgs, methods []string
}{
	{[]string{"des", "parsim"}, []string{"At", "AtShardFn", "AtShardCommit"}},
	{[]string{"charm"}, []string{"ExecuteOnPE", "atEpoch"}},
}

// scheduleCallKind reports whether call schedules its function-valued
// arguments to run later as events: Ctx.Defer/emit (commit closures) and
// the schedulers (timer and event bodies).
func scheduleCallKind(info *types.Info, call *ast.CallExpr) (RootKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	recv := info.TypeOf(sel.X)
	if recv == nil {
		return "", false
	}
	name := sel.Sel.Name
	if (name == "Defer" || name == "emit") && isCtxPtr(recv) {
		return RootCommit, true
	}
	for _, s := range schedulers {
		if slices.Contains(s.methods, name) && typeInPkgNamed(recv, s.pkgs...) {
			return RootSchedule, true
		}
	}
	return "", false
}

func (g *Graph) takenOrLit(n *Node) bool {
	return n.Lit != nil || g.addrTaken[n.Fn]
}

func (g *Graph) nodeSig(n *Node) *types.Signature {
	if n.Fn != nil {
		return n.Fn.Type().(*types.Signature)
	}
	sig, _ := n.Pkg.Info.TypeOf(n.Lit).(*types.Signature)
	return sig
}

// Roots returns the graph's roots in deterministic order.
func (g *Graph) Roots() []*Node {
	var roots []*Node
	for _, n := range g.Nodes {
		if n.Root != "" {
			roots = append(roots, n)
		}
	}
	return roots
}

// ---- shape predicates ----

// isCtxPtr reports whether t is *Ctx for a type named Ctx declared in a
// package named charm (name-based like pupcheck's *pup.Pup test, so both
// the real runtime and analyzer fixtures qualify).
func isCtxPtr(t types.Type) bool { return isPtrToNamed(t, "charm", "Ctx") }

func isPtrToNamed(t types.Type, pkgName, typeName string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// typeInPkgNamed reports whether t (or its pointee) is a named type (or
// interface) declared in a package with one of the given names.
func typeInPkgNamed(t types.Type, pkgNames ...string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	for _, n := range pkgNames {
		if pkg.Name() == n {
			return true
		}
	}
	return false
}

func isEmptyIface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.Empty()
}

// isHandlerSig matches charm.Handler: func(obj Chare, ctx *Ctx, msg any).
func isHandlerSig(sig *types.Signature) bool {
	p := sig.Params()
	return p.Len() == 3 && sig.Results().Len() == 0 &&
		isCtxPtr(p.At(1).Type()) && isEmptyIface(p.At(2).Type())
}

// isPEHandlerSig matches charm.PEHandler: func(ctx *Ctx, msg any).
func isPEHandlerSig(sig *types.Signature) bool {
	p := sig.Params()
	return p.Len() == 2 && sig.Results().Len() == 0 &&
		isCtxPtr(p.At(0).Type()) && isEmptyIface(p.At(1).Type())
}

// isBootSig matches the Boot / ExecuteOnPE callback: func(ctx *Ctx).
func isBootSig(sig *types.Signature) bool {
	p := sig.Params()
	return p.Len() == 1 && sig.Results().Len() == 0 && isCtxPtr(p.At(0).Type())
}

// isDesTime reports whether t is des.Time (name-based, like isCtxPtr).
func isDesTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Name() == "des"
}

// desFnParams matches the shared prefix of des.PhaseFn and des.CommitFn:
// (a any, b int64, at des.Time).
func desFnParams(sig *types.Signature) bool {
	p := sig.Params()
	if p.Len() != 3 || !isEmptyIface(p.At(0).Type()) || !isDesTime(p.At(2).Type()) {
		return false
	}
	basic, ok := p.At(1).Type().(*types.Basic)
	return ok && basic.Kind() == types.Int64
}

// isPhaseFnSig matches des.PhaseFn: func(any, int64, des.Time) func().
func isPhaseFnSig(sig *types.Signature) bool {
	if !desFnParams(sig) || sig.Results().Len() != 1 {
		return false
	}
	rsig, ok := sig.Results().At(0).Type().Underlying().(*types.Signature)
	return ok && rsig.Params().Len() == 0 && rsig.Results().Len() == 0
}

// isCommitFnSig matches des.CommitFn: func(any, int64, des.Time).
func isCommitFnSig(sig *types.Signature) bool {
	return desFnParams(sig) && sig.Results().Len() == 0
}

// isInitFunc reports whether fn is a package init function (no receiver,
// niladic, named init — unreferenceable by user code, run at load).
func isInitFunc(fn *types.Func) bool {
	if fn.Name() != "init" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// isPupMethod matches the PupCheck shape: method Pup(*pup.Pup).
func isPupMethod(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || fn.Name() != "Pup" {
		return false
	}
	return sig.Params().Len() == 1 && isPtrToNamed(sig.Params().At(0).Type(), "pup", "Pup")
}

// ---- helpers ----

// shortFuncName trims the module prefix from a function's full name:
// "(charmgo/internal/apps/pdes.*App).onEvent" -> "(pdes.*App).onEvent".
func shortFuncName(fn *types.Func) string {
	name := fn.FullName()
	return strings.NewReplacer("charmgo/internal/apps/", "", "charmgo/internal/", "", "charmgo/", "").Replace(name)
}

func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%d:%d", p.Line, p.Column)
}
