package analysis_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
	"sync"
	"testing"

	"charmgo/internal/analysis"
)

// loadModule type-checks the module once for the module-wide tests,
// together with the separate bench module, whose main drives probes of the
// des and charm packages.
var loadModule = sync.OnceValues(func() ([]*analysis.Package, error) {
	return analysis.Load("../../bench", ".", "charmgo/...")
})

// waiverUnreached keeps a function no program reaches: a deliberate entry
// point or a test oracle. Its reason follows the directive.
const waiverUnreached = "charmvet:unreached"

// stdlibIfaces are the standard-library interfaces through which the
// standard library calls module methods.
var stdlibIfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"}, {"", "error"}, {"sort", "Interface"},
	{"container/heap", "Interface"}, {"go/types", "ImporterFrom"},
}

// unreached walks g from every main, every init, and every function and
// package-level initializer of the facade package, skipping the packages
// skip names. It returns the declared functions of the packages report
// names that no walk reaches and no //charmvet:unreached waiver covers.
// Besides the graph's edges, the walk counts as reached a function named as
// a value in a reached body, and a method the standard library calls
// through one of stdlibIfaces.
func unreached(g *analysis.Graph, facade string, skip, report func(path string) bool) []string {
	byFn := map[*types.Func]*analysis.Node{}
	byLit := map[*ast.FuncLit]*analysis.Node{}
	for _, n := range g.Nodes {
		if n.Fn != nil {
			byFn[n.Fn] = n
		} else {
			byLit[n.Lit] = n
		}
	}
	seen := map[*analysis.Node]bool{}
	var work []*analysis.Node
	mark := func(n *analysis.Node) {
		if n != nil && !seen[n] && !skip(n.Pkg.Path) {
			seen[n] = true
			work = append(work, n)
		}
	}
	// markRefs marks every function and literal that tree names.
	markRefs := func(info *types.Info, tree ast.Node) {
		ast.Inspect(tree, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[x].(*types.Func); ok {
					mark(byFn[fn.Origin()])
				}
			case *ast.FuncLit:
				mark(byLit[x])
			}
			return true
		})
	}

	ifaces := stdlibInterfaces(g.Pkgs)
	for _, n := range g.Nodes {
		if fn := n.Fn; fn != nil {
			recv := fn.Type().(*types.Signature).Recv()
			if n.Pkg.Path == facade || recv == nil && (fn.Name() == "init" || fn.Name() == "main" && n.Pkg.Types.Name() == "main") ||
				recv != nil && calledByStdlib(recv.Type(), fn.Name(), ifaces) {
				mark(n)
			}
		}
	}
	for _, pkg := range g.Pkgs {
		if pkg.Path == facade {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					if gd, ok := decl.(*ast.GenDecl); ok {
						markRefs(pkg.Info, gd)
					}
				}
			}
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range n.Edges {
			mark(e.Callee)
		}
		markRefs(n.Pkg.Info, n.Body)
	}

	var out []string
	for _, n := range g.Nodes {
		if n.Fn != nil && !seen[n] && report(n.Pkg.Path) && !n.Pkg.Waived(waiverUnreached, n.Pos) {
			out = append(out, fmt.Sprintf("%s (%s)", n.Name, n.Pkg.Fset.Position(n.Pos)))
		}
	}
	return out
}

// stdlibInterfaces looks stdlibIfaces up among the packages pkgs import.
func stdlibInterfaces(pkgs []*analysis.Package) []*types.Interface {
	byPath := map[string]*types.Package{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if byPath[p.Path()] == nil {
			byPath[p.Path()] = p
			for _, q := range p.Imports() {
				visit(q)
			}
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	var out []*types.Interface
	for _, s := range stdlibIfaces {
		scope := types.Universe
		if s.pkg != "" {
			if byPath[s.pkg] == nil {
				continue
			}
			scope = byPath[s.pkg].Scope()
		}
		out = append(out, scope.Lookup(s.name).Type().Underlying().(*types.Interface))
	}
	return out
}

// calledByStdlib reports whether the method name on receiver type recv is
// a method of one of ifaces that recv's type implements.
func calledByStdlib(recv types.Type, name string, ifaces []*types.Interface) bool {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// TestEveryFunctionReached fails on a function of the module that no
// program reaches. Delete it, or waive a deliberate entry point or a test
// oracle with //charmvet:unreached and its reason.
func TestEveryFunctionReached(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	skip := func(path string) bool {
		return strings.HasPrefix(path, "charmgo/internal/analysis/fixtures") || path == "charmgo/internal/pup/puptest"
	}
	report := func(path string) bool {
		return (path == "charmgo" || strings.HasPrefix(path, "charmgo/")) && !strings.HasPrefix(path, "charmgo/bench") && !skip(path)
	}
	for _, name := range unreached(analysis.NewGraph(pkgs, nil), "charmgo", skip, report) {
		t.Errorf("no program reaches %s", name)
	}
}

// TestUnreachedFixture runs the walk over fixtures/unreached, whose main
// reaches everything but one exported function: a method value handed to
// net/http, a String method, a method of a generic type and a function
// named only by the facade's package-level var all count as reached, and a
// waived function is kept.
func TestUnreachedFixture(t *testing.T) {
	w, err := loadFixtures()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	const root = "charmgo/internal/analysis/fixtures/unreached"
	in := func(path string) bool { return path == root || strings.HasPrefix(path, root+"/") }
	got := unreached(w.graph, root+"/facade", func(path string) bool { return !in(path) }, in)
	if len(got) != 1 || !strings.HasPrefix(got[0], "analysis/fixtures/unreached.Unused (") {
		t.Fatalf("unreached = %q, want unreached.Unused alone", got)
	}
}
