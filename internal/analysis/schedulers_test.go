package analysis

import (
	"go/types"
	"testing"
)

// TestSchedulersResolve: every method name charmvet roots scheduled event
// bodies through is declared by every package its entry names, so the list
// cannot keep a name the engine contract or the runtime has dropped (a
// stale name roots nothing, and a renamed scheduler would root nothing
// silently).
func TestSchedulersResolve(t *testing.T) {
	declared := map[string]map[string]bool{} // package name -> method names
	// One load per package: each type-checks against its dependencies'
	// export data, where loading them together would check des twice.
	for _, dir := range []string{"./internal/des", "./internal/parsim", "./internal/charm"} {
		pkgs, err := Load("../..", dir)
		if err != nil || len(pkgs) != 1 {
			t.Fatalf("loading %s: %d packages, %v", dir, len(pkgs), err)
		}
		p := pkgs[0]
		methods := map[string]bool{}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				methods[named.Method(i).Name()] = true
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					methods[iface.Method(i).Name()] = true
				}
			}
		}
		declared[p.Types.Name()] = methods
	}
	for _, s := range schedulers {
		for _, pkg := range s.pkgs {
			if declared[pkg] == nil {
				t.Errorf("package %s not loaded", pkg)
				continue
			}
			for _, m := range s.methods {
				if !declared[pkg][m] {
					t.Errorf("scheduler %s names no method of package %s", m, pkg)
				}
			}
		}
	}
}
