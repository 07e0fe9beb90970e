package analysis_test

import (
	"fmt"
	"go/ast"
	"strings"
	"sync"
	"testing"

	"charmgo/internal/analysis"
)

// fixtureWorld is every fixture package plus one call graph over all of
// them (no root exclusions: fixture roots are the point).
type fixtureWorld struct {
	byPath map[string]*analysis.Package
	all    []*analysis.Package
	graph  *analysis.Graph
}

// loadFixtures loads every fixture package once for all analyzer tests.
var loadFixtures = sync.OnceValues(func() (*fixtureWorld, error) {
	pkgs, err := analysis.Load("../..", "./internal/analysis/fixtures/...")
	if err != nil {
		return nil, err
	}
	w := &fixtureWorld{byPath: map[string]*analysis.Package{}, all: pkgs}
	for _, p := range pkgs {
		w.byPath[p.Path] = p
	}
	w.graph = analysis.NewGraph(pkgs, nil)
	return w, nil
})

// checkFixture runs one analyzer over its fixture package and compares the
// findings against the fixture's want marks (want, then a backquoted
// substring; one comment may hold several): every finding must land on a
// marked line and match its substring, and every mark must be hit — so
// each fixture proves both the positive and the negative cases.
func checkFixture(t *testing.T, a *analysis.Analyzer, path string) []analysis.Finding {
	t.Helper()
	w, err := loadFixtures()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	pkg := w.byPath[path]
	if pkg == nil {
		t.Fatalf("fixture package %s not loaded", path)
	}

	type mark struct {
		key  string // file:line
		want string
		hit  bool
	}
	var marks []*mark
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for text := c.Text; ; {
					i := strings.Index(text, "want `")
					if i < 0 {
						break
					}
					rest := text[i+len("want `"):]
					j := strings.Index(rest, "`")
					if j < 0 {
						t.Fatalf("%s: unterminated want mark %q", pos, c.Text)
					}
					marks = append(marks, &mark{
						key:  fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
						want: rest[:j],
					})
					text = rest[j+1:]
				}
			}
		}
	}
	if len(marks) == 0 {
		t.Fatalf("fixture %s has no want marks", path)
	}

	var findings []analysis.Finding
	analysis.RunAnalyzer(a, pkg, w.graph, &findings)
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, m := range marks {
			if !m.hit && m.key == key && strings.Contains(f.Message, m.want) {
				m.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, m := range marks {
		if !m.hit {
			t.Errorf("%s: expected a finding matching %q, got none", m.key, m.want)
		}
	}
	return findings
}

func TestDetTaint(t *testing.T) {
	checkFixture(t, analysis.DetTaint, "charmgo/internal/analysis/fixtures/dettaint")
}

func TestDetTaintParsimWaiver(t *testing.T) {
	checkFixture(t, analysis.DetTaint, "charmgo/internal/analysis/fixtures/dettaint/parsim")
}

// TestDetTaintTelemetryWaiver pins the //charmvet:telemetry contract in a
// package whose path qualifies for the waiver: a side-band waived read
// passes, a waived read converted into des.Time is still a finding (the
// flow check), and an unwaived read is a plain finding. The misuse case —
// the waiver in a non-telemetry package — lives in the main dettaint
// fixture.
func TestDetTaintTelemetryWaiver(t *testing.T) {
	checkFixture(t, analysis.DetTaint, "charmgo/internal/analysis/fixtures/dettaint/telemetry")
}

func TestRetainCheck(t *testing.T) {
	checkFixture(t, analysis.RetainCheck, "charmgo/internal/analysis/fixtures/retaincheck")
}

func TestPhasePure(t *testing.T) {
	checkFixture(t, analysis.PhasePure, "charmgo/internal/analysis/fixtures/phasepure")
}

func TestPupCheck(t *testing.T) {
	checkFixture(t, analysis.PupCheck, "charmgo/internal/analysis/fixtures/pupcheck")
}

func TestPoolCheck(t *testing.T) {
	checkFixture(t, analysis.PoolCheck, "charmgo/internal/analysis/fixtures/poolcheck")
}

// TestSpecState drives phasepure's Rule C (speculative-phase writes to
// //pup:skip fields) over its own fixture; the fixture's commit closures
// also carry Rule B marks, since the same analyzer checks both.
func TestSpecState(t *testing.T) {
	checkFixture(t, analysis.PhasePure, "charmgo/internal/analysis/fixtures/specstate")
}

// TestDettaintDeepWallclock is the acceptance case for reachability: the
// entry method (fixtures/dettaint.onTick) is wall-clock-free in its own
// body and its own package, and the time.Now sits two calls down in the
// sub-package fixtures/dettaint/util. An intra-procedural, package-scoped
// analyzer — v1's walltime — finds nothing to flag in either place: the
// entry package has no source, and the sink package has no entry point or
// critical-list membership tying it to an event path. dettaint reports the
// sink with the full three-hop chain.
func TestDettaintDeepWallclock(t *testing.T) {
	w, err := loadFixtures()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	entry := w.byPath["charmgo/internal/analysis/fixtures/dettaint"]

	// Half one: the file scan v1 performed sees no wall-clock call in the
	// entry method's body.
	for _, f := range entry.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "onTick" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "stdtime" {
						t.Errorf("fixture invalid: onTick's own body references time (%s); the deep-reachability case must keep the source two calls down", entry.Fset.Position(sel.Pos()))
					}
				}
				return true
			})
		}
	}

	// Half two: dettaint reports the sink in util with the full chain
	// from the entry method.
	findings := checkFixture(t, analysis.DetTaint, "charmgo/internal/analysis/fixtures/dettaint/util")
	found := false
	for _, f := range findings {
		if !strings.Contains(f.Message, "time.Now") {
			continue
		}
		found = true
		if len(f.Chain) < 3 {
			t.Errorf("deep wall-clock finding should carry a >=3-hop chain, got %v", f.Chain)
		}
		if !strings.Contains(strings.Join(f.Chain, " "), "onTick") {
			t.Errorf("chain %v does not start at the entry method onTick", f.Chain)
		}
		if !strings.Contains(f.Chain[0], "[entry method]") {
			t.Errorf("chain %v does not label its root as an entry method", f.Chain)
		}
	}
	if !found {
		t.Fatalf("no time.Now finding reported in the util sink package")
	}
}

// TestFixtureExclusion proves the suite's fixture exclusion (not the
// waivers) is what keeps the deliberate violations out of
// TestCharmvetClean: the default suite must report nothing on fixture
// packages, and the same suite with the exclusion removed must flag them.
func TestFixtureExclusion(t *testing.T) {
	w, err := loadFixtures()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	suite := analysis.DefaultSuite()
	if got := suite.Run(w.all); len(got) != 0 {
		t.Errorf("default suite must exclude fixtures, got %d findings: %v", len(got), got)
	}
	suite.Exclude = nil
	if got := suite.Run(w.all); len(got) == 0 {
		t.Errorf("suite with exclusion removed should flag fixture violations")
	}
}
