package analysis_test

import (
	"testing"

	"charmgo/internal/analysis"
)

// TestCharmvetClean enforces the determinism and PUP-completeness rules on
// the whole module: reintroducing a violation anywhere fails tier-1
// `go test ./...`, not just a manual charmvet run. The load it shares with
// TestEveryFunctionReached includes the bench module, whose findings (and
// roots) the suite leaves out.
func TestCharmvetClean(t *testing.T) {
	pkgs, err := loadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	suite := analysis.DefaultSuite()
	suite.Exclude = append(suite.Exclude, "charmgo/bench")
	want := map[string]bool{
		"dettaint": true, "retaincheck": true, "phasepure": true,
		"pupcheck": true, "poolcheck": true,
	}
	for _, a := range suite.Analyzers {
		delete(want, a.Name)
	}
	for name := range want {
		t.Errorf("analyzer %s missing from the default suite; the module-wide gate no longer covers it", name)
	}
	findings := suite.Run(pkgs)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("run `go run ./cmd/charmvet ./...` locally; see the Determinism rules section of DESIGN.md for the waiver comments")
	}
}
