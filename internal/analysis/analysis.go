// Package analysis implements charmvet, a vet-style static-analysis suite
// that enforces the invariants the runtime's determinism and migratability
// guarantees rest on. The v2 suite reasons about the module the way the
// runtime executes it: a whole-module call graph (callgraph.go) identifies
// the functions the engine invokes as events — entry methods, PE handlers,
// commit closures, Pup methods — and the analyzers check what those events
// can reach, not what package a file happens to sit in:
//
//   - dettaint: no nondeterminism source (wall clock, global math/rand,
//     map-order iteration, select, goroutine spawn) reachable from an
//     entry method, commit closure, or Pup method — reported with the
//     full call chain
//
//   - retaincheck: no pooled object (*charm.Ctx, runtime messages) stored
//     into state that outlives the handler invocation
//
//   - phasepure: parsim's two-phase discipline — phase-side handler code
//     must route global effects through Ctx.Defer, and commit closures
//     must not read phase-side chare state
//
//   - pupcheck: every field of a chare struct is covered by its Pup
//     method, descending one level into embedded and named struct fields
//
//   - poolcheck: no use of a pooled object after it is released to its
//     pool (intra-procedural, runs everywhere)
//
//   - specstate: phase-side code must not write //pup:skip fields of
//     Pup-bearing types — a Time Warp rollback rebuilds the chare
//     factory-fresh, so such writes are reset instead of restored
//
// The suite is stdlib-only (go/parser, go/ast, go/types); imports are
// resolved from compiler export data via `go list -export`, with module
// packages type-checked from source in one shared type universe so the
// call graph can resolve cross-package calls exactly. It runs as a CLI
// (cmd/charmvet, with -json/-why/-baseline) and as a tier-1 test
// (TestCharmvetClean), so a violation reintroduced anywhere fails
// `go test ./...`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	// Chain is the call path from the analysis root to the finding,
	// outermost first, for analyzers that reason interprocedurally.
	Chain []string `json:"chain,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one checker of the suite.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one package, plus the module-wide
// call graph shared by every pass of a suite run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Path     string
	Graph    *Graph

	waivers  map[string]map[fileLine]bool // waiver name -> waived file:line
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportChainf(pos, nil, format, args...)
}

// ReportChainf records a finding at pos carrying a root→sink call chain.
func (p *Pass) ReportChainf(pos token.Pos, chain []string, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// pkgNodes returns the call-graph nodes whose bodies live in this pass's
// package, in deterministic graph order.
func (p *Pass) pkgNodes() []*Node {
	var nodes []*Node
	for _, n := range p.Graph.Nodes {
		if n.Pkg.Path == p.Path {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// Waiver directives. A directive comment waives the statement on its own
// line or on the line directly below, mirroring //nolint and //go:
// placement conventions.
const (
	// WaiverOrdered marks a map iteration whose order the author has made
	// harmless (sorted afterwards, or provably order-insensitive).
	WaiverOrdered = "charmvet:ordered"
	// WaiverWallclock marks deliberate wall-clock or global-rand use
	// (CLI progress reporting, real network servers).
	WaiverWallclock = "charmvet:wallclock"
	// WaiverSpawn marks a deliberate goroutine or select (real-I/O
	// subsystems that bridge into the simulation).
	WaiverSpawn = "charmvet:spawn"
	// WaiverParsim marks the parallel engine's phase-worker spawns. It is
	// honored only inside parsim packages: the engine's pipeline, in both
	// its modes, is the one place where goroutines provably cannot reorder
	// events (see internal/parsim's package comment), so the waiver must
	// not leak into runtime or app code.
	WaiverParsim = "charmvet:parsim"
	// WaiverTelemetry marks the observability layer's wall-clock reads. It
	// is honored only inside telemetry packages, and even there only for
	// values that stay side-band: a waived read whose result flows into
	// simulated time (des.Time) is still a finding, because a wall stamp
	// entering simulation state breaks cross-backend digest identity no
	// matter which package it came from.
	WaiverTelemetry = "charmvet:telemetry"
	// WaiverPupSkip marks a struct field deliberately absent from the
	// type's Pup method (caches, runtime wiring rebuilt after migration).
	WaiverPupSkip = "pup:skip"
	// WaiverPooled marks a deliberate use of a pooled object after its
	// release call (for example re-releasing under a different name, or a
	// release helper that the caller knows is a no-op on this path).
	WaiverPooled = "charmvet:pooled"
	// WaiverRetain marks a deliberate store of a pooled object into
	// longer-lived state — the pool implementations themselves, and
	// runtime structures whose lifecycle provably returns the object
	// before reuse.
	WaiverRetain = "charmvet:retain"
	// WaiverPhase marks a deliberate phase-side write to shared state —
	// state that is PE-local by construction, or sequential-backend-only
	// paths.
	WaiverPhase = "charmvet:phase"
	// WaiverSpecState marks a //pup:skip field (declaration placement) or a
	// single write to one (write-site placement) as safe under Time Warp
	// rollback: the factory reset is equivalent to restoring it, or the
	// owning app is pinned to the non-speculative backends.
	WaiverSpecState = "charmvet:specstate"
)

// Waived reports whether a directive comment covers the line of pos: on
// that same line, or on the line immediately above.
func (p *Pass) Waived(name string, pos token.Pos) bool {
	position := p.Fset.Position(pos)
	return p.waivers[name][fileLine{position.Filename, position.Line}]
}

type fileLine = struct {
	file string
	line int
}

func buildWaivers(fset *token.FileSet, files []*ast.File) map[string]map[fileLine]bool {
	w := map[string]map[fileLine]bool{}
	add := func(name, file string, line int) {
		if w[name] == nil {
			w[name] = map[fileLine]bool{}
		}
		w[name][fileLine{file, line}] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				for _, name := range []string{
					WaiverOrdered, WaiverWallclock, WaiverSpawn, WaiverParsim,
					WaiverTelemetry, WaiverPupSkip, WaiverPooled, WaiverRetain,
					WaiverPhase, WaiverSpecState,
				} {
					if text == name || strings.HasPrefix(text, name+" ") {
						pos := fset.Position(c.Pos())
						// Waive the directive's own line and the next one,
						// so both trailing and preceding placement work.
						add(name, pos.Filename, pos.Line)
						add(name, pos.Filename, pos.Line+1)
					}
				}
			}
		}
	}
	return w
}

// Suite is a set of analyzers run over the whole module at once.
type Suite struct {
	Analyzers []*Analyzer
	// Exclude lists import-path prefixes whose findings are dropped and
	// whose functions never act as call-graph roots (test fixtures
	// containing deliberate violations).
	Exclude []string
}

// DefaultSuite is the charmgo policy. Scoping is by reachability, not by
// package list: dettaint and phasepure follow the call graph from the
// functions the runtime invokes as events, and retaincheck/poolcheck/
// pupcheck run everywhere their trigger shapes appear.
func DefaultSuite() *Suite {
	return &Suite{
		Analyzers: []*Analyzer{DetTaint, RetainCheck, PhasePure, PupCheck, PoolCheck, SpecState},
		Exclude:   []string{"charmgo/internal/analysis/fixtures"},
	}
}

func hasPrefix(path string, prefixes []string) bool {
	for _, pre := range prefixes {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

// Run builds the call graph over pkgs once, applies every analyzer to
// every non-excluded package, and returns all findings in file order.
func (s *Suite) Run(pkgs []*Package) []Finding {
	graph := NewGraph(pkgs, s.Exclude)
	var findings []Finding
	for _, pkg := range pkgs {
		if hasPrefix(pkg.Path, s.Exclude) {
			continue
		}
		for _, a := range s.Analyzers {
			RunAnalyzer(a, pkg, graph, &findings)
		}
	}
	SortFindings(findings)
	return findings
}

// SortFindings orders findings by file, line, then analyzer.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
}

// RunAnalyzer applies a single analyzer to one package, appending to
// findings. graph must cover at least pkg (tests build one over a fixture
// package alone). Tests use it to drive an analyzer over a fixture
// regardless of suite composition.
func RunAnalyzer(a *Analyzer, pkg *Package, graph *Graph, findings *[]Finding) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Path:     pkg.Path,
		Graph:    graph,
		waivers:  buildWaivers(pkg.Fset, pkg.Files),
		findings: findings,
	}
	a.Run(pass)
}
