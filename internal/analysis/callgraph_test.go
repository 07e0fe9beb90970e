package analysis_test

import (
	"strings"
	"testing"

	"charmgo/internal/analysis"
)

// nodeByKeySuffix finds the unique graph node whose key ends in suffix.
func nodeByKeySuffix(t *testing.T, g *analysis.Graph, suffix string) *analysis.Node {
	t.Helper()
	var found *analysis.Node
	for _, n := range g.Nodes {
		if strings.HasSuffix(n.Key, suffix) {
			if found != nil {
				t.Fatalf("key suffix %q is ambiguous: %s and %s", suffix, found.Key, n.Key)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no graph node with key suffix %q", suffix)
	}
	return found
}

func edgeTo(n *analysis.Node, callee *analysis.Node) (analysis.Edge, bool) {
	for _, e := range n.Edges {
		if e.Callee == callee {
			return e, true
		}
	}
	return analysis.Edge{}, false
}

// TestCallGraphRoots checks the shape- and site-based root marking over
// the fixture packages.
func TestCallGraphRoots(t *testing.T) {
	w, err := loadFixtures()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	g := w.graph

	for _, name := range []string{"dettaint.onTick", "dettaint.onMerge", "dettaint.onSpawn"} {
		if n := nodeByKeySuffix(t, g, name); n.Root != analysis.RootEntry {
			t.Errorf("%s: root = %q, want %q", name, n.Root, analysis.RootEntry)
		}
	}
	if n := nodeByKeySuffix(t, g, "(*charmgo/internal/analysis/fixtures/dettaint.snap).Pup"); n.Root != analysis.RootPup {
		t.Errorf("snap.Pup: root = %q, want %q", n.Root, analysis.RootPup)
	}
	if n := nodeByKeySuffix(t, g, "dettaint.orphan"); n.Root != "" {
		t.Errorf("orphan: root = %q, want none (never address-taken, never scheduled)", n.Root)
	}
	if n := nodeByKeySuffix(t, g, "dettaint.init"); n.Root != analysis.RootInit {
		t.Errorf("init: root = %q, want %q", n.Root, analysis.RootInit)
	}

	// The closure handed to ctx.Defer roots itself even though its
	// enclosing function is unreachable.
	dh := nodeByKeySuffix(t, g, "dettaint.deferHelper")
	if dh.Root != "" {
		t.Errorf("deferHelper: root = %q, want none", dh.Root)
	}
	var lit *analysis.Node
	for _, e := range dh.Edges {
		if e.Kind == "closure" {
			lit = e.Callee
		}
	}
	if lit == nil {
		t.Fatalf("deferHelper has no closure edge to its Defer literal")
	}
	if lit.Root != analysis.RootCommit {
		t.Errorf("deferHelper's literal: root = %q, want %q", lit.Root, analysis.RootCommit)
	}
}

// TestScheduleRootThroughParsimEngine: the one parallel engine type is a
// schedule-root receiver, so a closure handed to (*parsim.Engine).At from
// optimistic-mode code (the specstate fixture's rearm) is rooted as a
// scheduled event body and taints what it calls.
func TestScheduleRootThroughParsimEngine(t *testing.T) {
	w, err := loadFixtures()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	g := w.graph
	rearm := nodeByKeySuffix(t, g, "specstate.rearm")
	if rearm.Root != "" {
		t.Errorf("rearm: root = %q, want none", rearm.Root)
	}
	var lit *analysis.Node
	for _, e := range rearm.Edges {
		if e.Kind == "closure" {
			lit = e.Callee
		}
	}
	if lit == nil {
		t.Fatalf("rearm has no closure edge to its At literal")
	}
	if lit.Root != analysis.RootSchedule {
		t.Errorf("rearm's literal: root = %q, want %q", lit.Root, analysis.RootSchedule)
	}
	if _, ok := g.Reach()[nodeByKeySuffix(t, g, "specstate.tock")]; !ok {
		t.Errorf("tock is unreachable; the scheduled closure should root it")
	}
}

// TestCallGraphReachability checks cross-package static edges and the
// chain rendering the analyzers attach to findings.
func TestCallGraphReachability(t *testing.T) {
	w, err := loadFixtures()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	g := w.graph

	onTick := nodeByKeySuffix(t, g, "dettaint.onTick")
	stepA := nodeByKeySuffix(t, g, "util.StepA")
	stepB := nodeByKeySuffix(t, g, "util.stepB")

	if e, ok := edgeTo(onTick, stepA); !ok {
		t.Errorf("missing edge onTick -> StepA (cross-package static call)")
	} else if e.Kind != "static" {
		t.Errorf("onTick -> StepA edge kind = %q, want static", e.Kind)
	}
	// stepB is declared *after* its caller in util.go; resolution of static
	// edges is deferred to pass 2 exactly so this edge exists.
	if _, ok := edgeTo(stepA, stepB); !ok {
		t.Errorf("missing edge StepA -> stepB (callee declared after caller)")
	}

	reach := g.Reach()
	if _, ok := reach[stepB]; !ok {
		t.Errorf("stepB not reachable; entry root should taint two calls down")
	}
	if _, ok := reach[nodeByKeySuffix(t, g, "dettaint.orphan")]; ok {
		t.Errorf("orphan is reachable; nothing calls or schedules it")
	}

	chain := g.Chain(reach, stepB)
	if len(chain) != 3 {
		t.Fatalf("chain to stepB = %v, want 3 hops", chain)
	}
	if !strings.Contains(chain[0], "onTick") || !strings.Contains(chain[0], "[entry method]") {
		t.Errorf("chain root %q should name onTick and its root kind", chain[0])
	}
	if !strings.Contains(chain[2], "stepB") {
		t.Errorf("chain leaf %q should name stepB", chain[2])
	}
}

// indirectEdges returns n's non-closure indirect edges.
func indirectEdges(n *analysis.Node) []analysis.Edge {
	var out []analysis.Edge
	for _, e := range n.Edges {
		if e.Kind == "indirect" {
			out = append(out, e)
		}
	}
	return out
}

// TestIndirectPruning pins def-use pruning of signature-indirect edges:
// the cmd/ driver idiom `run := func(){...}; run()` must produce a single
// edge to that literal instead of aliasing every same-signature function
// in the module, while every disqualifier — reassignment (including from
// inside a nested literal), address-taking, parameters, call results —
// keeps the conservative fan-out.
func TestIndirectPruning(t *testing.T) {
	w, err := loadFixtures()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	g := w.graph

	targetA := nodeByKeySuffix(t, g, "indirect.targetA")
	targetB := nodeByKeySuffix(t, g, "indirect.targetB")

	// Pruned: local bound once to a literal — one edge, to that literal.
	lit := nodeByKeySuffix(t, g, "indirect.prunedLocalLit")
	ind := indirectEdges(lit)
	if len(ind) != 1 {
		t.Fatalf("prunedLocalLit: %d indirect edges, want 1 (pruning off?)", len(ind))
	}
	var litChild *analysis.Node
	for _, e := range lit.Edges {
		if e.Kind == "closure" {
			litChild = e.Callee
		}
	}
	if litChild == nil || ind[0].Callee != litChild {
		t.Errorf("prunedLocalLit: indirect edge goes to %v, want its own literal %v", ind[0].Callee, litChild)
	}

	// Pruned: local bound once to a declared function.
	ref := nodeByKeySuffix(t, g, "indirect.prunedLocalRef")
	if ind := indirectEdges(ref); len(ind) != 1 || ind[0].Callee != targetA {
		t.Errorf("prunedLocalRef: indirect edges %v, want exactly [targetA]", ind)
	}
	if _, ok := edgeTo(ref, targetB); ok {
		t.Errorf("prunedLocalRef: spurious edge to targetB survived pruning")
	}

	// Pruned through capture: binding in the outer function, call in the
	// returned literal.
	capOuter := nodeByKeySuffix(t, g, "indirect.prunedCaptured")
	var capLit *analysis.Node
	for _, e := range capOuter.Edges {
		if e.Kind == "closure" {
			capLit = e.Callee
		}
	}
	if capLit == nil {
		t.Fatalf("prunedCaptured has no closure child")
	}
	if ind := indirectEdges(capLit); len(ind) != 1 || ind[0].Callee != targetA {
		t.Errorf("prunedCaptured literal: indirect edges %v, want exactly [targetA]", ind)
	}

	// Every disqualifier keeps the fan-out to both targets.
	for _, name := range []string{
		"indirect.reassigned",
		"indirect.nestedReassign",
		"indirect.addressTaken",
		"indirect.viaParam",
		"indirect.fromCall",
	} {
		n := nodeByKeySuffix(t, g, name)
		if _, ok := edgeTo(n, targetA); !ok {
			t.Errorf("%s: missing fan-out edge to targetA", name)
		}
		if _, ok := edgeTo(n, targetB); !ok {
			t.Errorf("%s: missing fan-out edge to targetB", name)
		}
	}
}

// TestCallGraphDeterminism rebuilds the graph and checks node order and
// edge counts are identical: analyzers iterate Nodes directly, so any map
// nondeterminism here would shuffle finding order run to run.
func TestCallGraphDeterminism(t *testing.T) {
	w, err := loadFixtures()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	rebuilt := analysis.NewGraph(w.all, nil)
	if len(rebuilt.Nodes) != len(w.graph.Nodes) {
		t.Fatalf("rebuild changed node count: %d vs %d", len(rebuilt.Nodes), len(w.graph.Nodes))
	}
	for i, n := range w.graph.Nodes {
		r := rebuilt.Nodes[i]
		if n.Key != r.Key {
			t.Fatalf("node %d: key %q vs %q", i, n.Key, r.Key)
		}
		if len(n.Edges) != len(r.Edges) {
			t.Errorf("node %s: edge count %d vs %d", n.Key, len(n.Edges), len(r.Edges))
		}
		for j := range n.Edges {
			if j < len(r.Edges) && n.Edges[j].Callee.Key != r.Edges[j].Callee.Key {
				t.Errorf("node %s edge %d: callee %q vs %q", n.Key, j, n.Edges[j].Callee.Key, r.Edges[j].Callee.Key)
			}
		}
	}
}
