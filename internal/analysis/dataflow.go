package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// Reachability and chain reporting over the call graph.
//
// The interprocedural analyzers share one question: "is this function body
// reachable from an analysis root, and through which calls?" Reachability is
// a deterministic BFS from all roots at once, recording for every reached
// node the edge it was discovered through. Walking the parent pointers back
// yields the shortest entry-method→sink call chain a finding carries.
//
// The taint "lattice" is deliberately thin: each source kind (wall clock,
// map range, …) is detected in the body of one node, and a node is tainted
// iff it is reachable from a root — the powerset-of-kinds join collapses to
// per-kind reachability, computed once and shared.

// reachEdge records how a node was first reached: the predecessor node and
// the call site in the predecessor's body. Roots have from == nil.
type reachEdge struct {
	from *Node
	site token.Pos
	kind string
}

// bfs runs a deterministic breadth-first search from starts, following the
// graph's call edges, and returns the discovery-edge map. follow filters
// edges (nil follows all).
func (g *Graph) bfs(starts []*Node, follow func(from *Node, e Edge) bool) map[*Node]reachEdge {
	reach := make(map[*Node]reachEdge, len(g.Nodes))
	queue := make([]*Node, 0, len(starts))
	for _, s := range starts {
		if _, ok := reach[s]; ok {
			continue
		}
		reach[s] = reachEdge{}
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if follow != nil && !follow(n, e) {
				continue
			}
			if _, ok := reach[e.Callee]; ok {
				continue
			}
			reach[e.Callee] = reachEdge{from: n, site: e.Site, kind: e.Kind}
			queue = append(queue, e.Callee)
		}
	}
	return reach
}

// Reach computes (once) reachability from every root. The discovery order
// is deterministic: roots in node order, edges in body order.
func (g *Graph) Reach() map[*Node]reachEdge {
	if g.reach == nil {
		g.reach = g.bfs(g.Roots(), nil)
	}
	return g.reach
}

// Chain returns the call chain from the discovering root to n, inclusive,
// as display names. The first element names the root and its kind, e.g.
// "(pdes.*App).onEvent [entry method]".
func (g *Graph) Chain(reach map[*Node]reachEdge, n *Node) []string {
	var rev []*Node
	for cur := n; ; {
		rev = append(rev, cur)
		e, ok := reach[cur]
		if !ok || e.from == nil {
			break
		}
		cur = e.from
	}
	chain := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		name := rev[i].Name
		if i == len(rev)-1 && rev[i].Root != "" {
			name = fmt.Sprintf("%s [%s]", name, rev[i].Root)
		}
		chain = append(chain, name)
	}
	return chain
}

// PhaseReach computes (once) reachability restricted to phase-side code:
// starting from entry-method and PE-handler roots only, never entering the
// runtime packages (charm/des/parsim — the engine's own bookkeeping is not
// application phase code) and never crossing into commit/schedule closures,
// which run at commit time rather than during the phase.
func (g *Graph) PhaseReach() map[*Node]reachEdge {
	if g.phaseReach != nil {
		return g.phaseReach
	}
	var starts []*Node
	for _, n := range g.Nodes {
		if (n.Root == RootEntry || n.Root == RootPEH) && !isRuntimePkg(n.Pkg.Path) {
			starts = append(starts, n)
		}
	}
	g.phaseReach = g.bfs(starts, func(_ *Node, e Edge) bool {
		c := e.Callee
		if c.Root == RootCommit || c.Root == RootSchedule {
			return false
		}
		return !isRuntimePkg(c.Pkg.Path)
	})
	return g.phaseReach
}

// isRuntimePkg reports whether path is one of the runtime's own packages,
// whose internals are exempt from the phase-purity discipline (they *are*
// the mechanism that discipline exists to protect).
func isRuntimePkg(path string) bool {
	for _, p := range []string{
		"charmgo/internal/charm",
		"charmgo/internal/des",
		"charmgo/internal/parsim",
	} {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
