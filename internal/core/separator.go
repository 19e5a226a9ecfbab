// Package core implements the paper's primary contribution: k-path
// separators (Definition 1) and the recursive decomposition tree built
// from them (Section 4).
//
// A separator is a sequence of phases P_0, P_1, ...; each phase is a union
// of paths that are shortest paths in the graph minus all earlier phases.
// Removing the whole separator leaves connected components of at most half
// the vertices. Strategies produce separators for specific graph classes:
//
//   - TreeCentroid: trees are 1-path separable (a center vertex).
//   - CenterBag: treewidth-w graphs are strongly (w+1)-path separable via
//     the center bag of a tree decomposition (Lemma 1, Theorem 7).
//   - Planar: planar embedded graphs via shortest-path-tree fundamental
//     cycles (Theorem 6(1), after Thorup and Lipton–Tarjan) — at most two
//     phases of two shortest paths each.
//   - Greedy: arbitrary graphs via shortest-path-tree centroid paths; the
//     number of paths used is the measured k.
//   - Auto: per-node dispatch among the above.
package core

import (
	"fmt"
	"math"

	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/shortest"
)

// Path is a path given by its vertex sequence. A single vertex is a valid
// (trivial) shortest path.
type Path struct {
	Vertices []int
}

// Len returns the number of vertices on the path.
func (p Path) Len() int { return len(p.Vertices) }

// Phase is a union of paths removed together; each must be a shortest path
// in the graph minus all earlier phases (Definition 1, property P1).
type Phase struct {
	Paths []Path
}

// Separator is a k-path separator: the sequence of phases (Definition 1).
type Separator struct {
	Phases []Phase
}

// NumPaths returns the total number of paths over all phases — the "k" of
// k-path separability for this separator (property P2).
func (s *Separator) NumPaths() int {
	total := 0
	for _, ph := range s.Phases {
		total += len(ph.Paths)
	}
	return total
}

// NumPhases returns the number of phases.
func (s *Separator) NumPhases() int { return len(s.Phases) }

// Vertices returns all separator vertices, deduplicated, in first-seen
// order.
func (s *Separator) Vertices() []int {
	seen := make(map[int]bool)
	var out []int
	for _, ph := range s.Phases {
		for _, p := range ph.Paths {
			for _, v := range p.Vertices {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// MaxPathDiameter returns the maximum weighted length of any separator
// path in g (used by the Note 2 small-world variant).
func (s *Separator) MaxPathDiameter(g *graph.Graph) float64 {
	var d float64
	for _, ph := range s.Phases {
		for _, p := range ph.Paths {
			if l, ok := shortest.PathLength(g, p.Vertices); ok && l > d {
				d = l
			}
		}
	}
	return d
}

// Input is what a Strategy consumes: a connected graph and, optionally, a
// planar embedding of it and a metrics registry.
type Input struct {
	G   *graph.Graph
	Rot *embed.Rotation
	// Metrics, when non-nil, receives the strategy's internal work
	// accounting (Dijkstra heap and relaxation counters).
	Metrics *obs.Registry
}

// Strategy computes a separator for a connected graph.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Separate returns a separator for the connected graph in.G satisfying
	// Definition 1. It must remove at least one vertex.
	Separate(in Input) (*Separator, error)
}

// ResidualPath is one separator path in the vertex IDs of its residual
// graph, with the prefix weight of every vertex along it: Pos[0] is 0
// and Pos[x] is Pos[x-1] plus the weight of the edge from Verts[x-1].
type ResidualPath struct {
	Verts []int
	Pos   []float64
}

// Residuals walks the phases of sep over g in order (Definition 1). For
// phase i it calls fn with the residual graph J_i, which is g minus the
// vertices of phases 0..i-1 induced in ascending vertex order (J.Orig
// maps J's IDs to g's), and with the phase's paths in J's IDs. It refuses
// an empty phase, an empty path, a path vertex that is out of range or
// was removed by an earlier phase, and consecutive path vertices that are
// not adjacent in J_i; it stops at the first error fn returns.
func Residuals(g *graph.Graph, sep *Separator, fn func(phase int, j *graph.Sub, paths []ResidualPath) error) error {
	// toJ[v] is v's ID in the current residual graph, or -1 once an
	// earlier phase removed it.
	toJ := make([]int, g.N())
	for i, ph := range sep.Phases {
		if len(ph.Paths) == 0 {
			return fmt.Errorf("core: phase %d has no paths", i)
		}
		keep := make([]int, 0, g.N())
		for v, jv := range toJ {
			if jv >= 0 {
				toJ[v] = len(keep)
				keep = append(keep, v)
			}
		}
		j := graph.Induced(g, keep)
		paths := make([]ResidualPath, len(ph.Paths))
		for pi, p := range ph.Paths {
			if len(p.Vertices) == 0 {
				return fmt.Errorf("core: phase %d path %d is empty", i, pi)
			}
			rp := ResidualPath{Verts: make([]int, len(p.Vertices)), Pos: make([]float64, len(p.Vertices))}
			for x, v := range p.Vertices {
				if v < 0 || v >= len(toJ) {
					return fmt.Errorf("core: phase %d path %d: vertex %d out of range", i, pi, v)
				}
				if toJ[v] < 0 {
					return fmt.Errorf("core: phase %d path %d: vertex %d already removed by an earlier phase", i, pi, v)
				}
				rp.Verts[x] = toJ[v]
				if x > 0 {
					w, ok := j.G.EdgeWeight(rp.Verts[x-1], rp.Verts[x])
					if !ok {
						return fmt.Errorf("core: phase %d path %d: %d-%d is not an edge", i, pi, p.Vertices[x-1], v)
					}
					rp.Pos[x] = rp.Pos[x-1] + w
				}
			}
			paths[pi] = rp
		}
		if err := fn(i, j, paths); err != nil {
			return err
		}
		for _, p := range ph.Paths {
			for _, v := range p.Vertices {
				toJ[v] = -1
			}
		}
	}
	return nil
}

// Certify verifies that sep is a valid k-path separator of g per
// Definition 1: phases are pairwise disjoint; every path of phase i is a
// shortest path in g minus phases j<i; and the connected components of g
// minus the separator have at most n/2 vertices. It is CertifyWeighted at
// unit weights: O(k · Dijkstra), and intended for tests and audits.
func Certify(g *graph.Graph, sep *Separator) error { return CertifyWeighted(g, nil, sep) }

// IsTree reports whether g is a tree (connected with n-1 edges).
func IsTree(g *graph.Graph) bool {
	return g.N() > 0 && g.M() == g.N()-1 && graph.IsConnected(g)
}

// treeCentroid returns a vertex of the tree g whose removal leaves
// components of at most half the total vertex weight (unit weights when
// weights is nil).
func treeCentroid(g *graph.Graph, weights []float64) int {
	n := g.N()
	total := graphWeight(n, weights)
	parent := make([]int, n)
	order := make([]int, 0, n)
	for i := range parent {
		parent[i] = -2
	}
	parent[0] = -1
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		for _, h := range g.Neighbors(v) {
			if parent[h.To] == -2 {
				parent[h.To] = v
				stack = append(stack, h.To)
			}
		}
	}
	sub := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		sub[v] += vertexWeight(weights, v)
		if parent[v] >= 0 {
			sub[parent[v]] += sub[v]
		}
	}
	// Descend from the root into the heavy child while one exists. The
	// stopping vertex v has all child subtrees <= total/2, and its up-side
	// is total - sub[v] < total/2 since we only ever step into subtrees
	// > total/2.
	v := 0
	for {
		next := -1
		for _, h := range g.Neighbors(v) {
			if parent[h.To] == v && sub[h.To] > total/2 {
				next = h.To
				break
			}
		}
		if next < 0 {
			return v
		}
		v = next
	}
}

// TreeCentroid separates trees with a single one-vertex path: trees are
// 1-path separable (Section 1.2).
type TreeCentroid struct{}

// Name implements Strategy.
func (TreeCentroid) Name() string { return "tree-centroid" }

// Separate implements Strategy. It fails if g is not a tree.
func (TreeCentroid) Separate(in Input) (*Separator, error) {
	if !IsTree(in.G) {
		return nil, fmt.Errorf("core: tree-centroid requires a tree, got n=%d m=%d", in.G.N(), in.G.M())
	}
	c := treeCentroid(in.G, nil)
	return &Separator{Phases: []Phase{{Paths: []Path{{Vertices: []int{c}}}}}}, nil
}

// singleVertexSeparator is the fallback for degenerate tiny graphs.
func singleVertexSeparator(v int) *Separator {
	return &Separator{Phases: []Phase{{Paths: []Path{{Vertices: []int{v}}}}}}
}

// balanceOf returns the size of the largest component of g after removing
// the given vertices.
func balanceOf(g *graph.Graph, removed []int) int {
	comps := graph.ComponentsAfterRemoval(g, removed)
	if len(comps) == 0 {
		return 0
	}
	return len(comps[0])
}

// log2Ceil returns ceil(log2(x)) for x >= 1.
func log2Ceil(x int) int {
	if x <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(x))))
}
