package graph

import (
	"cmp"
	"slices"
)

// Sub is an induced subgraph together with the mapping back to the vertex
// IDs of the graph it was taken from.
type Sub struct {
	G *Graph
	// Orig maps a Sub vertex ID to the vertex ID in the parent graph.
	Orig []int
}

// ToParent translates a Sub vertex ID to the parent graph's ID.
func (s *Sub) ToParent(v int) int { return s.Orig[v] }

// Induced returns the subgraph of g induced by the given vertices, with the
// origin map. Duplicate and out-of-range vertices are ignored. Vertex order
// in the Sub follows the input order of the first occurrence.
//
// The result is exactly what feeding the edges to a NewBuilder would give:
// edges are taken by lower Sub endpoint, then in g's adjacency order; a
// parallel edge keeps its first weight; and every adjacency list is in
// edge order. Dijkstra tie-breaking and the decomposition depend on that
// order. Weights are copied unchanged, since every Graph's weights were
// already clamped by a Builder. No map is involved: a dense index over the
// span of the input IDs finds Sub IDs, a per-vertex stamp drops parallel
// edges, and one backing array holds all adjacency lists.
func Induced(g *Graph, vertices []int) *Sub {
	lo, hi := g.N(), -1
	for _, v := range vertices {
		if v >= 0 && v < g.N() {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	orig := make([]int, 0, len(vertices))
	if hi < 0 {
		return &Sub{G: New(0), Orig: orig}
	}
	// idx[v-lo] is the Sub ID of v plus one, or 0 when v is not in the Sub.
	// Sizing it to the span rather than g.N() keeps a small vertex set of a
	// large graph cheap.
	idx := make([]int32, hi-lo+1)
	sumDeg := 0
	for _, v := range vertices {
		if v < 0 || v >= g.N() || idx[v-lo] != 0 {
			continue
		}
		orig = append(orig, v)
		idx[v-lo] = int32(len(orig))
		sumDeg += len(g.adj[v])
	}

	// Every edge {sv, sw} with sw > sv is met while scanning sv, so
	// stamping sw with sv+1 catches every later parallel copy of it.
	type edge struct {
		u, v int32
		w    float64
	}
	n := len(orig)
	edges := make([]edge, 0, sumDeg/2)
	deg := make([]int32, n)
	stamp := make([]int32, n)
	for sv, ov := range orig {
		for _, h := range g.adj[ov] {
			x := h.To - lo
			if x < 0 || x >= len(idx) {
				continue
			}
			sw := idx[x] - 1
			if int(sw) <= sv || stamp[sw] == int32(sv)+1 {
				continue
			}
			stamp[sw] = int32(sv) + 1
			edges = append(edges, edge{int32(sv), sw, h.W})
			deg[sv]++
			deg[sw]++
		}
	}

	halves := make([]Half, 2*len(edges))
	adj := make([][]Half, n)
	off := 0
	for v, d := range deg {
		adj[v] = halves[off : off : off+int(d)]
		off += int(d)
	}
	for _, e := range edges {
		adj[e.u] = append(adj[e.u], Half{To: int(e.v), W: e.w})
		adj[e.v] = append(adj[e.v], Half{To: int(e.u), W: e.w})
	}
	return &Sub{G: &Graph{adj: adj, edges: len(edges)}, Orig: orig}
}

// ConnectedComponents returns the vertex sets of the connected components of
// g, largest first.
func ConnectedComponents(g *Graph) [][]int {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	stack := make([]int, 0, 64)
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(comps)
		comp[s] = id
		stack = append(stack[:0], s)
		var members []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, v)
			for _, h := range g.Neighbors(v) {
				if comp[h.To] < 0 {
					comp[h.To] = id
					stack = append(stack, h.To)
				}
			}
		}
		comps = append(comps, members)
	}
	largestFirst(comps)
	return comps
}

// IsConnected reports whether g is connected. The empty graph counts as
// connected.
func IsConnected(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	return len(ConnectedComponents(g)) == 1
}

// ComponentsAfterRemoval returns the connected components of g minus the
// removed vertex set, as vertex lists in g's numbering, largest first.
//
// Member order is that of ConnectedComponents on the subgraph Induced
// builds from the kept vertices in ascending order, whose adjacency
// lists hold a vertex's lower neighbours ascending, then its higher ones
// in g's order. The search walks g itself under a removed mask and
// pushes neighbours in that order, so no subgraph is built; on a graph
// Induced built, the lower neighbours are already in order.
func ComponentsAfterRemoval(g *Graph, removed []int) [][]int {
	const (
		unseen = -1
		gone   = -2
	)
	n := g.N()
	// comp[v] is v's component, unseen until the search reaches v, or
	// gone for a removed vertex.
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = unseen
	}
	kept := n
	for _, v := range removed {
		if v >= 0 && v < n && comp[v] != gone {
			comp[v] = gone
			kept--
		}
	}
	// The components partition the kept vertices, so their member lists
	// share one array; each is capped at its end, so that an append to
	// one cannot reach the next.
	members := make([]int, 0, kept)
	var comps [][]int
	stack := make([]int, 0, 64)
	for s := 0; s < n; s++ {
		if comp[s] != unseen {
			continue
		}
		id := int32(len(comps))
		comp[s] = id
		stack = append(stack[:0], s)
		start := len(members)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, v)
			lower := len(stack)
			for _, h := range g.adj[v] {
				if h.To < v && comp[h.To] == unseen {
					comp[h.To] = id
					stack = append(stack, h.To)
				}
			}
			slices.Sort(stack[lower:])
			for _, h := range g.adj[v] {
				if h.To > v && comp[h.To] == unseen {
					comp[h.To] = id
					stack = append(stack, h.To)
				}
			}
		}
		comps = append(comps, members[start:len(members):len(members)])
	}
	largestFirst(comps)
	return comps
}

// largestFirst orders components largest first, keeping the order they
// were found in among equal sizes.
func largestFirst(comps [][]int) {
	slices.SortStableFunc(comps, func(a, b []int) int { return cmp.Compare(len(b), len(a)) })
}
