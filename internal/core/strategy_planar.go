package core

import (
	"fmt"
	"math/bits"

	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/shortest"
)

// Planar separates embedded planar graphs via Lipton–Tarjan fundamental
// cycles of a shortest-path tree: each phase removes the two monotone
// root paths of the best-balanced fundamental cycle in a triangulation of
// the current largest component. One application leaves components of at
// most 2n/3 vertices, so at most two phases (four shortest paths) reach
// the n/2 bound. This is the sequential-phase counterpart of Thorup's
// strong 3-path separator for planar graphs (Theorem 6(1)).
type Planar struct{}

// Name implements Strategy.
func (Planar) Name() string { return "planar-cycle" }

// Separate implements Strategy. It requires in.Rot to be a valid embedding
// of in.G.
func (Planar) Separate(in Input) (*Separator, error) {
	g := in.G
	n := g.N()
	if in.Rot == nil {
		return nil, fmt.Errorf("core: planar strategy requires an embedding")
	}
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if n <= 2 {
		return singleVertexSeparator(0), nil
	}
	col := shortest.NewCollector(in.Metrics)
	sep := &Separator{}
	removed := make([]int, 0, 16)
	// Two LT phases suffice; allow slack for degenerate tiny components.
	const maxPhases = 32
	for iter := 0; iter < maxPhases; iter++ {
		comps := graph.ComponentsAfterRemoval(g, removed)
		if len(comps) == 0 || len(comps[0]) <= n/2 {
			return sep, nil
		}
		sub := graph.Induced(g, comps[0])
		j := sub.G
		var paths [][]int
		if j.N() <= 3 || j.M() < 3 {
			paths = [][]int{{0}}
		} else {
			rot := in.Rot.Restrict(sub)
			var err error
			paths, err = fundamentalCycleSeparator(j, rot, col)
			if err != nil {
				return nil, fmt.Errorf("core: planar phase %d: %w", iter, err)
			}
		}
		phase := Phase{}
		for _, p := range paths {
			lifted := make([]int, len(p))
			for i, v := range p {
				lifted[i] = sub.Orig[v]
			}
			phase.Paths = append(phase.Paths, Path{Vertices: lifted})
			removed = append(removed, lifted...)
		}
		sep.Phases = append(sep.Phases, phase)
	}
	return nil, fmt.Errorf("core: planar strategy exceeded %d phases", maxPhases)
}

// fundamentalCycleSeparator returns one or two monotone shortest-path-tree
// paths whose union is the vertex set of the best-balanced fundamental
// cycle of a triangulation of (j, rot). By Lipton–Tarjan, the largest
// remaining component has at most 2n/3 vertices.
func fundamentalCycleSeparator(j *graph.Graph, rot *embed.Rotation, col *shortest.Collector) ([][]int, error) {
	n := j.N()
	tri, err := embed.Triangulate(rot)
	if err != nil {
		return nil, err
	}
	t := shortest.Dijkstra(j, 0)
	col.Record(t)
	// Tree-edge flags over the real edge IDs (graph.Edges enumeration order,
	// matching embed.Triangulate): an edge is a tree edge when one end is
	// the other's parent. j is simple, being built by graph.Induced.
	isTree := make([]bool, tri.RealM)
	id := 0
	j.Edges(func(u, v int, _ float64) {
		isTree[id] = t.Parent[v] == u || t.Parent[u] == v
		id++
	})
	parentFace, parentEdge, post, err := tri.DualTree(isTree)
	if err != nil {
		return nil, err
	}
	// Subtree face counts.
	subFaces := make([]int, len(tri.Faces))
	for _, f := range post {
		subFaces[f]++
		if p := parentFace[f]; p >= 0 {
			subFaces[p] += subFaces[f]
		}
	}
	l := newLCA(t.Parent, t.Hops, n)
	bestEdge, bestCost := -1, n+1
	var bestLCA int
	for f := 1; f < len(tri.Faces); f++ {
		e := parentEdge[f]
		u, v := tri.EU[e], tri.EV[e]
		a := l.query(u, v)
		c := t.Hops[u] + t.Hops[v] - 2*t.Hops[a] + 1
		fin := subFaces[f]
		if (fin-c)%2 != 0 {
			return nil, fmt.Errorf("core: parity violation in cycle counting (F_in=%d, c=%d)", fin, c)
		}
		vin := 1 + (fin-c)/2
		vout := n - vin - c
		cost := max(vin, vout)
		if cost < bestCost {
			bestCost = cost
			bestEdge = e
			bestLCA = a
		}
	}
	if bestEdge < 0 {
		// No non-tree edges: j is a tree; single-vertex centroid.
		return [][]int{{treeCentroid(j, nil)}}, nil
	}
	u, v := tri.EU[bestEdge], tri.EV[bestEdge]
	a := bestLCA
	pu := t.TreePath(a, u) // a..u, a monotone shortest path
	pv := t.TreePath(a, v)
	if pu == nil || pv == nil {
		return nil, fmt.Errorf("core: LCA path extraction failed")
	}
	if len(pv) > 1 {
		return [][]int{pu, pv}, nil
	}
	return [][]int{pu}, nil
}

// lca answers lowest-common-ancestor queries on a rooted forest given by
// parent pointers, via binary lifting.
type lca struct {
	up    [][]int // up[k][v] = 2^k-th ancestor, -1 beyond root
	depth []int
}

func newLCA(parent, depth []int, n int) *lca {
	levels := 1
	if n > 1 {
		levels = bits.Len(uint(n))
	}
	up := make([][]int, levels)
	up[0] = make([]int, n)
	copy(up[0], parent)
	for k := 1; k < levels; k++ {
		up[k] = make([]int, n)
		for v := 0; v < n; v++ {
			mid := up[k-1][v]
			if mid < 0 {
				up[k][v] = -1
			} else {
				up[k][v] = up[k-1][mid]
			}
		}
	}
	d := make([]int, n)
	copy(d, depth)
	return &lca{up: up, depth: d}
}

func (l *lca) ancestor(v, steps int) int {
	for k := 0; steps > 0 && v >= 0; k++ {
		if steps&1 == 1 {
			v = l.up[k][v]
		}
		steps >>= 1
	}
	return v
}

func (l *lca) query(u, v int) int {
	if l.depth[u] < l.depth[v] {
		u, v = v, u
	}
	u = l.ancestor(u, l.depth[u]-l.depth[v])
	if u == v {
		return u
	}
	for k := len(l.up) - 1; k >= 0; k-- {
		if l.up[k][u] != l.up[k][v] {
			u = l.up[k][u]
			v = l.up[k][v]
		}
	}
	return l.up[0][u]
}
