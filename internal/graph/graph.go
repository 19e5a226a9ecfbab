// Package graph provides the weighted undirected graph representation,
// subgraph views, connected components, and the synthetic graph generators
// used throughout the path-separator library.
//
// Vertices are dense integers 0..N()-1. Edges are undirected with
// non-negative float64 weights. The zero value of Builder is ready to use.
package graph

import (
	"fmt"
	"sort"
)

// Half is one directed half of an undirected edge: the endpoint it leads to
// and the edge weight.
type Half struct {
	To int
	W  float64
}

// Graph is an immutable weighted undirected graph. Build one with a Builder
// or a generator. Methods never mutate the graph; algorithms that "remove"
// vertices build induced subgraphs instead.
type Graph struct {
	adj   [][]Half
	edges int
}

// New returns an empty graph with n isolated vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]Half, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.edges }

// Neighbors returns the adjacency list of v. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Neighbors(v int) []Half { return g.adj[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// HasEdge reports whether an edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return false
	}
	a, b := u, v
	if g.Degree(a) > g.Degree(b) {
		a, b = b, a
	}
	for _, h := range g.adj[a] {
		if h.To == b {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {u,v} and whether it exists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return 0, false
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return h.W, true
		}
	}
	return 0, false
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for v := range g.adj {
		for _, h := range g.adj[v] {
			if h.To > v {
				s += h.W
			}
		}
	}
	return s
}

// MinEdgeWeight returns the smallest edge weight, or 0 for an edgeless graph.
func (g *Graph) MinEdgeWeight() (float64, bool) {
	first := true
	var best float64
	for v := range g.adj {
		for _, h := range g.adj[v] {
			if first || h.W < best {
				best = h.W
				first = false
			}
		}
	}
	return best, !first
}

// MaxEdgeWeight returns the largest edge weight, or 0 for an edgeless graph.
func (g *Graph) MaxEdgeWeight() (float64, bool) {
	first := true
	var best float64
	for v := range g.adj {
		for _, h := range g.adj[v] {
			if first || h.W > best {
				best = h.W
				first = false
			}
		}
	}
	return best, !first
}

// Edges calls fn for every undirected edge exactly once, with u < v.
func (g *Graph) Edges(fn func(u, v int, w float64)) {
	for u := range g.adj {
		for _, h := range g.adj[u] {
			if h.To > u {
				fn(u, h.To, h.W)
			}
		}
	}
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

// Builder accumulates edges and produces an immutable Graph. Vertices are
// created on demand. The zero value is ready to use and keeps parallel
// edges; NewBuilder drops them, keeping the first weight.
type Builder struct {
	n    int
	us   []int
	vs   []int
	ws   []float64
	seen map[[2]int]int // edge -> index into us/vs/ws; nil keeps parallel edges
}

// NewBuilder returns a Builder pre-sized for n vertices that silently
// deduplicates repeated edges (keeping the first weight).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, seen: make(map[[2]int]int)}
}

// EnsureVertex grows the vertex set to include v.
func (b *Builder) EnsureVertex(v int) {
	if v >= b.n {
		b.n = v + 1
	}
}

// AddEdge records the undirected edge {u,v} with weight w. Self-loops are
// ignored. Negative weights are clamped to 0. Duplicate edges keep the
// first weight when the builder deduplicates (one made by NewBuilder).
func (b *Builder) AddEdge(u, v int, w float64) {
	if u == v {
		return
	}
	if w < 0 {
		w = 0
	}
	b.EnsureVertex(u)
	b.EnsureVertex(v)
	if b.seen != nil {
		key := [2]int{min(u, v), max(u, v)}
		if _, ok := b.seen[key]; ok {
			return
		}
		b.seen[key] = len(b.us)
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
}

// NumEdges returns the number of edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.us) }

// Build produces the immutable Graph. The builder may be reused afterwards,
// but further AddEdge calls do not affect the built graph.
func (b *Builder) Build() *Graph {
	g := New(b.n)
	deg := make([]int, b.n)
	for i := range b.us {
		deg[b.us[i]]++
		deg[b.vs[i]]++
	}
	for v := 0; v < b.n; v++ {
		g.adj[v] = make([]Half, 0, deg[v])
	}
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		g.adj[u] = append(g.adj[u], Half{To: v, W: w})
		g.adj[v] = append(g.adj[v], Half{To: u, W: w})
	}
	g.edges = len(b.us)
	return g
}

// Reweighted returns a copy of g with every edge weight replaced by
// fn(u, v, oldWeight), with u < v.
func (g *Graph) Reweighted(fn func(u, v int, w float64) float64) *Graph {
	b := NewBuilder(g.N())
	g.Edges(func(u, v int, w float64) { b.AddEdge(u, v, fn(u, v, w)) })
	return b.Build()
}

// Unweighted returns a copy of g with all edge weights set to 1.
func (g *Graph) Unweighted() *Graph {
	return g.Reweighted(func(_, _ int, _ float64) float64 { return 1 })
}

// SortedNeighbors returns the neighbor IDs of v in increasing order
// (a fresh slice).
func (g *Graph) SortedNeighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for _, h := range g.adj[v] {
		out = append(out, h.To)
	}
	sort.Ints(out)
	return out
}
