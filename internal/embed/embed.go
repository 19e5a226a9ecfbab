// Package embed provides combinatorial embeddings (rotation systems) of
// planar graphs, face traversal, Euler-formula validation, restriction to
// induced subgraphs, and triangulation — the substrate for the planar
// fundamental-cycle path separator (Theorem 6(1) of the paper, after
// Thorup and Lipton–Tarjan).
//
// An embedding is carried as the cyclic order of neighbors around each
// vertex. Faces are traced with the standard half-edge "next" rule. A
// vortex-path (Definition 2 of the paper, Fig. 1) degenerates, for a graph
// embedded with no vortices, to a plain surface path; this package is the
// vortex-free instantiation the implementable graph classes need.
package embed

import (
	"errors"
	"fmt"
	"slices"

	"pathsep/internal/graph"
)

// Rotation is a combinatorial embedding: Order[v] lists the neighbors of v
// in cyclic (say counterclockwise) order. It must contain exactly the
// neighbor set of v in G.
type Rotation struct {
	G     *graph.Graph
	Order [][]int
}

// halfEdges builds the half-edge structures used for face traversal.
// Edge IDs follow G.Edges enumeration order; half-edge 2e is u->v (u<v),
// half-edge 2e+1 is v->u.
type halfEdges struct {
	eu, ev []int   // edge endpoints, eu < ev
	next   []int   // next half-edge on the same face
	m      int     // number of edges
	rotv   [][]int // outgoing half-edge IDs per vertex, in rotation order
}

func (r *Rotation) buildHalfEdges() (*halfEdges, error) {
	g := r.G
	n, m := g.N(), g.M()
	h := &halfEdges{eu: make([]int, 0, m), ev: make([]int, 0, m), rotv: make([][]int, n)}
	// Edge IDs follow G.Edges: v's adjacency slot toward a higher w opens
	// the next edge e, whose half-edges are 2e (v->w) and 2e+1 (w->v). The
	// edge then waits in w's bucket, bucket[start[w]:start[w+1]], until the
	// scan reaches w.
	start := make([]int, n+1)
	for v := 0; v < n; v++ {
		lower := 0
		for _, x := range g.Neighbors(v) {
			if x.To < v {
				lower++
			}
		}
		start[v+1] = start[v] + lower
	}
	bucket := make([]int, start[n])
	fill := slices.Clone(start[:n])
	// While the scan is at v, out[w] is the half-edge from v to its
	// neighbour w, and mark[w] is 2v+1 for a neighbour w, 2v+2 once v's
	// rotation has listed it; both hold older vertices' values elsewhere.
	out := make([]int, n)
	mark := make([]int, n)
	pos := make([]int, 2*m) // pos[halfedge] = index in rotv[tail]
	for v := 0; v < n; v++ {
		for _, e := range bucket[start[v]:start[v+1]] {
			out[h.eu[e]] = 2*e + 1
		}
		for _, x := range g.Neighbors(v) {
			if x.To > v {
				bucket[fill[x.To]] = h.m
				fill[x.To]++
				out[x.To] = 2 * h.m
				h.eu = append(h.eu, v)
				h.ev = append(h.ev, x.To)
				h.m++
			}
			mark[x.To] = 2*v + 1
		}
		if len(r.Order[v]) != g.Degree(v) {
			return nil, fmt.Errorf("embed: rotation at %d has %d entries, degree is %d", v, len(r.Order[v]), g.Degree(v))
		}
		h.rotv[v] = make([]int, len(r.Order[v]))
		for i, w := range r.Order[v] {
			if w < 0 || w >= n || mark[w] < 2*v+1 {
				return nil, fmt.Errorf("embed: rotation at %d lists non-neighbor %d", v, w)
			}
			if mark[w] == 2*v+2 {
				return nil, fmt.Errorf("embed: rotation at %d repeats neighbor %d", v, w)
			}
			mark[w] = 2*v + 2
			h.rotv[v][i] = out[w]
			pos[out[w]] = i
		}
	}
	// next(h): for h = u->v, take reverse(h) = v->u, and advance one step in
	// the rotation at v.
	h.next = make([]int, 2*h.m)
	for he := 0; he < 2*h.m; he++ {
		rev := he ^ 1
		v := h.tail(rev) // head of he
		i := pos[rev]
		h.next[he] = h.rotv[v][(i+1)%len(h.rotv[v])]
	}
	return h, nil
}

func (h *halfEdges) tail(he int) int {
	if he&1 == 0 {
		return h.eu[he/2]
	}
	return h.ev[he/2]
}

func (h *halfEdges) head(he int) int { return h.tail(he ^ 1) }

// Faces returns the face boundary walks of the embedding as vertex
// sequences (each closed walk listed once, starting vertex arbitrary).
func (r *Rotation) Faces() ([][]int, error) {
	h, err := r.buildHalfEdges()
	if err != nil {
		return nil, err
	}
	walks := h.faceWalks()
	out := make([][]int, len(walks))
	for i, w := range walks {
		vs := make([]int, len(w))
		for j, he := range w {
			vs[j] = h.tail(he)
		}
		out[i] = vs
	}
	return out, nil
}

// faceWalks returns faces as half-edge sequences.
func (h *halfEdges) faceWalks() [][]int {
	visited := make([]bool, 2*h.m)
	var walks [][]int
	for start := 0; start < 2*h.m; start++ {
		if visited[start] {
			continue
		}
		var walk []int
		he := start
		for !visited[he] {
			visited[he] = true
			walk = append(walk, he)
			he = h.next[he]
		}
		walks = append(walks, walk)
	}
	return walks
}

// Validate checks that the rotation is a well-formed embedding of G and
// that every connected component is planar (Euler genus 0).
func (r *Rotation) Validate() error {
	if r.G == nil {
		return errors.New("embed: nil graph")
	}
	if len(r.Order) != r.G.N() {
		return fmt.Errorf("embed: rotation has %d vertices, graph has %d", len(r.Order), r.G.N())
	}
	h, err := r.buildHalfEdges()
	if err != nil {
		return err
	}
	walks := h.faceWalks()
	// Per-component Euler check: V - E + F = 2.
	comps := graph.ConnectedComponents(r.G)
	compOf := make([]int, r.G.N())
	for ci, c := range comps {
		for _, v := range c {
			compOf[v] = ci
		}
	}
	facesPer := make([]int, len(comps))
	for _, w := range walks {
		facesPer[compOf[h.tail(w[0])]]++
	}
	edgesPer := make([]int, len(comps))
	r.G.Edges(func(u, _ int, _ float64) { edgesPer[compOf[u]]++ })
	for ci, c := range comps {
		if len(c) == 1 {
			continue // isolated vertex: trivially planar
		}
		if got := len(c) - edgesPer[ci] + facesPer[ci]; got != 2 {
			return fmt.Errorf("embed: component %d violates Euler formula: V-E+F = %d-%d+%d = %d (genus %d)",
				ci, len(c), edgesPer[ci], facesPer[ci], got, 2-got)
		}
	}
	return nil
}

// Restrict produces the rotation system of an induced subgraph: each
// vertex keeps its cyclic order filtered to surviving neighbors. The
// result embeds every component of the subgraph in the plane.
func (r *Rotation) Restrict(sub *graph.Sub) *Rotation {
	// inSub[v] is the sub ID of r's vertex v plus one, 0 when v is not in sub.
	inSub := make([]int32, r.G.N())
	for sv, ov := range sub.Orig {
		inSub[ov] = int32(sv) + 1
	}
	order := make([][]int, len(sub.Orig))
	for sv, ov := range sub.Orig {
		for _, w := range r.Order[ov] {
			if sw := inSub[w]; sw != 0 {
				order[sv] = append(order[sv], int(sw)-1)
			}
		}
	}
	return &Rotation{G: sub.G, Order: order}
}

// IsPlanar reports whether g has a planar embedding, via Planarize.
func IsPlanar(g *graph.Graph) bool {
	_, err := Planarize(g)
	return err == nil
}
