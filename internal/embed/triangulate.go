package embed

import (
	"errors"
	"fmt"
	"slices"
)

// Tri is a triangulation of an embedded connected graph: the original
// ("real") edges plus chord edges added so that every face is a triangle.
// Chords may be parallel to existing edges; edges are therefore tracked by
// ID rather than endpoint pair.
type Tri struct {
	N     int
	EU    []int // edge endpoints by edge ID
	EV    []int
	RealM int // edge IDs < RealM are edges of the original graph,
	// in graph.Edges enumeration order
	Faces    [][3]int // vertex triples, cyclic
	FaceEdge [][3]int // FaceEdge[f][i] joins Faces[f][i] and Faces[f][(i+1)%3]
}

// EdgeID returns the edge ID of the real edge {u,v}, or -1.
// O(RealM); intended for tests.
func (t *Tri) EdgeID(u, v int) int {
	for e := 0; e < t.RealM; e++ {
		if (t.EU[e] == u && t.EV[e] == v) || (t.EU[e] == v && t.EV[e] == u) {
			return e
		}
	}
	return -1
}

// Triangulate adds chords to every face of the embedding until all faces
// are triangles, using ear cuts on the face walks. The input graph must be
// connected with at least 3 vertices and at least 2 edges.
//
// The returned triangulation can contain parallel chord edges but no
// self-loops, and every edge ID lies on exactly two faces.
func Triangulate(r *Rotation) (*Tri, error) {
	g := r.G
	if g.N() < 3 {
		return nil, fmt.Errorf("embed: cannot triangulate %d-vertex graph", g.N())
	}
	h, err := r.buildHalfEdges()
	if err != nil {
		return nil, err
	}
	// A walk of m half-edges becomes m-2 triangles through m-3 chords, so
	// every output is allocated once at its final size.
	walks := h.faceWalks()
	faces := 2*h.m - 2*len(walks)
	edges := h.m + 2*h.m - 3*len(walks)
	t := &Tri{
		N:        g.N(),
		RealM:    h.m,
		EU:       append(make([]int, 0, edges), h.eu...),
		EV:       append(make([]int, 0, edges), h.ev...),
		Faces:    make([][3]int, 0, faces),
		FaceEdge: make([][3]int, 0, faces),
	}

	addEdge := func(u, v int) int {
		t.EU = append(t.EU, u)
		t.EV = append(t.EV, v)
		return len(t.EU) - 1
	}
	addFace := func(a, b, c, eab, ebc, eca int) {
		t.Faces = append(t.Faces, [3]int{a, b, c})
		t.FaceEdge = append(t.FaceEdge, [3]int{eab, ebc, eca})
	}

	for _, walk := range walks {
		// Working representation: ws[i] is a vertex, es[i] is the edge ID
		// from ws[i] to ws[(i+1)%len].
		m := len(walk)
		if m < 3 {
			return nil, fmt.Errorf("embed: face walk of length %d (graph must be connected with >2 vertices)", m)
		}
		ws := make([]int, m)
		es := make([]int, m)
		for i, he := range walk {
			ws[i] = h.tail(he)
			es[i] = he / 2
		}
		for len(ws) > 3 {
			m = len(ws)
			ear := -1
			for i := 0; i < m; i++ {
				prev := (i - 1 + m) % m
				next := (i + 1) % m
				if ws[prev] != ws[next] {
					ear = i
					break
				}
			}
			if ear < 0 {
				return nil, errors.New("embed: face walk alternates between two vertices; graph too degenerate to triangulate")
			}
			prev := (ear - 1 + m) % m
			next := (ear + 1) % m
			chord := addEdge(ws[prev], ws[next])
			addFace(ws[prev], ws[ear], ws[next], es[prev], es[ear], chord)
			// Cut the ear: ws[ear] leaves the walk; the chord now joins
			// ws[prev] to ws[next].
			es[prev] = chord
			ws = append(ws[:ear], ws[ear+1:]...)
			es = append(es[:ear], es[ear+1:]...)
		}
		addFace(ws[0], ws[1], ws[2], es[0], es[1], es[2])
	}

	// Sanity: every edge on exactly two faces.
	cnt := make([]int, len(t.EU))
	for _, fe := range t.FaceEdge {
		for _, e := range fe {
			cnt[e]++
		}
	}
	for e, c := range cnt {
		if c != 2 {
			return nil, fmt.Errorf("embed: edge %d on %d faces after triangulation", e, c)
		}
	}
	return t, nil
}

// M returns the total number of edges (real + chords).
func (t *Tri) M() int { return len(t.EU) }

// DualTree computes, for a spanning tree of the (real) graph given by
// isTreeEdge over real edge IDs, the rooted dual tree over faces linked by
// NON-tree edge IDs, rooted at face 0. It returns parent face, the edge ID
// connecting each face to its parent (-1 for the root), and a post-order
// of faces. By the interdigitating-trees property this always spans all
// faces when the primal tree spans the graph.
func (t *Tri) DualTree(isTreeEdge []bool) (parent []int, parentEdge []int, postorder []int, err error) {
	nf := len(t.Faces)
	// edge -> faces (exactly two each).
	faceOf := make([][2]int, t.M())
	fill := make([]int, t.M())
	for f, fe := range t.FaceEdge {
		for _, e := range fe {
			faceOf[e][fill[e]] = f
			fill[e]++
		}
	}
	parent = make([]int, nf)
	parentEdge = make([]int, nf)
	for i := range parent {
		parent[i] = -2 // unvisited
		parentEdge[i] = -1
	}
	parent[0] = -1
	// Each face enters the stack once, when it gets its parent.
	stack := append(make([]int, 0, nf), 0)
	order := make([]int, 0, nf)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, f)
		for _, e := range t.FaceEdge[f] {
			if e < t.RealM && isTreeEdge[e] {
				continue
			}
			var g int
			if faceOf[e][0] == f {
				g = faceOf[e][1]
			} else {
				g = faceOf[e][0]
			}
			if g == f {
				// Both sides of e are the same face: skip (cannot happen in
				// a triangulation where the primal tree spans).
				continue
			}
			if parent[g] == -2 {
				parent[g] = f
				parentEdge[g] = e
				stack = append(stack, g)
			}
		}
	}
	for f := 0; f < nf; f++ {
		if parent[f] == -2 {
			return nil, nil, nil, fmt.Errorf("embed: dual over non-tree edges does not span faces (face %d unreached)", f)
		}
	}
	// Reverse preorder of a DFS is a valid order for bottom-up sweeps only
	// for trees; compute a true postorder by sorting children after parents.
	// Since `order` is a DFS preorder, its reverse visits children before
	// parents.
	slices.Reverse(order)
	return parent, parentEdge, order, nil
}
