package embed

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pathsep/internal/graph"
)

// buildHalfEdgesRef is buildHalfEdges over maps: an edge-ID map keyed by
// endpoint pair and a seen set per vertex. It is the reference the
// slot-indexed construction must reproduce: the same edge IDs, rotation
// lists and face links, and the same error text.
func (r *Rotation) buildHalfEdgesRef() (*halfEdges, error) {
	g := r.G
	h := &halfEdges{}
	type key [2]int
	idOf := make(map[key]int, g.M())
	g.Edges(func(u, v int, _ float64) {
		idOf[key{u, v}] = h.m
		h.eu = append(h.eu, u)
		h.ev = append(h.ev, v)
		h.m++
	})
	out := func(v, w int) (int, bool) {
		if v < w {
			id, ok := idOf[key{v, w}]
			return 2 * id, ok
		}
		id, ok := idOf[key{w, v}]
		return 2*id + 1, ok
	}
	h.rotv = make([][]int, g.N())
	pos := make([]int, 2*h.m)
	for v := 0; v < g.N(); v++ {
		if len(r.Order[v]) != g.Degree(v) {
			return nil, fmt.Errorf("embed: rotation at %d has %d entries, degree is %d", v, len(r.Order[v]), g.Degree(v))
		}
		seen := make(map[int]bool, len(r.Order[v]))
		h.rotv[v] = make([]int, len(r.Order[v]))
		for i, w := range r.Order[v] {
			he, ok := out(v, w)
			if !ok {
				return nil, fmt.Errorf("embed: rotation at %d lists non-neighbor %d", v, w)
			}
			if seen[w] {
				return nil, fmt.Errorf("embed: rotation at %d repeats neighbor %d", v, w)
			}
			seen[w] = true
			h.rotv[v][i] = he
			pos[he] = i
		}
	}
	h.next = make([]int, 2*h.m)
	for he := 0; he < 2*h.m; he++ {
		rev := he ^ 1
		v := h.tail(rev)
		h.next[he] = h.rotv[v][(pos[rev]+1)%len(h.rotv[v])]
	}
	return h, nil
}

// halfEdgesDiff describes the first difference between two half-edge
// structures, or returns "" when their edges, rotation lists, face
// links and face walks agree.
func halfEdgesDiff(got, want *halfEdges) string {
	switch {
	case got.m != want.m:
		return fmt.Sprintf("%d edges, want %d", got.m, want.m)
	case !slices.Equal(got.eu, want.eu) || !slices.Equal(got.ev, want.ev):
		return fmt.Sprintf("edges %v-%v, want %v-%v", got.eu, got.ev, want.eu, want.ev)
	case !slices.EqualFunc(got.rotv, want.rotv, slices.Equal[[]int]):
		return fmt.Sprintf("rotation lists %v, want %v", got.rotv, want.rotv)
	case !slices.Equal(got.next, want.next):
		return fmt.Sprintf("face links %v, want %v", got.next, want.next)
	case !slices.EqualFunc(got.faceWalks(), want.faceWalks(), slices.Equal[[]int]):
		return fmt.Sprintf("faces %v, want %v", got.faceWalks(), want.faceWalks())
	}
	return ""
}

// rebuilt returns r over a copy of its graph that a zero-value Builder
// builds from the edges in a random order and orientation, plus extra
// parallel copies of that many random edges: the adjacency lists are in
// no particular order, unlike those graph.Induced builds.
func rebuilt(r *Rotation, extra int, rng *rand.Rand) *Rotation {
	type edge struct {
		u, v int
		w    float64
	}
	var es []edge
	r.G.Edges(func(u, v int, w float64) { es = append(es, edge{u, v, w}) })
	for i := 0; i < extra && len(es) > 0; i++ {
		es = append(es, es[rng.Intn(len(es))])
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	var b graph.Builder
	b.EnsureVertex(r.G.N() - 1)
	for _, e := range es {
		if rng.Intn(2) == 0 {
			e.u, e.v = e.v, e.u
		}
		b.AddEdge(e.u, e.v, e.w)
	}
	return &Rotation{G: b.Build(), Order: r.Order}
}

// broken returns a copy of r with one rotation list damaged the given
// way: "degree" drops an entry, "non-neighbor" swaps one for a vertex
// that is no neighbour, "repeat" overwrites one with another entry of
// the same list. It returns nil when r has no vertex to damage so.
func broken(r *Rotation, how string, rng *rand.Rand) *Rotation {
	n := r.G.N()
	order := make([][]int, n)
	for v := range order {
		order[v] = slices.Clone(r.Order[v])
	}
	for _, v := range rng.Perm(n) {
		o := order[v]
		switch {
		case how == "degree" && len(o) > 0:
			order[v] = o[:len(o)-1]
		case how == "non-neighbor" && len(o) > 0:
			bad := []int{-1, n, v}
			for u := 0; u < n; u++ {
				if !r.G.HasEdge(u, v) && u != v {
					bad = append(bad, u)
				}
			}
			o[rng.Intn(len(o))] = bad[rng.Intn(len(bad))]
		case how == "repeat" && len(o) > 1:
			i := rng.Intn(len(o))
			o[i] = o[(i+1+rng.Intn(len(o)-1))%len(o)]
		default:
			continue
		}
		return &Rotation{G: r.G, Order: order}
	}
	return nil
}

// TestHalfEdgesMatchReference compares the slot-indexed half-edge
// construction with the map-based reference on planar embeddings of
// graphs a NewBuilder built, of subgraphs graph.Induced built (restricted
// rotations), and of graphs a zero-value Builder built from shuffled
// edges, with and without parallel edges, each also with one rotation
// list damaged in each of the three ways buildHalfEdges reports.
func TestHalfEdgesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := graph.UniformWeights(1, 4)
	for trial := 0; trial < 60; trial++ {
		var base *Rotation
		switch trial % 4 {
		case 0:
			base = Grid(1+rng.Intn(8), 1+rng.Intn(8), w, rng)
		case 1:
			base = GridDiagonals(2+rng.Intn(6), 2+rng.Intn(6), w, rng)
		case 2:
			base = Apollonian(4+rng.Intn(40), w, rng)
		default:
			base = Outerplanar(3+rng.Intn(30), rng.Intn(10), w, rng)
		}
		n := base.G.N()
		sub := graph.Induced(base.G, rng.Perm(n)[:1+rng.Intn(n)])
		rots := []*Rotation{base, base.Restrict(sub), rebuilt(base, 0, rng), rebuilt(base, 1+rng.Intn(3), rng)}
		for _, r := range slices.Clone(rots) {
			for _, how := range []string{"degree", "non-neighbor", "repeat"} {
				if b := broken(r, how, rng); b != nil {
					rots = append(rots, b)
				}
			}
		}
		for i, r := range rots {
			got, err := r.buildHalfEdges()
			want, wantErr := r.buildHalfEdgesRef()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("trial %d, rotation %d: error %v, want %v", trial, i, err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if d := halfEdgesDiff(got, want); d != "" {
				t.Fatalf("trial %d, rotation %d (n=%d, m=%d): %s", trial, i, r.G.N(), r.G.M(), d)
			}
		}
	}
}
