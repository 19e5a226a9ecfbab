package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// inducedRef is Induced as a NewBuilder pass: the reference the map-free
// Induced must reproduce exactly, adjacency order included.
func inducedRef(g *Graph, vertices []int) *Sub {
	toSub := make(map[int]int, len(vertices))
	orig := make([]int, 0, len(vertices))
	for _, v := range vertices {
		if v < 0 || v >= g.N() {
			continue
		}
		if _, ok := toSub[v]; ok {
			continue
		}
		toSub[v] = len(orig)
		orig = append(orig, v)
	}
	b := NewBuilder(len(orig))
	for sv, ov := range orig {
		for _, h := range g.Neighbors(ov) {
			if sw, ok := toSub[h.To]; ok && sw > sv {
				b.AddEdge(sv, sw, h.W)
			}
		}
	}
	return &Sub{G: b.Build(), Orig: orig}
}

// subDiff describes the first difference between two Subs, or returns ""
// when N, M, Orig and every adjacency list (in order, weights to the bit)
// agree.
func subDiff(got, want *Sub) string {
	if got.G.N() != want.G.N() || got.G.M() != want.G.M() {
		return fmt.Sprintf("n=%d m=%d, want n=%d m=%d", got.G.N(), got.G.M(), want.G.N(), want.G.M())
	}
	if !slices.Equal(got.Orig, want.Orig) {
		return fmt.Sprintf("Orig %v, want %v", got.Orig, want.Orig)
	}
	for v := 0; v < want.G.N(); v++ {
		a, b := got.G.Neighbors(v), want.G.Neighbors(v)
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i].To == b[i].To && math.Float64bits(a[i].W) == math.Float64bits(b[i].W)
		}
		if !same {
			return fmt.Sprintf("adjacency of %d is %v, want %v", v, a, b)
		}
	}
	return ""
}

// multiGraph builds edges (u, v, w) through a zero-value Builder, which
// keeps parallel edges.
func multiGraph(n int, edges [][3]int) *Graph {
	var b Builder
	b.EnsureVertex(n - 1)
	for _, e := range edges {
		b.AddEdge(e[0], e[1], float64(e[2]))
	}
	return b.Build()
}

// inducedCases are the shapes TestInducedMatchesReference pins and
// FuzzInduced seeds from: parallel edges in both orientations, repeated,
// negative and out-of-range input vertices, and empty vertex lists.
var inducedCases = []struct {
	name  string
	n     int
	edges [][3]int
	verts []int
}{
	{"parallel", 4, [][3]int{{0, 1, 3}, {1, 0, 2}, {1, 2, 1}, {0, 1, 5}, {2, 3, 4}, {3, 2, 4}, {0, 3, 1}}, []int{0, 1, 2, 3}},
	{"parallel-reordered", 4, [][3]int{{0, 1, 3}, {1, 0, 2}, {1, 2, 1}, {0, 1, 5}, {2, 3, 4}, {3, 2, 4}, {0, 3, 1}}, []int{3, 1, 0}},
	{"bad-input", 5, [][3]int{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 4}, {4, 0, 5}}, []int{2, 2, -1, 99, 3, 5, -7, 0, 3}},
	{"empty", 3, [][3]int{{0, 1, 1}, {1, 2, 1}}, []int{}},
	{"nil", 3, [][3]int{{0, 1, 1}}, nil},
	{"all-invalid", 3, [][3]int{{0, 1, 1}}, []int{-1, 3, 42}},
}

func TestInducedMatchesReference(t *testing.T) {
	for _, c := range inducedCases {
		g := multiGraph(c.n, c.edges)
		if d := subDiff(Induced(g, c.verts), inducedRef(g, c.verts)); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		g := GNM(n, rng.Intn(n*(n-1)/2+1), UniformWeights(1, 5), rng)
		// The identity, a shuffled subset, and a list with repeats and
		// out-of-range IDs.
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		subset := rng.Perm(n)[:rng.Intn(n+1)]
		messy := []int{-1, n, rng.Intn(n)}
		for i := 0; i < n; i++ {
			messy = append(messy, rng.Intn(n+2)-1)
		}
		for _, vs := range [][]int{all, subset, messy} {
			if d := subDiff(Induced(g, vs), inducedRef(g, vs)); d != "" {
				t.Fatalf("trial %d (n=%d, m=%d) on %v: %s", trial, n, g.M(), vs, d)
			}
		}
	}
}
