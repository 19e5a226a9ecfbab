package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// removeVertices is the induced copy of g without the removed vertices,
// the subgraph componentsAfterRemovalRef searches.
func removeVertices(g *Graph, removed []int) *Sub {
	drop := make([]bool, g.N())
	for _, v := range removed {
		if v >= 0 && v < g.N() {
			drop[v] = true
		}
	}
	keep := make([]int, 0, g.N())
	for v := 0; v < g.N(); v++ {
		if !drop[v] {
			keep = append(keep, v)
		}
	}
	return Induced(g, keep)
}

// componentsAfterRemovalRef is ComponentsAfterRemoval as a search of the
// induced copy: the reference the masked walk over g must reproduce,
// member order included.
func componentsAfterRemovalRef(g *Graph, removed []int) [][]int {
	sub := removeVertices(g, removed)
	comps := ConnectedComponents(sub.G)
	out := make([][]int, len(comps))
	for i, c := range comps {
		lifted := make([]int, len(c))
		for j, v := range c {
			lifted[j] = sub.Orig[v]
		}
		out[i] = lifted
	}
	return out
}

// shuffledGraph builds g's edges again through a zero-value Builder in a
// random order and orientation, adding a parallel copy of some of them:
// its adjacency lists are in no particular order, unlike those Induced
// builds.
func shuffledGraph(g *Graph, rng *rand.Rand) *Graph {
	var es [][3]float64
	g.Edges(func(u, v int, w float64) {
		es = append(es, [3]float64{float64(u), float64(v), w})
		if rng.Intn(8) == 0 {
			es = append(es, [3]float64{float64(v), float64(u), w + 1})
		}
	})
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	var b Builder
	b.EnsureVertex(g.N() - 1)
	for _, e := range es {
		u, v := int(e[0]), int(e[1])
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		b.AddEdge(u, v, e[2])
	}
	return b.Build()
}

// componentsDiff describes the first difference between two component
// lists, or returns "" when they hold the same members in the same order.
func componentsDiff(got, want [][]int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d components, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			return fmt.Sprintf("component %d is %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// TestComponentsAfterRemovalMatchesReference compares the masked walk with
// the search of the induced copy on graphs Induced builds (the shape every
// decomposition node has) and on graphs a Builder fed shuffled edges
// builds, whose lower neighbours the walk must sort, with removed lists
// that repeat vertices and hold out-of-range IDs.
func TestComponentsAfterRemovalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		m := rng.Intn(min(n*(n-1)/2, 3*n) + 1)
		base := GNM(n, m, UniformWeights(1, 5), rng)
		induced := Induced(base, rng.Perm(n)).G
		for _, g := range []*Graph{base, induced, shuffledGraph(base, rng), shuffledGraph(induced, rng)} {
			removed := rng.Perm(n)[:rng.Intn(n+1)/2]
			removed = append(append(removed, -1, n), removed[:len(removed)/2]...)
			if d := componentsDiff(ComponentsAfterRemoval(g, removed), componentsAfterRemovalRef(g, removed)); d != "" {
				t.Fatalf("trial %d (n=%d, m=%d), removed %v: %s", trial, n, g.M(), removed, d)
			}
		}
	}
}

// TestComponentsAfterRemovalCapped checks that the member lists, which
// share one array, cannot grow into each other.
func TestComponentsAfterRemovalCapped(t *testing.T) {
	g := Path(7, UnitWeights(), rand.New(rand.NewSource(1)))
	comps := ComponentsAfterRemoval(g, []int{3})
	_ = append(comps[0], -1)
	if want := [][]int{{0, 1, 2}, {4, 5, 6}}; componentsDiff(comps, want) != "" {
		t.Fatalf("components %v after an append, want %v", comps, want)
	}
}
