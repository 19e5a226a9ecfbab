package shortest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pathsep/internal/graph"
)

// treeDiff describes the first difference between two trees, or returns
// "" when Dist (to the bit), Parent, Source, Hops, Order and Stats agree.
func treeDiff(got, want *Tree) string {
	if len(got.Dist) != len(want.Dist) {
		return fmt.Sprintf("%d vertices, want %d", len(got.Dist), len(want.Dist))
	}
	for v := range want.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
			return fmt.Sprintf("Dist[%d] = %v, want %v", v, got.Dist[v], want.Dist[v])
		}
	}
	switch {
	case !slices.Equal(got.Parent, want.Parent):
		return fmt.Sprintf("Parent %v, want %v", got.Parent, want.Parent)
	case !slices.Equal(got.Source, want.Source):
		return fmt.Sprintf("Source %v, want %v", got.Source, want.Source)
	case !slices.Equal(got.Hops, want.Hops):
		return fmt.Sprintf("Hops %v, want %v", got.Hops, want.Hops)
	case !slices.Equal(got.Order, want.Order):
		return fmt.Sprintf("Order %v, want %v", got.Order, want.Order)
	case got.Stats != want.Stats:
		return fmt.Sprintf("Stats %+v, want %+v", got.Stats, want.Stats)
	}
	return ""
}

// TestWorkspaceMatchesFresh runs one Workspace over a sequence of graphs
// that grow and shrink, and checks every run against a fresh
// MultiSourceOffsets bit for bit: unit weights, whose ties make the
// settle order depend on every array the run starts from, and random
// ones; single and multi-source runs with and without offsets; and
// sparse graphs, whose unreachable vertices must not keep an earlier
// run's values.
func TestWorkspaceMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var ws Workspace
	for run, n := range []int{12, 60, 5, 60, 33, 1, 80, 40, 80, 7, 2, 50} {
		for _, w := range []graph.WeightFn{graph.UnitWeights(), graph.UniformWeights(0.5, 4)} {
			m := rng.Intn(2*n + 1) // sparse: often disconnected
			g := graph.GNM(n, min(m, n*(n-1)/2), w, rng)
			for _, k := range []int{1, 1 + rng.Intn(4)} {
				sources := make([]int, k)
				for i := range sources {
					sources[i] = rng.Intn(n)
				}
				var offsets []float64
				if k > 1 && rng.Intn(2) == 0 {
					offsets = make([]float64, k)
					for i := range offsets {
						offsets[i] = float64(rng.Intn(3))
					}
				}
				want := MultiSourceOffsets(g, sources, offsets)
				if d := treeDiff(ws.Run(g, sources, offsets), want); d != "" {
					t.Fatalf("run %d (n=%d, m=%d, sources %v, offsets %v): %s", run, n, g.M(), sources, offsets, d)
				}
			}
		}
	}
	// The empty graph, first in a fresh workspace and then in a used one.
	for _, w := range []*Workspace{new(Workspace), &ws} {
		if tr := w.Run(graph.New(0), nil, nil); len(tr.Dist) != 0 || len(tr.Order) != 0 {
			t.Fatalf("empty graph: tree over %d vertices, %d settled", len(tr.Dist), len(tr.Order))
		}
	}
}
