// Package labeling holds tests only: exact distance labels for trees,
// served by the facade's tree recipe. Trees are the 1-path-separable
// base case of Definition 1. Decomposed by centroids
// (StrategyTreeCentroid), every separator path is one vertex at
// position 0, so a portal estimate is d(u,c) + d(c,v) and the oracle
// answers exact tree distances in either mode. These tests hold it to
// that: exact answers against Dijkstra, labels of at most ⌊log2 n⌋ + 2
// entries, answers from two labels alone, witness walks over real
// edges, forests answered per tree, and cycles and the empty graph
// refused.
package labeling

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pathsep"
	"pathsep/internal/graph"
	"pathsep/internal/shortest"
)

// treeOracle builds g's oracle over its centroid decomposition in mode.
func treeOracle(g *graph.Graph, mode pathsep.OracleMode) (*pathsep.Oracle, error) {
	dec, err := pathsep.Decompose(g, pathsep.Options{Strategy: pathsep.StrategyTreeCentroid})
	if err != nil {
		return nil, err
	}
	return pathsep.NewOracle(dec, pathsep.OracleOptions{Epsilon: 0.25, Mode: mode})
}

// exactErr builds both modes over g's centroid decomposition and checks,
// from up to 64 sampled sources to every vertex, that the two store as
// many entries, answer bit for bit alike and match Dijkstra within 1e-9
// relative.
func exactErr(g *graph.Graph) error {
	exact, err := treeOracle(g, pathsep.OracleExactCover)
	if err != nil {
		return err
	}
	portal, err := treeOracle(g, pathsep.OraclePortals)
	if err != nil {
		return err
	}
	if exact.SpacePortals() != portal.SpacePortals() || exact.MaxLabelPortals() != portal.MaxLabelPortals() {
		return fmt.Errorf("exact mode has %d entries, largest label %d; portal mode %d and %d",
			exact.SpacePortals(), exact.MaxLabelPortals(), portal.SpacePortals(), portal.MaxLabelPortals())
	}
	n := g.N()
	for u := 0; u < n; u += max(1, n/64) {
		truth := shortest.Dijkstra(g, u).Dist
		for v := 0; v < n; v++ {
			d := portal.Query(u, v)
			if e := exact.Query(u, v); math.Float64bits(e) != math.Float64bits(d) {
				return fmt.Errorf("Query(%d,%d) = %v in exact mode, %v in portal mode", u, v, e, d)
			}
			if !pathsep.ApproxDistEq(d, truth[v], 1e-9) {
				return fmt.Errorf("Query(%d,%d) = %v, Dijkstra %v", u, v, d, truth[v])
			}
		}
	}
	return nil
}

func TestExactOnPath(t *testing.T) {
	g := graph.Path(33, graph.UniformWeights(1, 3), rand.New(rand.NewSource(1)))
	if err := exactErr(g); err != nil {
		t.Fatal(err)
	}
}

// TestExactAllPairsRandomTrees checks every pair of six 60-vertex random
// trees, and 64 sources of a 1,024-vertex one.
func TestExactAllPairsRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 7; seed++ {
		n := 60
		if seed == 6 {
			n = 1024
		}
		g := graph.RandomTree(n, graph.UniformWeights(0.5, 5), rand.New(rand.NewSource(seed)))
		if err := exactErr(g); err != nil {
			t.Fatalf("seed %d, n=%d: %v", seed, n, err)
		}
	}
}

func TestCaterpillarAndStar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, g := range map[string]*graph.Graph{
		"star":        graph.Star(50, graph.UniformWeights(1, 2), rng),
		"caterpillar": graph.Caterpillar(10, 4, graph.UniformWeights(1, 2), rng),
		"binary":      graph.BinaryTree(63, graph.UnitWeights(), rng),
	} {
		if err := exactErr(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestQuickExactness checks random trees of 2 to 51 vertices.
func TestQuickExactness(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		g := graph.RandomTree(n, graph.UniformWeights(0.5, 3), rand.New(rand.NewSource(seed)))
		if err := exactErr(g); err != nil {
			t.Logf("seed %d, n=%d: %v", seed, n, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedQueryMatches: two labels alone (QueryLabels) answer
// like Query, bit for bit, in both modes.
func TestDistributedQueryMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*graph.Graph{
		graph.RandomTree(40, graph.UniformWeights(1, 4), rng),
		graph.RandomTree(1024, graph.UniformWeights(1, 4), rng),
	} {
		n := g.N()
		step := max(1, n/64)
		for _, mode := range []pathsep.OracleMode{pathsep.OracleExactCover, pathsep.OraclePortals} {
			o, err := treeOracle(g, mode)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u += step {
				lu := o.Label(u)
				for v := 0; v < n; v += step {
					if got, want := pathsep.QueryLabels(lu, o.Label(v)), o.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d, mode %d: QueryLabels(%d,%d) = %v, Query %v", n, mode, u, v, got, want)
					}
				}
			}
		}
	}
}

// TestLabelSizeLogarithmic pins the portal oracle's size on random trees
// of 64, 1,024 and 4,096 vertices: its entry count, and its largest
// label, which the halving of the centroid decomposition keeps at most
// ⌊log2 n⌋ + 2 entries.
func TestLabelSizeLogarithmic(t *testing.T) {
	for _, tc := range []struct{ n, entries, maxLabel int }{
		{64, 235, 5},
		{1024, 5822, 8},
		{4096, 27249, 10},
	} {
		g := graph.RandomTree(tc.n, graph.UniformWeights(1, 4), rand.New(rand.NewSource(18)))
		o, err := treeOracle(g, pathsep.OraclePortals)
		if err != nil {
			t.Fatal(err)
		}
		bound := int(math.Log2(float64(tc.n))) + 2
		if got := o.MaxLabelPortals(); got != tc.maxLabel || got > bound {
			t.Errorf("n=%d: largest label %d entries, want %d (bound %d)", tc.n, got, tc.maxLabel, bound)
		}
		if got := o.SpacePortals(); got != tc.entries {
			t.Errorf("n=%d: %d entries, want %d", tc.n, got, tc.entries)
		}
	}
}

// TestQueryPathExact walks the frozen portal oracle's witness paths on
// the path, star, caterpillar and binary families and on the random
// trees of TestLabelSizeLogarithmic, from up to 64 sources to every
// vertex: each path starts at u, ends at v and steps over real edges
// that re-weigh to the reported distance, which is Query's to the bit
// and Dijkstra's within 1e-9 relative. A self pair reports (0, [u]) and
// an out-of-range pair (+Inf, empty).
func TestQueryPathExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trees := []*graph.Graph{
		graph.Path(21, graph.UniformWeights(1, 3), rng),
		graph.Star(30, graph.UniformWeights(1, 2), rng),
		graph.Caterpillar(10, 4, graph.UniformWeights(1, 2), rng),
		graph.BinaryTree(63, graph.UnitWeights(), rng),
	}
	for _, n := range []int{64, 1024, 4096} {
		trees = append(trees, graph.RandomTree(n, graph.UniformWeights(1, 4), rand.New(rand.NewSource(18))))
	}
	for _, g := range trees {
		n := g.N()
		o, err := treeOracle(g, pathsep.OraclePortals)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := o.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		var buf []int32
		walk := make([]int, 0, n)
		for u := 0; u < n; u += max(1, n/64) {
			truth := shortest.Dijkstra(g, u).Dist
			for v := 0; v < n; v++ {
				var d float64
				if d, buf, err = fl.QueryPath(u, v, buf); err != nil {
					t.Fatalf("n=%d: QueryPath(%d,%d): %v", n, u, v, err)
				}
				if q := fl.Query(u, v); math.Float64bits(d) != math.Float64bits(q) || !pathsep.ApproxDistEq(d, truth[v], 1e-9) {
					t.Fatalf("n=%d: QueryPath(%d,%d) = %v, Query %v, Dijkstra %v", n, u, v, d, q, truth[v])
				}
				if u == v {
					if !pathsep.IsZeroDist(d) || len(buf) != 1 || int(buf[0]) != u {
						t.Fatalf("n=%d: self pair %d reported (%v, %v)", n, u, d, buf)
					}
					continue
				}
				if len(buf) < 2 || int(buf[0]) != u || int(buf[len(buf)-1]) != v {
					t.Fatalf("n=%d: path(%d,%d) = %v", n, u, v, buf)
				}
				walk = walk[:0]
				for _, x := range buf {
					walk = append(walk, int(x))
				}
				if w, ok := shortest.PathLength(g, walk); !ok || !pathsep.ApproxDistEq(w, d, 1e-9) {
					t.Fatalf("n=%d: path(%d,%d) %v weighs %v (on edges: %v), reported %v", n, u, v, buf, w, ok, d)
				}
			}
		}
		for _, pair := range [][2]int{{-1, 0}, {0, n}, {n + 3, -2}} {
			d, p, err := fl.QueryPath(pair[0], pair[1], buf)
			if err != nil || !math.IsInf(d, 1) || len(p) != 0 {
				t.Fatalf("n=%d: QueryPath(%d,%d) = (%v, %v, %v), want (+Inf, [], nil)", n, pair[0], pair[1], d, p, err)
			}
		}
	}
}

// disjointUnion lays the graphs side by side, renumbering each after
// the ones before it.
func disjointUnion(gs ...*graph.Graph) *graph.Graph {
	n := 0
	for _, g := range gs {
		n += g.N()
	}
	b := graph.NewBuilder(n)
	off := 0
	for _, g := range gs {
		g.Edges(func(u, v int, w float64) { b.AddEdge(off+u, off+v, w) })
		off += g.N()
	}
	return b.Build()
}

// TestRejectsNonTrees: a graph with a cycle, alone or beside a tree, and
// the empty graph are refused.
func TestRejectsNonTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for name, tc := range map[string]struct {
		g    *graph.Graph
		want string
	}{
		"cycle":       {graph.Cycle(5, graph.UnitWeights(), rng), "tree-centroid requires a tree"},
		"tree+cycle":  {disjointUnion(graph.RandomTree(30, graph.UniformWeights(1, 3), rng), graph.Cycle(6, graph.UnitWeights(), rng)), "tree-centroid requires a tree"},
		"empty graph": {graph.New(0), "core: empty graph"},
	} {
		if _, err := treeOracle(tc.g, pathsep.OraclePortals); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
}

// TestForestAnswersPerTree: the centroid strategy accepts a forest,
// decomposing each tree on its own, and the oracle over it answers exact
// distances within a tree and +Inf, with an empty path, between trees,
// in both modes.
func TestForestAnswersPerTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	forest := disjointUnion(
		graph.RandomTree(30, graph.UniformWeights(1, 3), rng),
		graph.Star(12, graph.UniformWeights(1, 3), rng),
		graph.Path(1, graph.UnitWeights(), rng),
	)
	n := forest.N()
	for _, mode := range []pathsep.OracleMode{pathsep.OracleExactCover, pathsep.OraclePortals} {
		o, err := treeOracle(forest, mode)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := o.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		var buf []int32
		for u := 0; u < n; u++ {
			truth := shortest.Dijkstra(forest, u).Dist
			for v := 0; v < n; v++ {
				d := fl.Query(u, v)
				if !pathsep.ApproxDistEq(d, truth[v], 1e-9) {
					t.Fatalf("mode %d: Query(%d,%d) = %v, Dijkstra %v", mode, u, v, d, truth[v])
				}
				if !math.IsInf(truth[v], 1) {
					continue
				}
				if d, buf, err = fl.QueryPath(u, v, buf); err != nil || !math.IsInf(d, 1) || len(buf) != 0 {
					t.Fatalf("mode %d: QueryPath(%d,%d) across trees = (%v, %v, %v)", mode, u, v, d, buf, err)
				}
				if l := pathsep.QueryLabels(o.Label(u), o.Label(v)); !math.IsInf(l, 1) {
					t.Fatalf("mode %d: QueryLabels(%d,%d) across trees = %v", mode, u, v, l)
				}
			}
		}
	}
}
