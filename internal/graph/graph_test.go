package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 2.5)
	b.AddEdge(1, 2, 1.0)
	b.AddEdge(2, 3, 0.5)
	g := b.Build()
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 2.5 {
		t.Errorf("EdgeWeight(0,1) = %v,%v", w, ok)
	}
	if w, ok := g.EdgeWeight(1, 0); !ok || w != 2.5 {
		t.Errorf("EdgeWeight(1,0) = %v,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 3); ok {
		t.Error("EdgeWeight(0,3) should not exist")
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 7) // duplicate, ignored
	b.AddEdge(0, 0, 1) // self-loop, ignored
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 1 {
		t.Errorf("duplicate overwrote weight: %v", w)
	}
}

func TestBuilderGrowsVertices(t *testing.T) {
	b := NewBuilder(0)
	b.AddEdge(5, 9, 1)
	g := b.Build()
	if g.N() != 10 {
		t.Fatalf("N = %d, want 10", g.N())
	}
}

func TestHasEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := GNM(20, 40, UnitWeights(), rng)
	for u := 0; u < g.N(); u++ {
		for _, h := range g.Neighbors(u) {
			if !g.HasEdge(u, h.To) || !g.HasEdge(h.To, u) {
				t.Fatalf("missing edge %d-%d", u, h.To)
			}
		}
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("out-of-range HasEdge should be false")
	}
}

func TestDegreeSumIsTwiceM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := GNM(50, 120, UniformWeights(1, 2), rng)
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Fatalf("degree sum %d != 2M %d", sum, 2*g.M())
	}
}

func TestEdgesIterator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := GNM(30, 60, UnitWeights(), rng)
	count := 0
	g.Edges(func(u, v int, w float64) {
		if u >= v {
			t.Errorf("Edges gave u=%d >= v=%d", u, v)
		}
		count++
	})
	if count != g.M() {
		t.Fatalf("Edges visited %d, M=%d", count, g.M())
	}
}

func TestInduced(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(3, 4, 4)
	b.AddEdge(0, 4, 5)
	g := b.Build()
	sub := Induced(g, []int{1, 2, 3})
	if sub.G.N() != 3 || sub.G.M() != 2 {
		t.Fatalf("induced: n=%d m=%d", sub.G.N(), sub.G.M())
	}
	// Origin map round-trips.
	for sv, ov := range sub.Orig {
		if ov < 1 || ov > 3 {
			t.Errorf("orig[%d] = %d out of range", sv, ov)
		}
	}
	// Weights preserved.
	w, ok := sub.G.EdgeWeight(0, 1)
	if !ok || w != 2 {
		t.Errorf("induced edge weight = %v, %v", w, ok)
	}
}

func TestInducedIgnoresBadInput(t *testing.T) {
	g := Path(4, UnitWeights(), rand.New(rand.NewSource(1)))
	sub := Induced(g, []int{2, 2, -1, 99, 3})
	if sub.G.N() != 2 {
		t.Fatalf("n=%d, want 2", sub.G.N())
	}
}

func TestRemoveVertices(t *testing.T) {
	g := Path(5, UnitWeights(), rand.New(rand.NewSource(1)))
	sub := removeVertices(g, []int{2})
	if sub.G.N() != 4 || sub.G.M() != 2 {
		t.Fatalf("n=%d m=%d", sub.G.N(), sub.G.M())
	}
	comps := ConnectedComponents(sub.G)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
}

func TestConnectedComponentsOrder(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1) // component of size 4
	b.AddEdge(4, 5, 1) // size 2; vertex 6 isolated
	g := b.Build()
	comps := ConnectedComponents(g)
	if len(comps) != 3 {
		t.Fatalf("components = %d", len(comps))
	}
	for i := 1; i < len(comps); i++ {
		if len(comps[i]) > len(comps[i-1]) {
			t.Fatal("components not sorted largest-first")
		}
	}
}

func TestComponentsAfterRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Cycle(10, UnitWeights(), rng)
	comps := ComponentsAfterRemoval(g, []int{0, 5})
	if len(comps) != 2 || len(comps[0]) != 4 || len(comps[1]) != 4 {
		t.Fatalf("cycle split wrong: %v", comps)
	}
	// Components are in g's numbering.
	for _, c := range comps {
		for _, v := range c {
			if v == 0 || v == 5 {
				t.Fatal("removed vertex appears in component")
			}
		}
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tests := []struct {
		name string
		g    *Graph
		n, m int
		conn bool
	}{
		{"path", Path(6, UnitWeights(), rng), 6, 5, true},
		{"cycle", Cycle(6, UnitWeights(), rng), 6, 6, true},
		{"complete", Complete(5, UnitWeights(), rng), 5, 10, true},
		{"bipartite", CompleteBipartite(3, 4, UnitWeights(), rng), 7, 12, true},
		{"star", Star(5, UnitWeights(), rng), 5, 4, true},
		{"tree", RandomTree(20, UnitWeights(), rng), 20, 19, true},
		{"btree", BinaryTree(15, UnitWeights(), rng), 15, 14, true},
		{"hypercube", Hypercube(4, UnitWeights(), rng), 16, 32, true},
		{"mesh3d", Mesh3D(3, 3, 3, UnitWeights(), rng), 27, 54, true},
		{"meshuniv", MeshUniversal(4), 17, 24 + 16, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n {
				t.Errorf("n = %d, want %d", tc.g.N(), tc.n)
			}
			if tc.g.M() != tc.m {
				t.Errorf("m = %d, want %d", tc.g.M(), tc.m)
			}
			if tc.conn != IsConnected(tc.g) {
				t.Errorf("connected = %v, want %v", !tc.conn, tc.conn)
			}
		})
	}
}

func TestKTree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, k := range []int{1, 2, 3, 5} {
		g := KTree(40, k, UnitWeights(), rng)
		if g.N() != 40 {
			t.Fatalf("k=%d: n=%d", k, g.N())
		}
		// k-tree edge count: C(k+1,2) + k*(n-k-1).
		want := k*(k+1)/2 + k*(40-k-1)
		if g.M() != want {
			t.Errorf("k=%d: m=%d, want %d", k, g.M(), want)
		}
		if !IsConnected(g) {
			t.Errorf("k=%d: not connected", k)
		}
	}
}

func TestKTreeWithBags(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, bags := KTreeWithBags(30, 3, UnitWeights(), rng)
	for v := 4; v < 30; v++ {
		if len(bags[v]) != 3 {
			t.Fatalf("bag[%d] has %d vertices", v, len(bags[v]))
		}
		for _, u := range bags[v] {
			if !g.HasEdge(u, v) {
				t.Fatalf("bag vertex %d not adjacent to %d", u, v)
			}
		}
	}
}

func TestPartialKTreeConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := PartialKTree(60, 4, 0.5, UnitWeights(), rng)
	if !IsConnected(g) {
		t.Fatal("partial k-tree must stay connected")
	}
}

func TestConnectedGNM(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := ConnectedGNM(50, 80, UnitWeights(), rng)
	if !IsConnected(g) {
		t.Fatal("not connected")
	}
	if g.M() < 49 {
		t.Fatalf("m=%d too small", g.M())
	}
}

func TestPathPlusStable(t *testing.T) {
	g := PathPlusStable(10)
	if g.N() != 10 {
		t.Fatalf("n=%d", g.N())
	}
	// Removing the path (vertices 0..4) disconnects into 5 singletons.
	comps := ComponentsAfterRemoval(g, []int{0, 1, 2, 3, 4})
	if len(comps) != 5 {
		t.Fatalf("components after removing path: %d", len(comps))
	}
}

func TestMeshUniversalDiameterTwo(t *testing.T) {
	g := MeshUniversal(5)
	u := 25
	// Universal vertex adjacent to all.
	if g.Degree(u) != 25 {
		t.Fatalf("universal degree = %d", g.Degree(u))
	}
}

func TestReweightedAndUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := GNM(20, 50, UniformWeights(1, 10), rng)
	u := g.Unweighted()
	if u.M() != g.M() || u.N() != g.N() {
		t.Fatal("unweighted changed shape")
	}
	u.Edges(func(_, _ int, w float64) {
		if w != 1 {
			t.Fatalf("weight %v != 1", w)
		}
	})
}

func TestTotalWeight(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1.5)
	b.AddEdge(1, 2, 2.5)
	g := b.Build()
	if got := g.TotalWeight(); got != 4 {
		t.Fatalf("TotalWeight = %v", got)
	}
	minW, ok := g.MinEdgeWeight()
	if !ok || minW != 1.5 {
		t.Fatalf("MinEdgeWeight = %v %v", minW, ok)
	}
	maxW, ok := g.MaxEdgeWeight()
	if !ok || maxW != 2.5 {
		t.Fatalf("MaxEdgeWeight = %v %v", maxW, ok)
	}
}

// Property: for any random graph, Induced over all vertices is isomorphic
// (identical under identity mapping) to the original.
func TestQuickInducedIdentity(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%40 + 2
		m := int(mRaw) % (n * (n - 1) / 2)
		rng := rand.New(rand.NewSource(seed))
		g := GNM(n, m, UniformWeights(1, 5), rng)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		sub := Induced(g, all)
		if sub.G.N() != g.N() || sub.G.M() != g.M() {
			return false
		}
		ok := true
		g.Edges(func(u, v int, w float64) {
			w2, exists := sub.G.EdgeWeight(u, v)
			if !exists || w2 != w {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: components partition the vertex set.
func TestQuickComponentsPartition(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw)%50 + 1
		m := int(mRaw) % (n*(n-1)/2 + 1)
		rng := rand.New(rand.NewSource(seed))
		g := GNM(n, m, UnitWeights(), rng)
		comps := ConnectedComponents(g)
		seen := make([]bool, n)
		total := 0
		for _, c := range comps {
			for _, v := range c {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesParallel(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(80)
		g := SeriesParallel(n, UnitWeights(), rng)
		if !IsConnected(g) {
			t.Fatalf("seed %d: disconnected", seed)
		}
		if g.N() > n {
			t.Fatalf("seed %d: %d vertices, budget %d", seed, g.N(), n)
		}
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 3, UnitWeights(), rand.New(rand.NewSource(1)))
	if g.N() != 20 || g.M() != 19 || !IsConnected(g) {
		t.Fatalf("caterpillar: %v", g)
	}
}

func TestGridTorus(t *testing.T) {
	g := GridTorus(4, 5, UnitWeights(), rand.New(rand.NewSource(1)))
	if g.N() != 20 || g.M() != 40 {
		t.Fatalf("torus: %v", g)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus degree %d at %d", g.Degree(v), v)
		}
	}
}
