package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"pathsep/internal/embed"
	"pathsep/internal/graph"
)

func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	g := tr.G
	// Every vertex has a home node whose separator (in root IDs) contains it.
	for v := 0; v < g.N(); v++ {
		h := tr.Home[v]
		if h < 0 || h >= len(tr.Nodes) {
			t.Fatalf("vertex %d home %d invalid", v, h)
		}
		found := false
		for _, u := range tr.Nodes[h].SepInRootIDs().Vertices() {
			if u == v {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("vertex %d not in its home separator", v)
		}
	}
	// Node subgraph sizes halve down the tree.
	for _, n := range tr.Nodes {
		if n.Parent >= 0 && tr.Nodes[n.Parent].Sep != nil {
			p := tr.Nodes[n.Parent]
			if n.Sub.G.N() > p.Sub.G.N()/2 {
				t.Fatalf("node %d size %d > parent half %d", n.ID, n.Sub.G.N(), p.Sub.G.N()/2)
			}
		}
	}
	// HomePath is a root path.
	for v := 0; v < g.N(); v++ {
		hp := tr.HomePath(v)
		if len(hp) == 0 || hp[len(hp)-1] != tr.Home[v] {
			t.Fatalf("HomePath(%d) = %v, home %d", v, hp, tr.Home[v])
		}
		for i := 1; i < len(hp); i++ {
			if tr.Nodes[hp[i]].Parent != hp[i-1] {
				t.Fatalf("HomePath(%d) broken at %d", v, i)
			}
		}
	}
}

func TestDecomposeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomTree(100, graph.UniformWeights(1, 2), rng)
	tr, err := Decompose(g, Options{Strategy: TreeCentroid{}, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if tr.MaxK != 1 {
		t.Errorf("MaxK = %d, want 1 for trees", tr.MaxK)
	}
	if tr.Depth > log2Ceil(100)+2 {
		t.Errorf("depth %d too large", tr.Depth)
	}
}

func TestDecomposeGridPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := embed.Grid(9, 9, graph.UniformWeights(1, 3), rng)
	tr, err := Decompose(r.G, Options{Strategy: Auto{}, Rot: r, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if tr.MaxK > 4 {
		t.Errorf("MaxK = %d, want <= 4 for planar", tr.MaxK)
	}
}

func TestDecomposeApollonianPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := embed.Apollonian(150, graph.UniformWeights(1, 2), rng)
	tr, err := Decompose(r.G, Options{Strategy: Auto{}, Rot: r, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
}

func TestDecomposeKTreeAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.KTree(90, 3, graph.UniformWeights(1, 2), rng)
	tr, err := Decompose(g, Options{Strategy: Auto{}, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if tr.MaxK > 4 {
		t.Errorf("MaxK = %d, want <= 4 for 3-trees", tr.MaxK)
	}
}

func TestDecomposeDisconnected(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g := b.Build()
	tr, err := Decompose(g, Options{Strategy: Greedy{}, Certify: false})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root().StrategyName != "virtual-root" {
		t.Fatalf("root strategy %q", tr.Root().StrategyName)
	}
	if len(tr.Root().Children) != 2 {
		t.Fatalf("root children = %d", len(tr.Root().Children))
	}
	for v := 0; v < 6; v++ {
		if tr.Home[v] < 0 {
			t.Fatalf("vertex %d unhomed", v)
		}
	}
}

func TestDecomposeMinComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ConnectedGNM(64, 128, graph.UnitWeights(), rng)
	tr, err := Decompose(g, Options{Strategy: Greedy{}, MinComponent: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	// Depth should be bounded by ~log2(64/8) + slack.
	if tr.Depth > 8 {
		t.Errorf("depth %d", tr.Depth)
	}
}

func TestDecomposeSingleVertex(t *testing.T) {
	g := graph.New(1)
	tr, err := Decompose(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Nodes) != 1 || tr.Home[0] != 0 {
		t.Fatal("singleton decomposition wrong")
	}
}

func TestDecomposeDepthLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := embed.Grid(16, 16, graph.UnitWeights(), rng)
	tr, err := Decompose(r.G, Options{Strategy: Auto{}, Rot: r})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth > log2Ceil(256)+2 {
		t.Errorf("depth %d > log2(256)+2", tr.Depth)
	}
}

func TestAutoSelfPlanarizes(t *testing.T) {
	// A bare grid with NO caller-provided rotation must still get the
	// planar machinery (constant k) via the DMP embedder.
	g := graph.Mesh3D(16, 16, 1, graph.UnitWeights(), nil)
	tr, err := Decompose(g, Options{Strategy: Auto{}})
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	if tr.MaxK > 4 {
		t.Errorf("maxK = %d; self-planarization should give <= 4", tr.MaxK)
	}
}

func TestAutoSeriesParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.SeriesParallel(150, graph.UniformWeights(1, 3), rng)
	tr, err := Decompose(g, Options{Strategy: Auto{}, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	checkTree(t, tr)
	// Series-parallel: treewidth 2, so k should stay tiny whichever route
	// Auto takes (planar or center bag).
	if tr.MaxK > 4 {
		t.Errorf("maxK = %d on a series-parallel graph", tr.MaxK)
	}
}

func TestDecomposeMaxDepthGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.ConnectedGNM(64, 128, graph.UnitWeights(), rng)
	if _, err := Decompose(g, Options{Strategy: Greedy{}, MaxDepth: 1}); err == nil {
		t.Fatal("depth cap not enforced")
	}
}

func TestDecomposeEmptyGraph(t *testing.T) {
	if _, err := Decompose(graph.New(0), Options{}); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestSepInRootIDsNilSeparator(t *testing.T) {
	n := &Node{}
	if n.SepInRootIDs() != nil {
		t.Fatal("nil separator should lift to nil")
	}
}

// TestDecomposeMemoryBudget pins what decomposing the 64×64 bench-shaped
// grid allocates, per vertex, at the pool width GOMAXPROCS gives
// (make memory-budget runs it at 1, 2, 4 and 8). Each of these breaks
// it: copying a node's graph to find the components of each separator
// phase, building a second subgraph per child to restrict its rotation,
// or either per-node map on the planar path (half-edge IDs, tree-edge
// IDs). The node count pins the decomposition itself, so a different
// tree cannot pass the budget.
func TestDecomposeMemoryBudget(t *testing.T) {
	rot := embed.Grid(64, 64, graph.UniformWeights(1, 4), rand.New(rand.NewSource(1)))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr, err := Decompose(rot.G, Options{Strategy: Auto{}, Rot: rot})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := len(tr.Nodes); got != 1073 {
		t.Fatalf("fixture has %d nodes, want 1073", got)
	}
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / float64(rot.G.N())
	t.Logf("Decompose allocates %.0f B/vertex in %d mallocs", alloc, after.Mallocs-before.Mallocs)
	if alloc > 8000 {
		t.Errorf("Decompose allocates %.0f B/vertex, budget 8000", alloc)
	}
}

// decomposeDigest hashes every node's parent and its separator in
// root-graph IDs, phase by phase and path by path, in node order.
func decomposeDigest(tr *Tree) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	for _, n := range tr.Nodes {
		put(n.Parent)
		sep := n.SepInRootIDs()
		if sep == nil {
			put(-1)
			continue
		}
		put(len(sep.Phases))
		for _, ph := range sep.Phases {
			put(len(ph.Paths))
			for _, p := range ph.Paths {
				put(len(p.Vertices))
				for _, v := range p.Vertices {
					put(v)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDecomposeGolden pins the decomposition trees of every separator
// route (greedy, tree centroid, center bag, Auto's width-capped bag, and
// the planar route from a supplied and from a computed embedding), so a
// refactor of the separator routines must reproduce them node for node.
func TestDecomposeGolden(t *testing.T) {
	grid20 := embed.Grid(20, 20, graph.UniformWeights(1, 4), rand.New(rand.NewSource(2)))
	grid24 := embed.Grid(24, 24, graph.UniformWeights(1, 4), rand.New(rand.NewSource(3)))
	ktree := graph.KTree(200, 3, graph.UniformWeights(1, 4), rand.New(rand.NewSource(4)))
	cases := []struct {
		name  string
		g     *graph.Graph
		rot   *embed.Rotation
		strat Strategy
		want  string
	}{
		{"greedy/gnm", graph.ConnectedGNM(200, 500, graph.UniformWeights(1, 4), rand.New(rand.NewSource(1))), nil, Greedy{}, "f84f2d4558173ea70d691305f8f149ba1c5d75725d86acfacc052dcec0a7e5f1"},
		{"greedy/grid20", grid20.G, nil, Greedy{}, "45b806f0482ba9b802d6c2b957769dac6c9e7093cad64c93e960cd5baa63219c"},
		{"tree-centroid/tree", graph.RandomTree(500, graph.UniformWeights(1, 4), rand.New(rand.NewSource(5))), nil, TreeCentroid{}, "df48e65af14e5e362f118f32735eaf4d4557b305b612c525d291615ac60553d2"},
		{"center-bag/ktree", ktree, nil, CenterBag{}, "604e49cf5aa3c86b235d0407c55afcdc0065787a77539769693ced3faec0cf83"},
		{"auto/ktree", ktree, nil, Auto{}, "3dd7e0f5a8f744d5ab00264312b1dd79a12cb82080fef0ed4c243e247750d091"},
		{"auto/grid24-edges", grid24.G, nil, Auto{}, "76e4ebd7dcf8af170b961c18d5c8c085e2685b901b7f905b80be32f94b40c478"},
		{"auto/grid24-rotation", grid24.G, grid24, Auto{}, "29189b2277f53ce679fb425d11371034a9882b472c8e1d17924c97110f201f37"},
	}
	for _, c := range cases {
		tr, err := Decompose(c.g, Options{Strategy: c.strat, Rot: c.rot, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := decomposeDigest(tr); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
