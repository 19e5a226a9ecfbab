package pathsep_test

import (
	"math"
	"math/rand"
	"testing"

	"pathsep"
)

func TestQuickstartFlow(t *testing.T) {
	b := pathsep.NewBuilder(4)
	b.AddEdge(0, 1, 1.0)
	b.AddEdge(1, 2, 2.0)
	b.AddEdge(2, 3, 1.5)
	g := b.Build()
	dec, err := pathsep.Decompose(g, pathsep.Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := pathsep.NewOracle(dec, pathsep.OracleOptions{Epsilon: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if d := orc.Query(0, 3); math.Abs(d-4.5) > 0.45+1e-9 {
		t.Fatalf("Query(0,3) = %v, want ~4.5", d)
	}
}

func TestStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tree := pathsep.NewRandomTree(50, pathsep.UnitWeights(), rng)
	ktree := pathsep.NewKTree(50, 3, pathsep.UnitWeights(), rng)
	grid := pathsep.NewGrid(7, 7, pathsep.UnitWeights(), rng)

	cases := []struct {
		name string
		g    *pathsep.Graph
		opt  pathsep.Options
	}{
		{"auto-tree", tree, pathsep.Options{}},
		{"centroid", tree, pathsep.Options{Strategy: pathsep.StrategyTreeCentroid}},
		{"bag", ktree, pathsep.Options{Strategy: pathsep.StrategyCenterBag}},
		{"greedy", ktree, pathsep.Options{Strategy: pathsep.StrategyGreedy}},
		{"planar", grid.G, pathsep.Options{Strategy: pathsep.StrategyPlanar, Embedding: grid}},
		{"auto-embedded", grid.G, pathsep.Options{Embedding: grid}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.opt.Certify = true
			dec, err := pathsep.Decompose(tc.g, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if dec.MaxK <= 0 {
				t.Fatal("no separators recorded")
			}
		})
	}
}

func TestBadStrategy(t *testing.T) {
	g := pathsep.NewRandomTree(5, pathsep.UnitWeights(), rand.New(rand.NewSource(1)))
	if _, err := pathsep.Decompose(g, pathsep.Options{Strategy: pathsep.Strategy(99)}); err == nil {
		t.Fatal("bad strategy accepted")
	}
}

func TestLabelsQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	grid := pathsep.NewGrid(6, 6, pathsep.UniformWeights(1, 2), rng)
	dec, err := pathsep.Decompose(grid.G, pathsep.Options{Embedding: grid})
	if err != nil {
		t.Fatal(err)
	}
	orc, err := pathsep.NewOracle(dec, pathsep.OracleOptions{Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// The distributed form must agree with the oracle.
	for u := 0; u < 36; u += 5 {
		for v := 0; v < 36; v += 7 {
			if u == v {
				continue
			}
			got := pathsep.QueryLabels(orc.Label(u), orc.Label(v))
			want := orc.Query(u, v)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("labels disagree with oracle at (%d,%d)", u, v)
			}
		}
	}
}

func TestRouterFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	grid := pathsep.NewGrid(6, 6, pathsep.UnitWeights(), rng)
	dec, err := pathsep.Decompose(grid.G, pathsep.Options{Embedding: grid})
	if err != nil {
		t.Fatal(err)
	}
	router, err := pathsep.NewRouter(dec, pathsep.RouterOptions{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	path, ok := router.Route(0, 35, 1000)
	if !ok || path[len(path)-1] != 35 {
		t.Fatalf("route failed: %v %v", path, ok)
	}
}

func TestSmallWorldFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	grid := pathsep.NewGrid(8, 8, pathsep.UnitWeights(), rng)
	dec, err := pathsep.Decompose(grid.G, pathsep.Options{Embedding: grid})
	if err != nil {
		t.Fatal(err)
	}
	aug, err := pathsep.Augment(dec, pathsep.SmallWorldPathSeparator, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := pathsep.GreedyRouteStats(aug, 20, rng)
	if st.Delivered != 20 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMesh3DAndApollonian(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := pathsep.NewMesh3D(3, 3, 3, pathsep.UnitWeights(), rng)
	if m.N() != 27 {
		t.Fatal("mesh size")
	}
	a := pathsep.NewApollonian(30, pathsep.UnitWeights(), rng)
	if a.G.N() != 30 {
		t.Fatal("apollonian size")
	}
	dec, err := pathsep.Decompose(m, pathsep.Options{Strategy: pathsep.StrategyGreedy})
	if err != nil {
		t.Fatal(err)
	}
	sep := dec.Root().Sep
	if err := pathsep.CertifySeparator(dec.Root().Sub.G, sep); err != nil {
		t.Fatal(err)
	}
}

func TestPlanarizeFacade(t *testing.T) {
	g := pathsep.NewMesh3D(6, 6, 1, pathsep.UnitWeights(), nil) // a 2-D grid
	emb, err := pathsep.Planarize(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := emb.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := pathsep.Planarize(pathsep.NewMesh3D(3, 3, 3, pathsep.UnitWeights(), nil)); err == nil {
		t.Fatal("3-D mesh is not planar")
	}
}

func TestWeightedSeparatorFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := pathsep.NewKTree(50, 2, pathsep.UniformWeights(1, 3), rng)
	w := make([]float64, 50)
	for i := range w {
		w[i] = rng.Float64() * 4
	}
	sep, err := pathsep.WeightedSeparator(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := pathsep.CertifyWeightedSeparator(g, w, sep); err != nil {
		t.Fatal(err)
	}
}

func TestMeshFacade(t *testing.T) {
	dec, err := pathsep.DecomposeMesh3D(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := pathsep.NewMeshOracle(dec, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if d := orc.Query(0, 63); d < 9-1e-9 || d > 9*1.25+1e-9 {
		t.Fatalf("corner distance %v, want within [9, 11.25]", d)
	}
	rng := rand.New(rand.NewSource(7))
	aug := pathsep.AugmentMesh(dec, rng)
	st := pathsep.GreedyRouteStats(aug, 20, rng)
	if st.Delivered != 20 {
		t.Fatalf("stats %+v", st)
	}
}

// TestTreeLabelingFacade is the differential between the tree labeling
// and the oracle on trees: on random trees decomposed by centroid, both
// store the same entries with the same largest label, and on 20,000
// random pairs TreeLabeling, its frozen FlatTreeLabeling and the frozen
// oracle answer bit for bit alike, in portal mode at every size and in
// exact mode up to n = 1,024 (above that its build runs for seconds).
func TestTreeLabelingFacade(t *testing.T) {
	for _, tc := range []struct{ n, entries, maxLabel int }{
		{64, 235, 5},
		{1024, 5822, 8},
		{4096, 27249, 10},
	} {
		rng := rand.New(rand.NewSource(18))
		g := pathsep.NewRandomTree(tc.n, pathsep.UniformWeights(1, 4), rng)
		l, err := pathsep.NewTreeLabeling(g)
		if err != nil {
			t.Fatal(err)
		}
		ft, err := l.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if ft.NumEntries() != tc.entries || l.MaxLabelSize() != tc.maxLabel {
			t.Fatalf("n=%d: labeling has %d entries, largest label %d; want %d and %d",
				tc.n, ft.NumEntries(), l.MaxLabelSize(), tc.entries, tc.maxLabel)
		}
		dec, err := pathsep.Decompose(g, pathsep.Options{Strategy: pathsep.StrategyTreeCentroid})
		if err != nil {
			t.Fatal(err)
		}
		pairs := make([][2]int, 20000)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(tc.n), rng.Intn(tc.n)}
		}
		modes := []pathsep.OracleMode{pathsep.OraclePortals}
		if tc.n <= 1024 {
			modes = append(modes, pathsep.OracleExactCover)
		}
		for _, mode := range modes {
			orc, err := pathsep.NewOracle(dec, pathsep.OracleOptions{Epsilon: 0.25, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if orc.SpacePortals() != ft.NumEntries() || orc.MaxLabelPortals() != l.MaxLabelSize() {
				t.Fatalf("n=%d mode %d: oracle has %d entries, largest label %d; labeling %d and %d",
					tc.n, mode, orc.SpacePortals(), orc.MaxLabelPortals(), ft.NumEntries(), l.MaxLabelSize())
			}
			fo, err := orc.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				u, v := p[0], p[1]
				want := math.Float64bits(l.Query(u, v))
				if got := math.Float64bits(ft.Query(u, v)); got != want {
					t.Fatalf("n=%d: FlatTreeLabeling.Query(%d,%d) = %v, TreeLabeling %v",
						tc.n, u, v, math.Float64frombits(got), math.Float64frombits(want))
				}
				if got := math.Float64bits(fo.Query(u, v)); got != want {
					t.Fatalf("n=%d mode %d: FlatOracle.Query(%d,%d) = %v, TreeLabeling %v",
						tc.n, mode, u, v, math.Float64frombits(got), math.Float64frombits(want))
				}
			}
		}
	}
}
