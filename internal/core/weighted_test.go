package core

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/treedecomp"
)

func TestWeightedTreeCentroidSkew(t *testing.T) {
	// Path 0-1-2-3-4 with all weight on vertex 0: the weighted centroid
	// must be at (or adjacent to) vertex 0.
	rng := rand.New(rand.NewSource(1))
	g := graph.Path(5, graph.UnitWeights(), rng)
	w := []float64{100, 1, 1, 1, 1}
	c, err := WeightedTreeCentroid(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxComponentWeight(g, w, []int{c}); got > 104.0/2 {
		t.Fatalf("centroid %d leaves weight %v > half", c, got)
	}
	if c != 0 {
		t.Errorf("centroid = %d, want 0 for the heavy endpoint", c)
	}
}

func TestWeightedTreeCentroidNilWeightsMatchesUnweighted(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomTree(60, graph.UnitWeights(), rng)
		c, err := WeightedTreeCentroid(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := maxComponentWeight(g, nil, []int{c}); got > 30 {
			t.Fatalf("seed %d: component %v > n/2", seed, got)
		}
	}
}

func TestWeightedTreeCentroidRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := WeightedTreeCentroid(graph.Cycle(5, graph.UnitWeights(), rng), nil); err == nil {
		t.Fatal("cycle accepted")
	}
	g := graph.Path(4, graph.UnitWeights(), rng)
	if _, err := WeightedTreeCentroid(g, []float64{1, 2}); err == nil {
		t.Fatal("wrong weight count accepted")
	}
}

func TestWeightedCenterBag(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.KTree(60, 3, graph.UnitWeights(), rng)
	// Concentrate weight on a few vertices.
	w := make([]float64, 60)
	for i := range w {
		w[i] = 1
	}
	w[7], w[42] = 50, 50
	bag, err := WeightedCenterBag(g, w, treedecomp.MinDegree)
	if err != nil {
		t.Fatal(err)
	}
	total := graphWeight(60, w)
	if got := maxComponentWeight(g, w, bag); got > total/2 {
		t.Fatalf("bag leaves weight %v > %v/2", got, total)
	}
}

func TestWeightedGreedyHalvesWeight(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ConnectedGNM(80, 200, graph.UniformWeights(1, 3), rng)
		w := make([]float64, 80)
		for i := range w {
			w[i] = rng.Float64() * 10
		}
		sep, err := WeightedGreedy(g, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := CertifyWeighted(g, w, sep); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The weighted certificate implies the paths are valid for the
		// unweighted Definition 1 too (paths shortest in residuals).
	}
}

func TestWeightedGreedySingleHeavyVertex(t *testing.T) {
	// One vertex holds nearly all the weight: the separator must remove it.
	rng := rand.New(rand.NewSource(4))
	g := graph.Cycle(12, graph.UnitWeights(), rng)
	w := make([]float64, 12)
	for i := range w {
		w[i] = 0.1
	}
	w[5] = 1000
	sep, err := WeightedGreedy(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range sep.Vertices() {
		if v == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("heavy vertex not in separator")
	}
	if err := CertifyWeighted(g, w, sep); err != nil {
		t.Fatal(err)
	}
}

func TestCertifyWeightedRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Cycle(8, graph.UnitWeights(), rng)
	w := []float64{10, 1, 1, 1, 1, 1, 1, 1}
	// {0,1},{4,5} halves the COUNT but vertex 0's weight... removing it
	// means remaining weight is fine; craft a failing one: remove {2,3}
	// and {6,7}: leaves {0,1} (weight 11) and {4,5} (weight 2); total 17,
	// half 8.5 < 11 -> must fail.
	bad := &Separator{Phases: []Phase{{Paths: []Path{
		{Vertices: []int{2, 3}}, {Vertices: []int{6, 7}},
	}}}}
	if err := CertifyWeighted(g, w, bad); err == nil {
		t.Fatal("overweight component accepted")
	}
	// Removing {0,1} and {4,5} leaves weight-2 components: fine.
	good := &Separator{Phases: []Phase{{Paths: []Path{
		{Vertices: []int{0, 1}}, {Vertices: []int{4, 5}},
	}}}}
	if err := CertifyWeighted(g, w, good); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWeightedGreedyAlwaysCertifies(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 4
		rng := rand.New(rand.NewSource(seed))
		g := graph.ConnectedGNM(n, 3*n, graph.UniformWeights(1, 2), rng)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() * 5
		}
		sep, err := WeightedGreedy(g, w, 0)
		if err != nil {
			return false
		}
		return CertifyWeighted(g, w, sep) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightsRefused pins the refusal of negative and non-finite vertex
// weights: on the unit path 0-1-2-3, weight -10 or NaN at vertex 0 once
// made CertifyWeighted accept {3}, which leaves {0,1,2}, and
// WeightedGreedy return {0}, which leaves weight 3.
func TestWeightsRefused(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), rand.New(rand.NewSource(1)))
	three := &Separator{Phases: []Phase{{Paths: []Path{{Vertices: []int{3}}}}}}
	for _, bad := range []float64{-10, math.NaN(), math.Inf(1)} {
		w := []float64{bad, 1, 1, 1}
		errs := map[string]error{"CertifyWeighted": CertifyWeighted(g, w, three)}
		_, errs["WeightedGreedy"] = WeightedGreedy(g, w, 0)
		_, errs["WeightedTreeCentroid"] = WeightedTreeCentroid(g, w)
		_, errs["WeightedCenterBag"] = WeightedCenterBag(g, w, treedecomp.MinDegree)
		for name, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "vertex 0") {
				t.Errorf("%s with weight %v at vertex 0: err = %v, want a refusal naming vertex 0", name, bad, err)
			}
		}
	}
	// Zero weights stay legal.
	if _, err := WeightedGreedy(g, []float64{0, 1, 1, 1}, 0); err != nil {
		t.Errorf("zero weight refused: %v", err)
	}
}

// TestUnitWeightsAreNilWeights checks that explicit unit weights give the
// unweighted strategies' separators, on the families TestDecomposeGolden
// pins.
func TestUnitWeightsAreNilWeights(t *testing.T) {
	ones := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	for _, g := range []*graph.Graph{
		graph.ConnectedGNM(200, 500, graph.UniformWeights(1, 4), rand.New(rand.NewSource(1))),
		embed.Grid(20, 20, graph.UniformWeights(1, 4), rand.New(rand.NewSource(2))).G,
		graph.KTree(200, 3, graph.UniformWeights(1, 4), rand.New(rand.NewSource(4))),
	} {
		want, err := Greedy{}.Separate(Input{G: g})
		if err != nil {
			t.Fatal(err)
		}
		got, err := WeightedGreedy(g, ones(g.N()), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d m=%d: WeightedGreedy at unit weights %v, Greedy %v", g.N(), g.M(), got, want)
		}
	}
	tree := graph.RandomTree(500, graph.UniformWeights(1, 4), rand.New(rand.NewSource(5)))
	want, err := TreeCentroid{}.Separate(Input{G: tree})
	if err != nil {
		t.Fatal(err)
	}
	c, err := WeightedTreeCentroid(tree, ones(tree.N()))
	if err != nil {
		t.Fatal(err)
	}
	if w := want.Phases[0].Paths[0].Vertices[0]; c != w {
		t.Errorf("WeightedTreeCentroid at unit weights = %d, TreeCentroid %d", c, w)
	}
}
