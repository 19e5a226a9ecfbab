package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pathsep/internal/embed"
	"pathsep/internal/graph"
)

func TestTreeCentroidPathGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Path(9, graph.UnitWeights(), rng)
	sep, err := (TreeCentroid{}).Separate(Input{G: g})
	if err != nil {
		t.Fatal(err)
	}
	if sep.NumPaths() != 1 {
		t.Fatalf("paths = %d", sep.NumPaths())
	}
	if err := Certify(g, sep); err != nil {
		t.Fatal(err)
	}
	// Centroid of a 9-path is the middle vertex.
	if v := sep.Phases[0].Paths[0].Vertices[0]; v != 4 {
		t.Errorf("centroid = %d, want 4", v)
	}
}

func TestTreeCentroidRandomTrees(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomTree(1+rng.Intn(200), graph.UniformWeights(1, 3), rng)
		sep, err := (TreeCentroid{}).Separate(Input{G: g})
		if err != nil {
			t.Fatal(err)
		}
		if err := Certify(g, sep); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTreeCentroidRejectsNonTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Cycle(5, graph.UnitWeights(), rng)
	if _, err := (TreeCentroid{}).Separate(Input{G: g}); err == nil {
		t.Fatal("cycle accepted as tree")
	}
}

func TestCenterBagKTree(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(int64(k)))
		g := graph.KTree(80, k, graph.UniformWeights(1, 2), rng)
		sep, err := (CenterBag{}).Separate(Input{G: g})
		if err != nil {
			t.Fatal(err)
		}
		if err := Certify(g, sep); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Theorem 7: strongly (k+1)-path separable. The min-degree heuristic
		// recovers width k on k-trees, so the bag has exactly k+1 vertices.
		if sep.NumPhases() != 1 {
			t.Errorf("k=%d: phases = %d, want 1 (strong)", k, sep.NumPhases())
		}
		if got := sep.NumPaths(); got > k+1 {
			t.Errorf("k=%d: paths = %d, want <= %d", k, got, k+1)
		}
	}
}

func TestGreedyOnRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ConnectedGNM(120, 300, graph.UniformWeights(0.5, 2), rng)
		sep, err := (Greedy{}).Separate(Input{G: g})
		if err != nil {
			t.Fatal(err)
		}
		if err := Certify(g, sep); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGreedyOnMesh3D(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.Mesh3D(6, 6, 6, graph.UnitWeights(), rng)
	sep, err := (Greedy{}).Separate(Input{G: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := Certify(g, sep); err != nil {
		t.Fatal(err)
	}
}

func TestPlanarStrategyGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dim := range [][2]int{{4, 4}, {8, 8}, {5, 12}} {
		r := embed.Grid(dim[0], dim[1], graph.UniformWeights(1, 2), rng)
		sep, err := (Planar{}).Separate(Input{G: r.G, Rot: r})
		if err != nil {
			t.Fatalf("grid %v: %v", dim, err)
		}
		if err := Certify(r.G, sep); err != nil {
			t.Fatalf("grid %v: %v", dim, err)
		}
		// At most two LT phases of at most two paths each.
		if sep.NumPaths() > 4 {
			t.Errorf("grid %v: %d paths, want <= 4", dim, sep.NumPaths())
		}
	}
}

func TestPlanarStrategyApollonian(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := embed.Apollonian(100+rng.Intn(100), graph.UniformWeights(1, 4), rng)
		sep, err := (Planar{}).Separate(Input{G: r.G, Rot: r})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Certify(r.G, sep); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sep.NumPaths() > 4 {
			t.Errorf("seed %d: %d paths", seed, sep.NumPaths())
		}
	}
}

func TestPlanarStrategyOuterplanar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := embed.Outerplanar(60, 40, graph.UniformWeights(1, 2), rng)
	sep, err := (Planar{}).Separate(Input{G: r.G, Rot: r})
	if err != nil {
		t.Fatal(err)
	}
	if err := Certify(r.G, sep); err != nil {
		t.Fatal(err)
	}
}

func TestPlanarBalanceTwoThirds(t *testing.T) {
	// The first phase alone must leave components <= 2n/3 (Lipton–Tarjan).
	rng := rand.New(rand.NewSource(6))
	r := embed.Grid(10, 10, graph.UnitWeights(), rng)
	sep, err := (Planar{}).Separate(Input{G: r.G, Rot: r})
	if err != nil {
		t.Fatal(err)
	}
	var first []int
	for _, p := range sep.Phases[0].Paths {
		first = append(first, p.Vertices...)
	}
	if got := balanceOf(r.G, first); got > 2*r.G.N()/3 {
		t.Fatalf("first phase leaves component of %d > 2n/3 = %d", got, 2*r.G.N()/3)
	}
}

func TestCertifyRejectsBadSeparators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Cycle(8, graph.UnitWeights(), rng)
	// Not a path at all (0 and 4 are not adjacent).
	bad := &Separator{Phases: []Phase{{Paths: []Path{{Vertices: []int{0, 4}}}}}}
	if err := Certify(g, bad); err == nil {
		t.Fatal("non-path accepted")
	}
	// A real path but unbalanced: removing one vertex of C8 leaves 7 > 4.
	unbalanced := &Separator{Phases: []Phase{{Paths: []Path{{Vertices: []int{0}}}}}}
	if err := Certify(g, unbalanced); err == nil {
		t.Fatal("unbalanced separator accepted")
	}
	// Not a shortest path: 0-1-2-3-4-5 in C8 (the other way is shorter).
	long := &Separator{Phases: []Phase{{Paths: []Path{{Vertices: []int{0, 1, 2, 3, 4, 5}}}}}}
	if err := Certify(g, long); err == nil {
		t.Fatal("non-shortest path accepted")
	}
	// Valid: the path 0-1 plus path 4-5 halves C8.
	good := &Separator{Phases: []Phase{{Paths: []Path{
		{Vertices: []int{0, 1}}, {Vertices: []int{4, 5}},
	}}}}
	if err := Certify(g, good); err != nil {
		t.Fatal(err)
	}
	// Duplicate vertex across phases rejected.
	dup := &Separator{Phases: []Phase{
		{Paths: []Path{{Vertices: []int{0, 1}}}},
		{Paths: []Path{{Vertices: []int{1, 2}}}},
	}}
	if err := Certify(g, dup); err == nil {
		t.Fatal("phase overlap accepted")
	}
}

func TestCertifyPhaseSemantics(t *testing.T) {
	// A path that is shortest only AFTER an earlier phase removes a
	// shortcut: C6 with a chord. Removing the chord endpoints first makes
	// the long way a shortest path in the residual.
	b := graph.NewBuilder(6)
	for i := 0; i < 6; i++ {
		b.AddEdge(i, (i+1)%6, 1)
	}
	b.AddEdge(0, 3, 1) // chord
	g := b.Build()
	// 1-2-3 is shortest in G only if... d(1,3)=2 both ways; path {1,2,3}
	// length 2 = d -> fine in G. Use a sharper case: path {5,4,3}: d(5,3)
	// via 0-3 chord is 1+1+... 5-0-3 = 2 = len(5,4,3). Still shortest.
	// Phase semantics direct test: phase 0 removes {0}, phase 1 removes
	// {2,3} — valid in residual.
	sep := &Separator{Phases: []Phase{
		{Paths: []Path{{Vertices: []int{0}}}},
		{Paths: []Path{{Vertices: []int{2, 3}}}},
	}}
	if err := Certify(g, sep); err != nil {
		t.Fatal(err)
	}
}

func TestSeparatorAccessors(t *testing.T) {
	s := &Separator{Phases: []Phase{
		{Paths: []Path{{Vertices: []int{1, 2, 3}}, {Vertices: []int{3, 4}}}},
		{Paths: []Path{{Vertices: []int{7}}}},
	}}
	if s.NumPaths() != 3 || s.NumPhases() != 2 {
		t.Fatalf("NumPaths=%d NumPhases=%d", s.NumPaths(), s.NumPhases())
	}
	vs := s.Vertices()
	if len(vs) != 5 { // 1,2,3,4,7 with the repeated 3 deduplicated
		t.Fatalf("Vertices = %v", vs)
	}
}

// TestResiduals checks the phase walk on the 7-cycle whose edge {i, i+1}
// weighs i+1: each residual graph keeps the vertices no earlier phase
// took, in ascending order, paths arrive in its IDs with prefix-weight
// positions, and every refusal names its phase and path.
func TestResiduals(t *testing.T) {
	b := graph.NewBuilder(7)
	for i := 0; i < 7; i++ {
		b.AddEdge(i, (i+1)%7, float64(i+1))
	}
	g := b.Build()
	type call struct {
		orig  []int
		paths []ResidualPath
	}
	var calls []call
	walk := func(sep *Separator) error {
		calls = nil
		return Residuals(g, sep, func(phase int, j *graph.Sub, paths []ResidualPath) error {
			if phase != len(calls) {
				t.Fatalf("phase %d visited as call %d", phase, len(calls))
			}
			calls = append(calls, call{j.Orig, paths})
			return nil
		})
	}
	if err := walk(&Separator{Phases: []Phase{
		{Paths: []Path{{Vertices: []int{1, 2, 3}}}},
		{Paths: []Path{{Vertices: []int{5, 4}}, {Vertices: []int{0}}}},
	}}); err != nil {
		t.Fatal(err)
	}
	want := []call{
		{[]int{0, 1, 2, 3, 4, 5, 6}, []ResidualPath{{Verts: []int{1, 2, 3}, Pos: []float64{0, 2, 5}}}},
		{[]int{0, 4, 5, 6}, []ResidualPath{{Verts: []int{2, 1}, Pos: []float64{0, 5}}, {Verts: []int{0}, Pos: []float64{0}}}},
	}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("walk = %+v, want %+v", calls, want)
	}

	one := func(vs ...int) Path { return Path{Vertices: vs} }
	for _, c := range []struct {
		phases []Phase
		want   string
	}{
		{[]Phase{{Paths: []Path{one(1)}}, {}}, "phase 1 has no paths"},
		{[]Phase{{Paths: []Path{one(1), one()}}}, "phase 0 path 1 is empty"},
		{[]Phase{{Paths: []Path{one(1)}}, {Paths: []Path{one(0), one(7)}}}, "phase 1 path 1: vertex 7 out of range"},
		{[]Phase{{Paths: []Path{one(-1)}}}, "phase 0 path 0: vertex -1 out of range"},
		{[]Phase{{Paths: []Path{one(1)}}, {Paths: []Path{one(0), one(2, 1)}}}, "phase 1 path 1: vertex 1 already removed by an earlier phase"},
		{[]Phase{{Paths: []Path{one(3, 2), one(0, 2)}}}, "phase 0 path 1: 0-2 is not an edge"},
		{[]Phase{{Paths: []Path{one(1)}}, {Paths: []Path{one(0, 2)}}}, "phase 1 path 0: 0-2 is not an edge"},
	} {
		err := walk(&Separator{Phases: c.phases})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.phases, err, c.want)
		}
	}

	// The walk stops at fn's first error and returns it.
	stop := errors.New("stop")
	visits := 0
	err := Residuals(g, &Separator{Phases: []Phase{{Paths: []Path{one(1)}}, {Paths: []Path{one(4)}}}},
		func(int, *graph.Sub, []ResidualPath) error { visits++; return stop })
	if !errors.Is(err, stop) || visits != 1 {
		t.Errorf("fn error: err = %v after %d visits, want %v after 1", err, visits, stop)
	}
}
