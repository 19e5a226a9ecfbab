// Differential and race coverage for the parallel construction pipeline:
// the worker pool must produce byte-identical oracle encodings for every
// worker count, and the query surface must be safe to hammer concurrently
// with metrics snapshots (run with -race).
package pathsep_test

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pathsep"
	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
)

// meshApex is the Section 5.3 pairing: a 3-D mesh plus an apex vertex
// adjacent to every mesh vertex — a family with unbounded k where the
// decomposition exercises the phased (non-planar, non-tree) strategies.
func meshApex(rng *rand.Rand) *graph.Graph {
	mesh := graph.Mesh3D(4, 4, 3, graph.UniformWeights(1, 3), rng)
	n := mesh.N()
	b := graph.NewBuilder(n + 1)
	for u := 0; u < n; u++ {
		for _, h := range mesh.Neighbors(u) {
			if u < h.To {
				b.AddEdge(u, h.To, h.W)
			}
		}
	}
	for u := 0; u < n; u++ {
		b.AddEdge(u, n, 2.5)
	}
	return b.Build()
}

func parallelFamilies(t *testing.T) map[string]struct {
	g   *graph.Graph
	rot *embed.Rotation
} {
	t.Helper()
	out := map[string]struct {
		g   *graph.Graph
		rot *embed.Rotation
	}{}
	rng := rand.New(rand.NewSource(11))
	grid := embed.Grid(8, 8, graph.UniformWeights(1, 4), rng)
	out["grid"] = struct {
		g   *graph.Graph
		rot *embed.Rotation
	}{grid.G, grid}
	out["random-tree"] = struct {
		g   *graph.Graph
		rot *embed.Rotation
	}{graph.RandomTree(150, graph.UniformWeights(1, 4), rng), nil}
	out["mesh-apex"] = struct {
		g   *graph.Graph
		rot *embed.Rotation
	}{meshApex(rng), nil}
	// Fewer vertices than the widest pool the tests use, so some of the
	// build's per-range stage-3 tasks own no vertex at all.
	out["path3"] = struct {
		g   *graph.Graph
		rot *embed.Rotation
	}{graph.Path(3, graph.UniformWeights(1, 4), rng), nil}
	return out
}

// TestParallelBuildDifferential is the determinism contract: for three
// graph families and both oracle modes, workers=1 (the serial reference)
// and workers>1 must produce identical decomposition shapes and
// byte-identical frozen images.
func TestParallelBuildDifferential(t *testing.T) {
	for name, fam := range parallelFamilies(t) {
		for _, mode := range []oracle.Mode{oracle.CoverExact, oracle.CoverPortal} {
			modeName := "exact"
			if mode == oracle.CoverPortal {
				modeName = "portal"
			}
			var refEnc []byte
			var refDec *core.Tree
			for _, workers := range []int{1, 2, 4, 0} {
				dec, err := core.Decompose(fam.g, core.Options{
					Strategy: core.Auto{}, Rot: fam.rot, Workers: workers,
				})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: decompose: %v", name, modeName, workers, err)
				}
				o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: mode, Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: build: %v", name, modeName, workers, err)
				}
				fl, err := o.Freeze()
				if err != nil {
					t.Fatalf("%s/%s workers=%d: freeze: %v", name, modeName, workers, err)
				}
				enc := fl.Encode()
				if workers == 1 {
					refEnc, refDec = enc, dec
					continue
				}
				if !bytes.Equal(enc, refEnc) {
					t.Fatalf("%s/%s: workers=%d encoding differs from serial build (%d vs %d bytes)",
						name, modeName, workers, len(enc), len(refEnc))
				}
				if len(dec.Nodes) != len(refDec.Nodes) || dec.Depth != refDec.Depth ||
					dec.MaxK != refDec.MaxK || dec.TotalPaths != refDec.TotalPaths {
					t.Fatalf("%s/%s: workers=%d decomposition shape differs from serial build",
						name, modeName, workers)
				}
				for v := range dec.Home {
					if dec.Home[v] != refDec.Home[v] {
						t.Fatalf("%s/%s: workers=%d Home[%d] = %d, serial %d",
							name, modeName, workers, v, dec.Home[v], refDec.Home[v])
					}
				}
			}
		}
	}
}

// TestParallelAuditDeterministic pins AuditWorkers to the serial result
// for every pool width (same draws, same reduction order).
func TestParallelAuditDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	grid := embed.Grid(8, 8, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(grid.G, core.Options{Strategy: core.Auto{}, Rot: grid})
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverExact})
	if err != nil {
		t.Fatal(err)
	}
	audit := func(workers int) oracle.AuditResult {
		draws := rand.New(rand.NewSource(9))
		return o.AuditWorkers(grid.G, 80, draws.Intn, workers)
	}
	ref := audit(1)
	if ref.Pairs == 0 {
		t.Fatal("audit sampled no usable pairs")
	}
	for _, workers := range []int{2, 4, 0} {
		got := audit(workers)
		if got != ref {
			t.Fatalf("workers=%d audit %+v != serial %+v", workers, got, ref)
		}
	}
}

// TestQueryBoundsGuards covers the hardened query surface: malformed
// vertex IDs must degrade (Inf / failed route), never panic.
func TestQueryBoundsGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grid := pathsep.NewGrid(6, 6, pathsep.UniformWeights(1, 3), rng)
	dec, err := pathsep.Decompose(grid.G, pathsep.Options{Embedding: grid})
	if err != nil {
		t.Fatal(err)
	}
	o, err := pathsep.NewOracle(dec, pathsep.OracleOptions{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	n := grid.G.N()
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {n, 0}, {0, n}, {-7, n + 3}} {
		if d := o.Query(pair[0], pair[1]); !math.IsInf(d, 1) {
			t.Fatalf("Query(%d,%d) = %v, want +Inf", pair[0], pair[1], d)
		}
	}
	if d := pathsep.QueryLabels(nil, &o.Labels[0]); !math.IsInf(d, 1) {
		t.Fatalf("QueryLabels(nil, l) = %v, want +Inf", d)
	}

	r, err := pathsep.NewRouter(dec, pathsep.RouterOptions{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{-1, 0}, {0, n}, {n + 2, -4}} {
		if path, ok := r.Route(pair[0], pair[1], 4*n); ok || path != nil {
			t.Fatalf("Route(%d,%d) = (%v, %v), want (nil, false)", pair[0], pair[1], path, ok)
		}
		if est, path, ok := r.EstimateAndRoute(pair[0], pair[1], 4*n); ok || path != nil || !math.IsInf(est, 1) {
			t.Fatalf("EstimateAndRoute(%d,%d) = (%v, %v, %v)", pair[0], pair[1], est, path, ok)
		}
	}

	tree := pathsep.NewRandomTree(40, pathsep.UnitWeights(), rng)
	tl, err := pathsep.NewTreeLabeling(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{-1, 0}, {0, 40}, {99, -99}} {
		if d := tl.Query(pair[0], pair[1]); !math.IsInf(d, 1) {
			t.Fatalf("TreeLabeling.Query(%d,%d) = %v, want +Inf", pair[0], pair[1], d)
		}
	}
}

// TestEpsilonValidation covers the hardened eps contract at Build.
func TestEpsilonValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := pathsep.NewRandomTree(30, pathsep.UnitWeights(), rng)
	dec, err := pathsep.Decompose(g, pathsep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, -0.5, math.Inf(1), math.NaN()} {
		if _, err := pathsep.NewOracle(dec, pathsep.OracleOptions{Epsilon: eps}); err == nil {
			t.Fatalf("NewOracle accepted eps=%v", eps)
		}
	}
}

// TestQuerySnapshotRaceStress hammers Oracle.Query from several
// goroutines (per-goroutine rngs via SplitRand) while another goroutine
// drains metrics snapshots — the -race acceptance test for the
// lock-free instrumentation on the query path.
func TestQuerySnapshotRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	grid := embed.Grid(10, 10, graph.UniformWeights(1, 4), rng)
	reg := obs.New()
	dec, err := core.Decompose(grid.G, core.Options{Strategy: core.Auto{}, Rot: grid, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverExact, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, queries = 8, 400
	rngs := pathsep.SplitRand(rand.New(rand.NewSource(13)), goroutines)
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				snap := reg.Snapshot()
				if snap.Counters == nil {
					t.Error("snapshot lost its counters")
					return
				}
			}
		}
	}()
	n := grid.G.N()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				// Mix malformed IDs in so the bounds guard is raced too.
				u, v := r.Intn(n+2)-1, r.Intn(n+2)-1
				if d := o.Query(u, v); d < 0 {
					t.Errorf("Query(%d,%d) = %v", u, v, d)
					return
				}
			}
		}(rngs[i])
	}
	wg.Wait()
	close(stop)
	<-snapDone
}
