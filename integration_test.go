package pathsep_test

import (
	"math"
	"math/rand"
	"testing"

	"pathsep"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/shortest"
)

// TestGrandIntegration drives the full pipeline on a random planar graph
// handed over WITHOUT an embedding: DMP planarization inside Auto, a
// certified decomposition, the exact-cover oracle audited against its
// guarantee, label round-trips, compact routing with delivery and the
// stretch cap, and the small-world augmentation — every deliverable in
// one flow.
func TestGrandIntegration(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	// Random planar graph: Apollonian with 25% of edges dropped (keeps
	// planarity, creates cut vertices and irregular faces), embedding
	// deliberately discarded.
	full := embed.Apollonian(180, graph.UniformWeights(1, 5), rng).G
	b := pathsep.NewBuilder(full.N())
	full.Edges(func(u, v int, w float64) {
		if rng.Float64() < 0.75 {
			b.AddEdge(u, v, w)
		}
	})
	g := b.Build()

	dec, err := pathsep.Decompose(g, pathsep.Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if dec.MaxK > 5 {
		t.Errorf("maxK = %d on a planar graph; self-planarization should keep it small", dec.MaxK)
	}

	const eps = 0.2
	orc, err := pathsep.NewOracle(dec, pathsep.OracleOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 150; trial++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		d := shortest.Dijkstra(g, u).Dist[v]
		est := orc.Query(u, v)
		if math.IsInf(d, 1) {
			if !math.IsInf(est, 1) {
				t.Fatalf("estimate %v for disconnected pair", est)
			}
			continue
		}
		if est < d-1e-9 || est > (1+eps)*d+1e-9 {
			t.Fatalf("oracle out of bounds: est %v, true %v", est, d)
		}
		if lbl := pathsep.QueryLabels(orc.Label(u), orc.Label(v)); u != v && lbl != est {
			t.Fatalf("label query %v != oracle %v", lbl, est)
		}
	}

	router, err := pathsep.NewRouter(dec, pathsep.RouterOptions{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		s, tgt := rng.Intn(g.N()), rng.Intn(g.N())
		d := shortest.Dijkstra(g, s).Dist[tgt]
		path, ok := router.Route(s, tgt, 50*g.N())
		if math.IsInf(d, 1) {
			if ok && s != tgt {
				t.Fatalf("routed across components: %v", path)
			}
			continue
		}
		if !ok {
			t.Fatalf("no delivery %d -> %d", s, tgt)
		}
		if w := router.RouteWeight(path); d > 0 && w > 3*d+1e-9 {
			t.Fatalf("routing stretch %v > 3", w/d)
		}
	}

	aug, err := pathsep.Augment(dec, pathsep.SmallWorldPathSeparator, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := pathsep.GreedyRouteStats(aug, 50, rng)
	if st.Delivered < 45 { // disconnected pairs are skipped, not failed
		t.Fatalf("small-world delivery: %+v", st)
	}
}
