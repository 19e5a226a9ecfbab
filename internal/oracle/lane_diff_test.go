// White-box differential coverage for the blocked sweep-lane layout.
//
// Build writes each entry's portal run into the sweep lane, one
// (Pos, Dist) record per portal, and the merge sweep folds over those.
// These tests pin the layout to its source of truth — the reference
// labels' []Portal runs, replayed from the same build records — field by
// field and fold by fold, across four graph families and both modes:
//
//   - every lane record must be a bit-exact transcription of its Portal
//     (Pos and Dist);
//   - the lane fold (sweepRec) must reproduce the classic AoS
//     two-pointer fold (pairMin) bit-for-bit on every matched key;
//   - Query/QueryPath must agree with the reference label walk;
//   - locality-scheduled batches must return results in caller order
//     byte-identically under any permutation of the pair list.
package oracle

import (
	"math"
	"math/rand"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
)

// laneFamilies builds the differential graph families: planar-ish grid,
// random tree (degenerate separators), 3D mesh plus an apex vertex
// (high-degree hub, skewed label sizes for the galloping path), and a
// 3-vertex path, fewer vertices than the widest pool the tests use, so
// some of the build's per-range stage-3 tasks own no vertex at all.
func laneFamilies(t *testing.T) map[string]struct {
	g   *graph.Graph
	rot *embed.Rotation
} {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	out := map[string]struct {
		g   *graph.Graph
		rot *embed.Rotation
	}{}
	grid := embed.Grid(8, 8, graph.UniformWeights(1, 4), rng)
	out["grid"] = struct {
		g   *graph.Graph
		rot *embed.Rotation
	}{grid.G, grid}
	out["random-tree"] = struct {
		g   *graph.Graph
		rot *embed.Rotation
	}{graph.RandomTree(150, graph.UniformWeights(1, 4), rng), nil}
	mesh := graph.Mesh3D(4, 4, 3, graph.UniformWeights(1, 3), rng)
	mn := mesh.N()
	b := graph.NewBuilder(mn + 1)
	for u := 0; u < mn; u++ {
		for _, h := range mesh.Neighbors(u) {
			if u < h.To {
				b.AddEdge(u, h.To, h.W)
			}
		}
	}
	for u := 0; u < mn; u++ {
		b.AddEdge(u, mn, 2.5)
	}
	out["mesh-apex"] = struct {
		g   *graph.Graph
		rot *embed.Rotation
	}{b.Build(), nil}
	out["path3"] = struct {
		g   *graph.Graph
		rot *embed.Rotation
	}{graph.Path(3, graph.UniformWeights(1, 4), rng), nil}
	return out
}

// laneBuild builds g's oracle in the given mode, freezes it, and replays
// the same build's records into the reference labels.
func laneBuild(t *testing.T, g *graph.Graph, rot *embed.Rotation, mode Mode) (*refOracle, *Flat) {
	t.Helper()
	dec, err := core.Decompose(g, core.Options{Strategy: core.Auto{}, Rot: rot})
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	opt := Options{Epsilon: 0.25, Mode: mode}
	o, err := Build(dec, opt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	f, err := o.Freeze()
	if err != nil {
		t.Fatalf("freeze: %v", err)
	}
	return refBuild(t, dec, opt, 0), f
}

// laneModes enumerates both cover modes with printable names.
var laneModes = []struct {
	mode Mode
	name string
}{{CoverExact, "exact"}, {CoverPortal, "portal"}}

// TestSweepLayoutDifferential pins the lanes to the reference labels'
// portal records, the lane fold to the classic label fold, and Query and
// QueryPath to the reference label walk, bit for bit.
func TestSweepLayoutDifferential(t *testing.T) {
	for fam, fx := range laneFamilies(t) {
		for _, m := range laneModes {
			ref, f := laneBuild(t, fx.g, fx.rot, m.mode)
			n := fx.g.N()

			// Field-level: each entry's lane run transcribes its Portal
			// run's Pos and Dist bits.
			ei := 0
			for u := 0; u < n; u++ {
				for _, e := range ref.labels[u].Entries {
					if f.keys[f.entryKey[ei]] != e.Key {
						t.Fatalf("%s/%s: entry %d key %v, labels say %v",
							fam, m.name, ei, f.keys[f.entryKey[ei]], e.Key)
					}
					lo, hi := int(f.portalOff[ei]), int(f.portalOff[ei+1])
					if hi-lo != len(e.Portals) {
						t.Fatalf("%s/%s: entry %d run %d portals, labels have %d",
							fam, m.name, ei, hi-lo, len(e.Portals))
					}
					for x, p := range e.Portals {
						rec := f.lane[lo+x]
						if rec.Pos != p.Pos ||
							math.Float64bits(rec.Dist) != math.Float64bits(p.Dist) {
							t.Fatalf("%s/%s: entry %d record %d = (%v,%v), portal (%v,%v)",
								fam, m.name, ei, x, rec.Pos, rec.Dist, p.Pos, p.Dist)
						}
					}
					ei++
				}
			}

			// Fold-level: for every matched entry pair of every vertex
			// pair, the lane fold equals the label two-pointer fold.
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					lu, lv := &ref.labels[u], &ref.labels[v]
					i, j := 0, 0
					for i < len(lu.Entries) && j < len(lv.Entries) {
						a, b := lu.Entries[i], lv.Entries[j]
						switch {
						case a.Key == b.Key:
							want := pairMin(a.Portals, b.Portals)
							ea := int(f.entryOff[u]) + i
							eb := int(f.entryOff[v]) + j
							got := sweepRec(f.lane[f.portalOff[ea]:f.portalOff[ea+1]], f.lane[f.portalOff[eb]:f.portalOff[eb+1]], math.Inf(1))
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s/%s: key fold (%d,%d) entry %d/%d: lane %v, labels %v",
									fam, m.name, u, v, i, j, got, want)
							}
							i++
							j++
						case keyLess(a.Key, b.Key):
							i++
						default:
							j++
						}
					}
				}
			}

			// End-to-end: flat Query and QueryPath against the reference
			// label walk on every pair, out-of-range IDs included.
			var buf, pbuf []int32
			for u := -1; u <= n; u++ {
				for v := -1; v <= n; v++ {
					want := ref.Query(u, v)
					if got := f.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s: Query(%d,%d) = %v, reference %v", fam, m.name, u, v, got, want)
					}
					wd, wp, werr := ref.QueryPath(u, v, buf[:0])
					gd, gp, gerr := f.QueryPath(u, v, pbuf[:0])
					buf, pbuf = wp, gp
					if math.Float64bits(gd) != math.Float64bits(wd) || (werr == nil) != (gerr == nil) {
						t.Fatalf("%s/%s: QueryPath(%d,%d) = (%v,%v), reference (%v,%v)",
							fam, m.name, u, v, gd, gerr, wd, werr)
					}
					if len(gp) != len(wp) {
						t.Fatalf("%s/%s: QueryPath(%d,%d) walk %v, reference %v", fam, m.name, u, v, gp, wp)
					}
					for x := range gp {
						if gp[x] != wp[x] {
							t.Fatalf("%s/%s: QueryPath(%d,%d) walk %v, reference %v", fam, m.name, u, v, gp, wp)
						}
					}
				}
			}
		}
	}
}

// TestBatchPermutationInvariance proves the locality scheduler is
// invisible: whatever order the scheduler visits pairs in, results land
// in caller slots, so any permutation of the same pair list returns the
// permuted copy of the same answers, byte for byte, at every worker
// count.
func TestBatchPermutationInvariance(t *testing.T) {
	for fam, fx := range laneFamilies(t) {
		for _, m := range laneModes {
			_, f := laneBuild(t, fx.g, fx.rot, m.mode)
			n := fx.g.N()
			rng := rand.New(rand.NewSource(29))
			pairs := make([]Pair, 512)
			for i := range pairs {
				pairs[i] = Pair{U: int32(rng.Intn(n+2) - 1), V: int32(rng.Intn(n+2) - 1)}
			}
			// Per-pair reference in caller order.
			want := make([]float64, len(pairs))
			for i, p := range pairs {
				want[i] = f.Query(int(p.U), int(p.V))
			}
			perm := rng.Perm(len(pairs))
			shuffled := make([]Pair, len(pairs))
			for i, x := range perm {
				shuffled[i] = pairs[x]
			}
			var out []float64
			for _, workers := range []int{1, 2, 4, 0} {
				out = f.QueryBatchWorkers(shuffled, out, workers)
				if len(out) != len(shuffled) {
					t.Fatalf("%s/%s: workers=%d returned %d results for %d pairs",
						fam, m.name, workers, len(out), len(shuffled))
				}
				for i, x := range perm {
					if math.Float64bits(out[i]) != math.Float64bits(want[x]) {
						t.Fatalf("%s/%s: workers=%d shuffled[%d] (pair %v) = %v, want %v",
							fam, m.name, workers, i, shuffled[i], out[i], want[x])
					}
				}
			}
		}
	}
}
