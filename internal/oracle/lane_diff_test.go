// White-box differential coverage for the blocked sweep-lane layout.
//
// The flat image no longer stores AoS portal records: Freeze/DecodeFlat
// derive per-entry lanes (pos, diff, suffix-min) plus a sum lane, and
// the merge sweep folds over those. These tests pin the layout to its
// AoS source of truth — the pointer oracle's []Portal runs — field by
// field and fold by fold, across three graph families and both modes:
//
//   - every lane record must be a bit-exact transcription of its Portal
//     (pos, Dist-Pos, suffix-min of Dist+Pos, and the sum lane);
//   - the lane fold (sweepRec) must reproduce the classic AoS
//     two-pointer fold (pairMin) bit-for-bit on every matched key;
//   - Query/QueryPath/QueryBatch must agree with the pointer oracle;
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

// laneFamilies builds the three differential graph families: planar-ish
// grid, random tree (degenerate separators), and 3D mesh plus an apex
// vertex (high-degree hub, skewed label sizes for the galloping path).
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
	return out
}

func laneBuild(t *testing.T, g *graph.Graph, rot *embed.Rotation, mode Mode) (*Oracle, *Flat) {
	t.Helper()
	dec, err := core.Decompose(g, core.Options{Strategy: core.Auto{}, Rot: rot})
	if err != nil {
		t.Fatalf("decompose: %v", err)
	}
	o, err := Build(dec, Options{Epsilon: 0.25, Mode: mode})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	f, err := o.Freeze()
	if err != nil {
		t.Fatalf("freeze: %v", err)
	}
	return o, f
}

// laneModes enumerates both cover modes with printable names.
var laneModes = []struct {
	mode Mode
	name string
}{{CoverExact, "exact"}, {CoverPortal, "portal"}}

// TestSweepLayoutDifferential pins the derived lanes to the AoS portal
// records and the lane fold to the classic AoS fold, bit for bit.
func TestSweepLayoutDifferential(t *testing.T) {
	for fam, fx := range laneFamilies(t) {
		for _, m := range laneModes {
			o, f := laneBuild(t, fx.g, fx.rot, m.mode)
			n := fx.g.N()

			// Field-level: each entry's lane run transcribes its Portal
			// run's Pos and Dist bits, and the suffix-min lane is the
			// backward fold of fl(Dist+Pos) under strict <.
			ei := 0
			for u := 0; u < n; u++ {
				for _, e := range o.Labels[u].Entries {
					if f.keys[f.entryKey[ei]] != e.Key {
						t.Fatalf("%s/%s: entry %d key %v, labels say %v",
							fam, m.name, ei, f.keys[f.entryKey[ei]], e.Key)
					}
					lo, hi := int(f.portalOff[ei]), int(f.portalOff[ei+1])
					if hi-lo != len(e.Portals) {
						t.Fatalf("%s/%s: entry %d run %d portals, labels have %d",
							fam, m.name, ei, hi-lo, len(e.Portals))
					}
					sm := math.Inf(1)
					for x := len(e.Portals) - 1; x >= 0; x-- {
						p := e.Portals[x]
						if s := p.Dist + p.Pos; s < sm {
							sm = s
						}
						rec := f.lane[3*(lo+x) : 3*(lo+x)+3]
						if rec[0] != p.Pos ||
							math.Float64bits(rec[1]) != math.Float64bits(p.Dist) ||
							math.Float64bits(rec[2]) != math.Float64bits(sm) {
							t.Fatalf("%s/%s: entry %d record %d = (%v,%v,%v), portal (%v,%v) suffix-min %v",
								fam, m.name, ei, x, rec[0], rec[1], rec[2], p.Pos, p.Dist, sm)
						}
					}
					ei++
				}
			}

			// Fold-level: for every matched entry pair of every vertex
			// pair, the lane fold equals the AoS two-pointer fold.
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					lu, lv := &o.Labels[u], &o.Labels[v]
					i, j := 0, 0
					for i < len(lu.Entries) && j < len(lv.Entries) {
						a, b := lu.Entries[i], lv.Entries[j]
						switch {
						case a.Key == b.Key:
							want := pairMin(a.Portals, b.Portals)
							ea := int(f.entryOff[u]) + i
							eb := int(f.entryOff[v]) + j
							ia0, kA := int(f.portalOff[ea]), 3*int(f.portalOff[ea+1]-f.portalOff[ea])
							ib0, kB := int(f.portalOff[eb]), 3*int(f.portalOff[eb+1]-f.portalOff[eb])
							got := sweepRec(f.lane[3*ia0:3*ia0+kA], f.lane[3*ib0:3*ib0+kB], kA, kB, math.Inf(1))
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s/%s: key fold (%d,%d) entry %d/%d: lane %v, AoS %v",
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

			// End-to-end: flat Query and QueryPath against the pointer
			// oracle on a pair sample (all pairs for the smaller grid).
			var buf, pbuf []int32
			for u := -1; u <= n; u++ {
				for v := -1; v <= n; v++ {
					want := o.Query(u, v)
					if got := f.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s/%s: Query(%d,%d) = %v, pointer %v", fam, m.name, u, v, got, want)
					}
					wd, wp, werr := o.QueryPath(u, v, buf[:0])
					gd, gp, gerr := f.QueryPath(u, v, pbuf[:0])
					buf, pbuf = wp, gp
					if math.Float64bits(gd) != math.Float64bits(wd) || (werr == nil) != (gerr == nil) {
						t.Fatalf("%s/%s: QueryPath(%d,%d) = (%v,%v), pointer (%v,%v)",
							fam, m.name, u, v, gd, gerr, wd, werr)
					}
					if len(gp) != len(wp) {
						t.Fatalf("%s/%s: QueryPath(%d,%d) walk %v, pointer %v", fam, m.name, u, v, gp, wp)
					}
					for x := range gp {
						if gp[x] != wp[x] {
							t.Fatalf("%s/%s: QueryPath(%d,%d) walk %v, pointer %v", fam, m.name, u, v, gp, wp)
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
