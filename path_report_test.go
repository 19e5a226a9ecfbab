// Differential gate for path reporting: every walk returned by
// Oracle.QueryPath / Flat.QueryPath must be a real walk in the graph
// (consecutive vertices joined by edges), start at u, end at v, and
// weigh exactly the reported (1+ε) distance — which in turn must bound
// the true distance from below (up to float tolerance) and, in exact
// mode, from above by (1+ε). The ground truth is the parent-tracking
// bidirectional Dijkstra. Pointer, frozen-flat and decoded-flat forms
// must agree vertex for vertex across worker counts, or the determinism
// story of the flat image is broken.
package pathsep_test

import (
	"math"
	"math/rand"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
	"pathsep/internal/routing"
	"pathsep/internal/shortest"
)

func toIntPath(p []int32) []int {
	out := make([]int, len(p))
	for i, v := range p {
		out[i] = int(v)
	}
	return out
}

func samePath(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkWalk validates one reported walk against the graph and the
// reported distance, and returns the true distance for stretch checks.
func checkWalk(t *testing.T, g *graph.Graph, u, v int, dist float64, path []int32) float64 {
	t.Helper()
	truth, truthPath := shortest.BidirectionalPath(g, u, v)
	if math.IsInf(dist, 1) {
		if !math.IsInf(truth, 1) {
			t.Fatalf("(%d,%d): reported unreachable but true distance %v", u, v, truth)
		}
		if len(path) != 0 {
			t.Fatalf("(%d,%d): unreachable pair reported path %v", u, v, path)
		}
		return truth
	}
	if len(truthPath) > 0 {
		if tw, ok := shortest.PathLength(g, truthPath); !ok || !core.ApproxDistEq(tw, truth, 1e-9) {
			t.Fatalf("(%d,%d): BidirectionalPath witness weighs %v (ok=%v), distance says %v", u, v, tw, ok, truth)
		}
	}
	if len(path) == 0 {
		t.Fatalf("(%d,%d): finite distance %v with empty path", u, v, dist)
	}
	if int(path[0]) != u || int(path[len(path)-1]) != v {
		t.Fatalf("(%d,%d): path endpoints %d..%d", u, v, path[0], path[len(path)-1])
	}
	w, ok := shortest.PathLength(g, toIntPath(path))
	if !ok {
		t.Fatalf("(%d,%d): reported path %v steps off the graph's edges", u, v, path)
	}
	if !core.ApproxDistEq(w, dist, 1e-9) {
		t.Fatalf("(%d,%d): path weighs %v but reported distance is %v", u, v, w, dist)
	}
	if dist < truth-1e-9 {
		t.Fatalf("(%d,%d): reported %v under true distance %v", u, v, dist, truth)
	}
	return truth
}

func TestPathReportDifferential(t *testing.T) {
	const eps = 0.25
	for name, fam := range parallelFamilies(t) {
		fam := fam
		t.Run(name, func(t *testing.T) {
			dec, err := core.Decompose(fam.g, core.Options{Strategy: core.Auto{}, Rot: fam.rot})
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []oracle.Mode{oracle.CoverExact, oracle.CoverPortal} {
				modeName := mode.String()
				t.Run(modeName, func(t *testing.T) {
					var refPaths map[[2]int][]int32
					for _, workers := range []int{1, 2, 4, 0} {
						o, err := oracle.Build(dec, oracle.Options{Epsilon: eps, Mode: mode, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						fl, err := o.Freeze()
						if err != nil {
							t.Fatal(err)
						}
						fl2, err := oracle.DecodeFlat(fl.Encode())
						if err != nil {
							t.Fatal(err)
						}

						n := fam.g.N()
						rng := rand.New(rand.NewSource(int64(97 + n)))
						pairs := [][2]int{{0, n - 1}, {n - 1, 0}, {3, 3}, {-1, 4}, {4, n}}
						for i := 0; i < 40; i++ {
							pairs = append(pairs, [2]int{rng.Intn(n), rng.Intn(n)})
						}
						if refPaths == nil {
							refPaths = make(map[[2]int][]int32)
						}
						var buf, buf2, buf3 []int32
						for _, pr := range pairs {
							u, v := pr[0], pr[1]
							var dist float64
							dist, buf, err = o.QueryPath(u, v, buf)
							if err != nil {
								t.Fatalf("(%d,%d) pointer QueryPath: %v", u, v, err)
							}
							if q := o.Query(u, v); !core.SameDist(dist, q) {
								t.Fatalf("(%d,%d): QueryPath distance %v != Query %v", u, v, dist, q)
							}
							var fdist float64
							fdist, buf2, err = fl.QueryPath(u, v, buf2)
							if err != nil {
								t.Fatalf("(%d,%d) flat QueryPath: %v", u, v, err)
							}
							if !core.SameDist(dist, fdist) {
								t.Fatalf("(%d,%d): flat distance %v != pointer %v", u, v, fdist, dist)
							}
							if !samePath(buf, buf2) {
								t.Fatalf("(%d,%d): flat path %v != pointer path %v", u, v, buf2, buf)
							}
							var ddist float64
							ddist, buf3, err = fl2.QueryPath(u, v, buf3)
							if err != nil {
								t.Fatalf("(%d,%d) decoded-flat QueryPath: %v", u, v, err)
							}
							if !core.SameDist(dist, ddist) || !samePath(buf, buf3) {
								t.Fatalf("(%d,%d): decoded image disagrees (%v %v vs %v %v)", u, v, ddist, buf3, dist, buf)
							}

							if u < 0 || v < 0 || u >= n || v >= n {
								if !math.IsInf(dist, 1) || len(buf) != 0 {
									t.Fatalf("(%d,%d): malformed ids reported %v %v", u, v, dist, buf)
								}
								continue
							}
							if u == v {
								if !core.IsZeroDist(dist) || len(buf) != 1 || int(buf[0]) != u {
									t.Fatalf("(%d,%d): self query reported %v %v", u, v, dist, buf)
								}
								continue
							}
							truth := checkWalk(t, fam.g, u, v, dist, buf)
							if mode == oracle.CoverExact && !math.IsInf(truth, 1) {
								if dist > (1+eps)*truth*(1+1e-9) {
									t.Fatalf("(%d,%d): exact-mode distance %v exceeds (1+ε)·%v", u, v, dist, truth)
								}
							}

							key := [2]int{u, v}
							if prev, ok := refPaths[key]; ok {
								if !samePath(prev, buf) {
									t.Fatalf("workers=%d: (%d,%d) path %v differs from reference %v", workers, u, v, buf, prev)
								}
							} else {
								refPaths[key] = append([]int32(nil), buf...)
							}
						}

						// Batch form: CSR segments must match the one-shot
						// answers.
						qp := []oracle.Pair{{U: 0, V: int32(n - 1)}, {U: 2, V: 2}, {U: 1, V: int32(n / 2)}}
						dists, verts, offs, err := fl.QueryPathBatch(qp, nil, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						for i, pr := range qp {
							var d float64
							d, buf, _ = fl.QueryPath(int(pr.U), int(pr.V), buf)
							if !core.SameDist(d, dists[i]) || !samePath(buf, verts[offs[i]:offs[i+1]]) {
								t.Fatalf("batch pair %d disagrees with QueryPath", i)
							}
						}
					}
				})
			}
		})
	}
}

// TestRoutedVsReportedPath cross-checks the two witnesses of the serving
// stack: the routed walk of the compact routing scheme and the reported
// path of the oracle must both realize distances within their combined
// stretch budgets of each other.
func TestRoutedVsReportedPath(t *testing.T) {
	fams := parallelFamilies(t)
	fam := fams["grid"]
	dec, err := core.Decompose(fam.g, core.Options{Strategy: core.Auto{}, Rot: fam.rot})
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverExact})
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.Build(dec, routing.Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	n := fam.g.N()
	rng := rand.New(rand.NewSource(5))
	var buf []int32
	for i := 0; i < 25; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		var dist float64
		dist, buf, err = o.QueryPath(u, v, buf)
		if err != nil {
			t.Fatal(err)
		}
		truth := checkWalk(t, fam.g, u, v, dist, buf)
		routed, ok := r.Route(u, v, 4*n)
		if !ok {
			t.Fatalf("(%d,%d): routing failed to deliver", u, v)
		}
		rw := r.RouteWeight(routed)
		// Both walks overestimate the true distance by bounded stretch;
		// they need not be equal, but neither may undercut the truth and
		// the reported distance may not exceed the routed walk by more
		// than its own (1+ε) guarantee allows.
		if rw < truth-1e-9 {
			t.Fatalf("(%d,%d): routed weight %v under true distance %v", u, v, rw, truth)
		}
		if dist > (1.25)*rw*(1+1e-9) {
			t.Fatalf("(%d,%d): reported %v exceeds (1+ε)·routed %v", u, v, dist, rw)
		}
	}
}
