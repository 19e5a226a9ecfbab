// Path-reporting benchmarks and the make-check path gate.
//
// BenchmarkQueryPathFlat times Flat.QueryPath over the shared 64x64 grid
// CoverPortal fixture with a reused vertex buffer — the steady-state
// serving shape. BenchmarkQueryPathBatch times the batched form.
//
// TestPathServingGate (run with BENCH_PATH_GATE=1, wired into make check
// via the bench-path target) is the CI gate: with reused caller buffers a
// path query must allocate nothing and cost at most 2.5x a distance-only
// flat query — the walk assembly is O(len(path)) on top of the same
// merge-join, so a larger gap means the argmin or walk code regressed.
// The measured numbers land in .bench_build/BENCH_path.json.
package pathsep_test

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"pathsep/internal/oracle"
)

func BenchmarkQueryPathFlat(b *testing.B) {
	fx := newQueryFixture(b)
	var buf []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fx.pairs[i%len(fx.pairs)]
		_, buf, _ = fx.fl.QueryPath(int(p.U), int(p.V), buf)
	}
}

func BenchmarkQueryPathBatch(b *testing.B) {
	fx := newQueryFixture(b)
	var dists []float64
	var verts []int32
	var offs []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dists, verts, offs, _ = fx.fl.QueryPathBatch(fx.pairs, dists, verts, offs)
	}
}

func TestPathServingGate(t *testing.T) {
	if os.Getenv("BENCH_PATH_GATE") != "1" {
		t.Skip("set BENCH_PATH_GATE=1 to run the path serving gate")
	}
	fx := newQueryFixture(t)

	perOp := func(f func(p oracle.Pair)) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f(fx.pairs[i%len(fx.pairs)])
			}
		})
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	// Five interleaved rounds, per-side minimum wins: contention on a
	// shared runner only ever adds time, so the minimum over rounds is
	// the noise-floor estimate of each side's true cost. Interleaving
	// dist and path rounds keeps both sides sampling the same window,
	// and taking minima independently means one thrash spike cannot
	// poison both the numerator and the only clean denominator.
	var buf []int32
	dist, path := math.Inf(1), math.Inf(1)
	var ratios []float64
	for round := 0; round < 5; round++ {
		d := perOp(func(p oracle.Pair) { fx.fl.Query(int(p.U), int(p.V)) })
		pp := perOp(func(p oracle.Pair) {
			_, buf, _ = fx.fl.QueryPath(int(p.U), int(p.V), buf)
		})
		ratios = append(ratios, pp/d)
		if d < dist {
			dist = d
		}
		if pp < path {
			path = pp
		}
	}
	ratio := path / dist
	variance := 0.0
	for _, r := range ratios {
		if d := r - ratio; d > variance {
			variance = d
		}
	}

	// With a warm reused buffer QueryPath must be allocation-free; sample
	// across the pair set so short and long walks are both covered.
	warm := buf
	allocs := testing.AllocsPerRun(1000, func() {
		for _, p := range fx.pairs[:64] {
			_, warm, _ = fx.fl.QueryPath(int(p.U), int(p.V), warm)
		}
	})

	outJSON := map[string]interface{}{
		"grid":                       "64x64",
		"mode":                       "portal",
		"gomaxprocs":                 runtime.GOMAXPROCS(0),
		"dist_ns_per_op":             dist,
		"path_ns_per_op":             path,
		"ratio":                      ratio,
		"rounds":                     len(ratios),
		"ratio_spread":               variance,
		"max_ratio":                  2.5,
		"path_allocs_per_query_loop": allocs,
		"gate_enforced":              true,
	}
	f, err := createBenchJSON("BENCH_path.json")
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(outJSON); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_path.json: dist=%.0fns path=%.0fns ratio=%.2fx allocs=%.2f", dist, path, ratio, allocs)

	if allocs != 0 {
		t.Fatalf("Flat.QueryPath allocated: %.2f allocs per 64-query loop with a warm buffer, want 0", allocs)
	}
	// Budget 2.5x: the original 2x budget was calibrated against the AoS
	// sweep's ~490ns distance query. The lane layout cut the denominator
	// by ~15% while the walk's absolute overhead (argmin replay + chain
	// assembly, ~420ns) is independent of merge speed, so the same
	// healthy walk now reads as a higher ratio; 2.5 is the old budget
	// rescaled to the new distance floor plus shared-runner headroom. A
	// real regression in the argmin or walk code still trips it.
	if ratio > 2.5 {
		t.Fatalf("path query costs %.2fx a distance query (path %.0fns, dist %.0fns), budget 2.5x", ratio, path, dist)
	}
}
