// Path-reporting benchmarks and the make-check path gate.
//
// BenchmarkQueryPathFlat times Flat.QueryPath over the shared 64x64 grid
// CoverPortal fixture with a reused vertex buffer — the steady-state
// serving shape. BenchmarkQueryPathBatch times the batched form.
//
// TestPathServingGate (run with BENCH_PATH_GATE=1, wired into make check
// via the bench-path target) is the CI gate: with reused caller buffers a
// path query must allocate nothing and cost at most 2x a distance-only
// flat query on the same pairs — the walk assembly is O(len(path)) on
// top of the same merge-join, so a larger gap means the argmin or walk
// code regressed.
// The measured numbers land in .bench_build/BENCH_path.json.
package pathsep_test

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

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

	// Both sides are timed over the same pathBlock-pair blocks, the
	// distance queries first and the path queries of the same pairs right
	// after. Timed in separate loops over the whole pair set instead, the
	// distance loop runs with only the lane warm while the path loop also
	// streams the walk layout, and the ratio swings with the machine's
	// caches. Here the path queries find the lane lines the distance
	// queries just fetched, so the ratio prices what the argmin replay
	// and the walk add to a sweep. The gate takes the ratio of the two
	// sums and records the per-block ratios' spread.
	var buf []int32
	dist := func(blk []oracle.Pair) time.Duration {
		start := time.Now()
		for _, p := range blk {
			fx.fl.Query(int(p.U), int(p.V))
		}
		return time.Since(start)
	}
	path := func(blk []oracle.Pair) time.Duration {
		start := time.Now()
		for _, p := range blk {
			_, buf, _ = fx.fl.QueryPath(int(p.U), int(p.V), buf)
		}
		return time.Since(start)
	}
	// One untimed pass of each warms the code and the caller buffer.
	dist(fx.pairs)
	path(fx.pairs)
	var distSum, pathSum time.Duration
	var ratios []float64
	for round := 0; round < pathRounds; round++ {
		for lo := 0; lo+pathBlock <= len(fx.pairs); lo += pathBlock {
			blk := fx.pairs[lo : lo+pathBlock]
			d := dist(blk)
			pp := path(blk)
			distSum += d
			pathSum += pp
			ratios = append(ratios, float64(pp)/float64(d))
		}
	}
	blocks := len(ratios)
	ratio := float64(pathSum) / float64(distSum)
	distNs := float64(distSum.Nanoseconds()) / float64(blocks*pathBlock)
	pathNs := float64(pathSum.Nanoseconds()) / float64(blocks*pathBlock)
	sort.Float64s(ratios)
	median := ratios[blocks/2]
	spread := max(median-ratios[blocks/4], ratios[3*blocks/4]-median)

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
		"dist_ns_per_op":             distNs,
		"path_ns_per_op":             pathNs,
		"ratio":                      ratio,
		"blocks":                     blocks,
		"block_pairs":                pathBlock,
		"ratio_spread":               spread,
		"max_ratio":                  maxPathRatio,
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
	t.Logf("wrote BENCH_path.json: dist=%.0fns path=%.0fns ratio=%.2fx (per-block median %.2fx, quartiles within ±%.2f) allocs=%.2f",
		distNs, pathNs, ratio, median, spread, allocs)

	if allocs != 0 {
		t.Fatalf("Flat.QueryPath allocated: %.2f allocs per 64-query loop with a warm buffer, want 0", allocs)
	}
	if ratio > maxPathRatio {
		t.Fatalf("path query costs %.2fx a distance query (path %.0fns, dist %.0fns), budget %.1fx", ratio, pathNs, distNs, maxPathRatio)
	}
}

// The path gate's shape: pathRounds passes over the pair set in
// pathBlock-pair blocks. maxPathRatio is the witness budget: the walk
// assembly is O(len(path)) on top of the same merge-join, and with both
// sides timed on the same blocks a healthy QueryPath costs ~1.6–1.8× a
// distance query, so a third more time in the argmin or walk code
// crosses 2.0×.
const (
	pathRounds   = 16
	pathBlock    = 256
	maxPathRatio = 2.0
)
