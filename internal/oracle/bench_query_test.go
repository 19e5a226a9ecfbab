// Query-serving benchmarks and the make-check speedup gate.
//
// BenchmarkQueryPointer / BenchmarkQueryFlat time single queries over the
// 4k-vertex grid's CoverPortal oracle: the reference label walk (the
// pointer engine the tests keep) and the flat engine that serves the
// build rows and the frozen image.
//
// TestQueryServingGate (run with BENCH_QUERY_GATE=1, as make bench-query
// does) is the CI gate: the flat engine must answer queries >= 1.5x
// faster than the label walk and Flat.Query must allocate nothing; the
// measured numbers are recorded in .bench_build/BENCH_query.json at the
// repository root. Unlike the parallel-build gate this one holds on a single-core
// runner too — the flat layout's win is locality and interned key
// compares, not parallelism.
package oracle

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
)

// benchQueryDir is where the gate records its numbers, relative to this
// package: the repository's ignored .bench_build directory, beside the
// other BENCH_*.json files.
const benchQueryDir = "../../.bench_build"

// queryFixture builds the 64x64 grid CoverPortal oracle once per process,
// freezes it and replays the reference labels; the benchmarks and the
// gate share it.
type queryFixture struct {
	ref   *refOracle
	fl    *Flat
	pairs []Pair
}

var sharedQueryFixture *queryFixture

func newQueryFixture(tb testing.TB) *queryFixture {
	tb.Helper()
	if sharedQueryFixture != nil {
		return sharedQueryFixture
	}
	rng := rand.New(rand.NewSource(17))
	r := embed.Grid(64, 64, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		tb.Fatal(err)
	}
	opt := Options{Epsilon: 0.25, Mode: CoverPortal}
	o, err := Build(dec, opt)
	if err != nil {
		tb.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	n := r.G.N()
	pairs := make([]Pair, 4096)
	for i := range pairs {
		pairs[i] = Pair{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	sharedQueryFixture = &queryFixture{ref: refBuild(tb, dec, opt, 0), fl: fl, pairs: pairs}
	return sharedQueryFixture
}

func BenchmarkQueryPointer(b *testing.B) {
	fx := newQueryFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fx.pairs[i%len(fx.pairs)]
		fx.ref.Query(int(p.U), int(p.V))
	}
}

func BenchmarkQueryFlat(b *testing.B) {
	fx := newQueryFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fx.pairs[i%len(fx.pairs)]
		fx.fl.Query(int(p.U), int(p.V))
	}
}

func TestQueryServingGate(t *testing.T) {
	if os.Getenv("BENCH_QUERY_GATE") != "1" {
		t.Skip("set BENCH_QUERY_GATE=1 to run the query serving gate")
	}
	fx := newQueryFixture(t)

	perOp := func(f func(p Pair)) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f(fx.pairs[i%len(fx.pairs)])
			}
		})
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}

	// Three paired rounds, best ratio wins — bench-path's protocol.
	// Scheduler noise on a shared runner only ever inflates a
	// measurement, so judging one unpaired run makes the gate flaky in
	// both directions; pairing pointer and flat inside each round and
	// taking the round with the best ratio is the faithful estimate.
	// The per-round flat measurements also yield a recorded relative
	// variance, so a noisy run is visible in BENCH_query.json.
	const rounds = 3
	pointer, flat := 0.0, 0.0
	speedup := 0.0
	flatMin, flatMax := math.Inf(1), 0.0
	out := make([]float64, len(fx.pairs))
	batchQPS := 0.0
	for round := 0; round < rounds; round++ {
		po := perOp(func(p Pair) { fx.ref.Query(int(p.U), int(p.V)) })
		fl := perOp(func(p Pair) { fx.fl.Query(int(p.U), int(p.V)) })
		if s := po / fl; s > speedup {
			pointer, flat, speedup = po, fl, s
		}
		flatMin = math.Min(flatMin, fl)
		flatMax = math.Max(flatMax, fl)
		batchRes := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out = fx.fl.QueryBatch(fx.pairs, out)
			}
		})
		if qps := float64(batchRes.N) * float64(len(fx.pairs)) / batchRes.T.Seconds(); qps > batchQPS {
			batchQPS = qps
		}
	}
	variance := (flatMax - flatMin) / flatMin

	// Flat.Query must be allocation-free; sample across the pair set so
	// short and long labels are both covered.
	allocs := testing.AllocsPerRun(1000, func() {
		for _, p := range fx.pairs[:64] {
			fx.fl.Query(int(p.U), int(p.V))
		}
	})
	// The warm batch path (reused output buffer) must be allocation-free
	// too: the scheduling scratch lives on the stack and the serial fast
	// path runs without a pool.
	batchAllocs := testing.AllocsPerRun(100, func() {
		out = fx.fl.QueryBatch(fx.pairs, out)
	})

	outJSON := map[string]interface{}{
		"grid":                       "64x64",
		"mode":                       "portal",
		"gomaxprocs":                 runtime.GOMAXPROCS(0),
		"pointer_ns_per_op":          pointer,
		"flat_ns_per_op":             flat,
		"speedup":                    speedup,
		"required_speedup":           1.5,
		"rounds":                     rounds,
		"variance":                   variance,
		"flat_allocs_per_query_loop": allocs,
		"batch_allocs_per_batch":     batchAllocs,
		"batch_qps":                  batchQPS,
		"flat_encoded_bytes":         fx.fl.EncodedSize(),
	}
	if err := os.MkdirAll(benchQueryDir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(benchQueryDir + "/BENCH_query.json")
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
	t.Logf("wrote BENCH_query.json: pointer=%.0fns flat=%.0fns speedup=%.2fx variance=%.1f%% batch=%.0f qps", pointer, flat, speedup, variance*100, batchQPS)

	if allocs != 0 {
		t.Fatalf("Flat.Query allocated: %.2f allocs per 64-query loop, want 0", allocs)
	}
	if batchAllocs != 0 {
		t.Fatalf("Flat.QueryBatch allocated: %.2f allocs per warm batch, want 0", batchAllocs)
	}
	if speedup < 1.5 {
		t.Fatalf("flat query speedup %.2fx < required 1.5x (pointer %.0fns, flat %.0fns)", speedup, pointer, flat)
	}
}
