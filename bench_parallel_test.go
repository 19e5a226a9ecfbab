// Parallel-build benchmarks and the make-check speedup gate.
//
// BenchmarkParallelBuild times decomposition + oracle construction of the
// 4k-vertex grid at workers=1 (the serial reference) and workers=max.
//
// TestParallelBuildSpeedupGate (run with BENCH_PARALLEL_GATE=1) is the CI
// gate: with GOMAXPROCS >= 4 the parallel build must be >= 1.5x the
// serial build — a hard failure, not a skip — recorded in
// .bench_build/BENCH_parallel.json. On narrower machines the pool cannot reliably
// demonstrate a 1.5x win, so the gate records the measurement and stamps
// the JSON with an explicit "skipped": "single-core" marker instead of
// silently passing.
package pathsep_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
)

// benchDir is where the gate tests record their BENCH_*.json
// measurements: the ignored build directory bench/run.sh also uses, so
// running a gate never rewrites a tracked file.
const benchDir = ".bench_build"

// createBenchJSON creates the measurement file name under benchDir.
func createBenchJSON(name string) (*os.File, error) {
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(benchDir, name))
}

// buildParallel runs the full pipeline (decompose + portal oracle) on the
// 64x64 grid with the given pool width.
func buildParallel(tb testing.TB, workers int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(17))
	r := embed.Grid(64, 64, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r, Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverPortal, Workers: workers}); err != nil {
		tb.Fatal(err)
	}
}

func BenchmarkParallelBuild(b *testing.B) {
	b.Run("Workers1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildParallel(b, 1)
		}
	})
	b.Run("WorkersMax", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildParallel(b, 0)
		}
	})
}

func TestParallelBuildSpeedupGate(t *testing.T) {
	if os.Getenv("BENCH_PARALLEL_GATE") != "1" {
		t.Skip("set BENCH_PARALLEL_GATE=1 to run the parallel speedup gate")
	}

	time := func(workers int) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buildParallel(b, workers)
			}
		})
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	serial := time(1)
	parallel := time(0)
	speedup := serial / parallel

	enforced := runtime.GOMAXPROCS(0) >= 4
	out := map[string]interface{}{
		"grid":               "64x64",
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"serial_ns_per_op":   serial,
		"parallel_ns_per_op": parallel,
		"speedup":            speedup,
		"required_speedup":   1.5,
		"gate_enforced":      enforced,
	}
	if !enforced {
		out["skipped"] = "single-core"
	}
	f, err := createBenchJSON("BENCH_parallel.json")
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_parallel.json: serial=%.0fns parallel=%.0fns speedup=%.2fx", serial, parallel, speedup)

	if !enforced {
		t.Skipf("GOMAXPROCS=%d < 4: machine too narrow to demonstrate parallel speedup; measurement recorded with skipped=single-core marker, ratio not enforced", runtime.GOMAXPROCS(0))
	}
	if speedup < 1.5 {
		t.Fatalf("parallel build speedup %.2fx < required 1.5x (serial %.0fns, parallel %.0fns)", speedup, serial, parallel)
	}
}
