// Batched query benchmark over the shared 64x64 grid fixture, which
// the path-reporting benchmarks and gate (bench_path_test.go) reuse. The
// single-query pointer-vs-flat benchmarks and the query-serving gate
// live with the reference label engine in internal/oracle
// (make bench-query).
package pathsep_test

import (
	"math/rand"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
)

// queryFixture builds the 64x64 grid CoverPortal oracle once per process
// and freezes it.
type queryFixture struct {
	fl    *oracle.Flat
	pairs []oracle.Pair
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
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverPortal})
	if err != nil {
		tb.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	n := r.G.N()
	pairs := make([]oracle.Pair, 4096)
	for i := range pairs {
		pairs[i] = oracle.Pair{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	sharedQueryFixture = &queryFixture{fl: fl, pairs: pairs}
	return sharedQueryFixture
}

func BenchmarkQueryBatch(b *testing.B) {
	fx := newQueryFixture(b)
	out := make([]float64, len(fx.pairs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = fx.fl.QueryBatch(fx.pairs, out)
	}
}
