// Package analyzers collects the repo-specific go/analysis passes that
// enforce pathsep's correctness invariants — the rules the compiler cannot
// see but the theorems and the observability layer depend on:
//
//   - obsnilguard: obs handles stay nil-safe and are never copied by value
//   - seededrand:  randomness is injected and reproducible, never ambient
//   - floatcmp:    float64 distances are compared through epsilon helpers
//   - subgraphmut: shared adjacency storage is never mutated downstream
//   - errctx:      errors are wrapped with %w and never silently dropped
//   - hotalloc:    //pathsep:hotpath query functions stay allocation-free
//   - maporder:    map-range results never reach encoders or other
//     order-sensitive sinks without a sort barrier
//   - slotwrite:   par.ForEach/Fork tasks write only task-index-disjoint
//     slots, never shared appends/maps/scalars
//   - sortcmp:     sort.Slice less-functions are strict weak orderings and
//     compare floats via core/floatcmp
//   - unsafeview:  unsafe.Slice appears only inside the image codec's
//     view[T], which refuses overrunning and misaligned spans
//
// The determinism trio (maporder, slotwrite, sortcmp) shares the ssaflow
// value-flow layer and is backed at runtime by `make determinism`, which
// rebuilds the oracle under shuffled schedules and byte-compares encodings.
// The serving plane's invariants need no analyzer: go vet's copylocks
// refuses a copied sync/atomic value, one publish method in
// internal/serve hands each image whole to the atomic swap, and one
// function there holds each query request's image lease and pooled
// buffers, releasing them on every path; its tests check the lease, the
// swap and the joined listener at run time, under -race too.
// Encode/decode symmetry needs no analyzer either: one section table in
// internal/oracle drives both directions.
//
// The suite runs as `go vet -vettool=bin/pathsep-lint` (see cmd/pathsep-lint
// and `make lint`), and each analyzer carries analysistest-style coverage
// under its testdata/src tree.
package analyzers

import (
	"golang.org/x/tools/go/analysis"

	"pathsep/internal/analyzers/errctx"
	"pathsep/internal/analyzers/floatcmp"
	"pathsep/internal/analyzers/hotalloc"
	"pathsep/internal/analyzers/maporder"
	"pathsep/internal/analyzers/obsnilguard"
	"pathsep/internal/analyzers/seededrand"
	"pathsep/internal/analyzers/slotwrite"
	"pathsep/internal/analyzers/sortcmp"
	"pathsep/internal/analyzers/subgraphmut"
	"pathsep/internal/analyzers/unsafeview"
)

// All returns every analyzer in the suite, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errctx.Analyzer,
		floatcmp.Analyzer,
		hotalloc.Analyzer,
		maporder.Analyzer,
		obsnilguard.Analyzer,
		seededrand.Analyzer,
		slotwrite.Analyzer,
		sortcmp.Analyzer,
		subgraphmut.Analyzer,
		unsafeview.Analyzer,
	}
}
