// Differential and race coverage for the flat serving form: Oracle.Query,
// Flat.Query, QueryBatch (every worker count) and both decode paths must
// return bit-identical answers to the label walk (QueryLabels over
// Oracle.Label), on every graph family and mode, and the whole surface
// must survive -race alongside metric snapshots. internal/oracle pins
// the rows themselves to the reference replay.
package pathsep_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"pathsep"
	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
)

// sameBits reports bit-for-bit float64 equality (the differential
// contract is stronger than epsilon equality).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// freezeVariants returns the three Flat forms that must agree: the direct
// Freeze result, a zero-copy decode of its encoding, and a copying decode
// forced by a misaligned buffer.
func freezeVariants(t *testing.T, o *oracle.Oracle) map[string]*oracle.Flat {
	t.Helper()
	fl, err := o.Freeze()
	if err != nil {
		t.Fatalf("freeze: %v", err)
	}
	enc := fl.Encode()
	if len(enc) != fl.EncodedSize() {
		t.Fatalf("EncodedSize %d != len(Encode) %d", fl.EncodedSize(), len(enc))
	}
	zero, err := oracle.DecodeFlat(enc)
	if err != nil {
		t.Fatalf("zero-copy decode: %v", err)
	}
	shifted := make([]byte, len(enc)+1)
	copy(shifted[1:], enc)
	copied, err := oracle.DecodeFlat(shifted[1:]) // misaligned: copy path
	if err != nil {
		t.Fatalf("copy decode: %v", err)
	}
	return map[string]*oracle.Flat{"frozen": fl, "zerocopy": zero, "copied": copied}
}

// TestFlatQueryDifferential is the acceptance contract: across the grid,
// random-tree, mesh+apex and path3 families, both oracle modes, and
// workers in {1, 2, 4, 0}, Oracle.Query and the flat forms answer every
// pair (including self and out-of-range pairs) bit-identically to the
// label walk, a second engine over the same rows.
func TestFlatQueryDifferential(t *testing.T) {
	for name, fam := range parallelFamilies(t) {
		for _, mode := range []oracle.Mode{oracle.CoverExact, oracle.CoverPortal} {
			modeName := "exact"
			if mode == oracle.CoverPortal {
				modeName = "portal"
			}
			dec, err := core.Decompose(fam.g, core.Options{Strategy: core.Auto{}, Rot: fam.rot})
			if err != nil {
				t.Fatalf("%s/%s: decompose: %v", name, modeName, err)
			}
			o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: mode})
			if err != nil {
				t.Fatalf("%s/%s: build: %v", name, modeName, err)
			}
			n := fam.g.N()
			labels := make([]*pathsep.Label, n+2) // labels[v+1]; nil out of range
			for v := range labels {
				labels[v] = o.Label(v - 1)
			}
			want := make([]float64, 0, (n+2)*(n+2))
			pairs := make([]oracle.Pair, 0, (n+2)*(n+2))
			for u := -1; u <= n; u++ {
				for v := -1; v <= n; v++ {
					w := pathsep.QueryLabels(labels[u+1], labels[v+1])
					if got := o.Query(u, v); !sameBits(got, w) {
						t.Fatalf("%s/%s: oracle Query(%d,%d) = %v, label walk %v",
							name, modeName, u, v, got, w)
					}
					want = append(want, w)
					pairs = append(pairs, oracle.Pair{U: int32(u), V: int32(v)})
				}
			}

			for fname, fl := range freezeVariants(t, o) {
				for i, p := range pairs {
					got := fl.Query(int(p.U), int(p.V))
					if !sameBits(got, want[i]) {
						t.Fatalf("%s/%s/%s: Query(%d,%d) = %v, label walk %v",
							name, modeName, fname, p.U, p.V, got, want[i])
					}
				}
				var out []float64
				for _, workers := range []int{1, 2, 4, 0} {
					prev := out
					out = fl.QueryBatchWorkers(pairs, out, workers)
					if len(out) != len(pairs) {
						t.Fatalf("%s/%s/%s: batch returned %d results for %d pairs",
							name, modeName, fname, len(out), len(pairs))
					}
					if prev != nil && &prev[0] != &out[0] {
						t.Fatalf("%s/%s/%s: workers=%d batch did not reuse the caller buffer",
							name, modeName, fname, workers)
					}
					for i := range out {
						if !sameBits(out[i], want[i]) {
							t.Fatalf("%s/%s/%s: workers=%d batch[%d] (%d,%d) = %v, label walk %v",
								name, modeName, fname, workers, i, pairs[i].U, pairs[i].V, out[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestFlatDecodeRejectsCorruption flips header fields and truncates the
// encoding: every mutation must be rejected, never panic.
func TestFlatDecodeRejectsCorruption(t *testing.T) {
	fam := parallelFamilies(t)["grid"]
	dec, err := core.Decompose(fam.g, core.Options{Strategy: core.Auto{}, Rot: fam.rot})
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverPortal})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	enc := fl.Encode()
	mutate := func(name string, f func([]byte) []byte) {
		buf := make([]byte, len(enc))
		copy(buf, enc)
		if _, err := oracle.DecodeFlat(f(buf)); err == nil {
			t.Errorf("%s: corrupted encoding accepted", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] = 0x00; return b })
	mutate("bad version", func(b []byte) []byte { b[1] = 99; return b })
	mutate("version 1", func(b []byte) []byte { b[1] = 1; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-8] })
	mutate("inflated entry count", func(b []byte) []byte { b[40] ^= 0x40; return b })
	mutate("empty", func(b []byte) []byte { return nil })
}

// TestFlatQueryBatchRaceStress hammers Flat.Query and QueryBatch from
// several goroutines while another drains metrics snapshots — the -race
// acceptance test for the immutable serving form.
func TestFlatQueryBatchRaceStress(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	grid := embed.Grid(10, 10, graph.UniformWeights(1, 4), rng)
	reg := obs.New()
	dec, err := core.Decompose(grid.G, core.Options{Strategy: core.Auto{}, Rot: grid})
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverPortal})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	fl.SetMetrics(reg)

	n := grid.G.N()
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				if snap := reg.Snapshot(); snap.Gauges == nil {
					t.Error("snapshot lost its gauges")
					return
				}
			}
		}
	}()

	const goroutines = 8
	rngs := pathsep.SplitRand(rand.New(rand.NewSource(13)), goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			r := rngs[idx]
			pairs := make([]oracle.Pair, 64)
			var out []float64
			for round := 0; round < 40; round++ {
				if round%2 == 0 {
					for q := 0; q < 64; q++ {
						u, v := r.Intn(n+2)-1, r.Intn(n+2)-1
						if d := fl.Query(u, v); d < 0 {
							t.Errorf("Query(%d,%d) = %v", u, v, d)
							return
						}
					}
					continue
				}
				for p := range pairs {
					pairs[p] = oracle.Pair{U: int32(r.Intn(n+2) - 1), V: int32(r.Intn(n+2) - 1)}
				}
				out = fl.QueryBatchWorkers(pairs, out, 1+idx%4)
				for p := range out {
					if out[p] < 0 {
						t.Errorf("batch result %v for (%d,%d)", out[p], pairs[p].U, pairs[p].V)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-snapDone
}
