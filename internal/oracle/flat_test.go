package oracle

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
)

// buildSeeded builds a pointer oracle over a seeded random graph: a tree
// for even seeds, a sparse connected graph for odd ones.
func buildSeeded(tb testing.TB, seed int64, n int, mode Mode) (*graph.Graph, *Oracle) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	if seed%2 == 0 {
		g = graph.RandomTree(n, graph.UniformWeights(1, 4), rng)
	} else {
		g = graph.ConnectedGNM(n, 2*n, graph.UniformWeights(0.5, 2), rng)
	}
	dec, err := core.Decompose(g, core.Options{Strategy: core.Auto{}})
	if err != nil {
		tb.Fatal(err)
	}
	o, err := Build(dec, Options{Epsilon: 0.25, Mode: mode})
	if err != nil {
		tb.Fatal(err)
	}
	return g, o
}

// TestFreezeRoundTrip pins the flat accessors and the exact Encode /
// DecodeFlat round trip against the source oracle's accounting, and the
// decode's no-retention contract: once DecodeFlat returns, the image
// buffer is the caller's again, so overwriting it must not change a
// single Query or QueryPath answer.
func TestFreezeRoundTrip(t *testing.T) {
	_, o := buildSeeded(t, 4, 60, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if fl.N() != o.N {
		t.Fatalf("N = %d, want %d", fl.N(), o.N)
	}
	if !core.SameDist(fl.Eps(), o.Eps) {
		t.Fatalf("Eps = %v, want %v", fl.Eps(), o.Eps)
	}
	if fl.NumPortals() != o.SpacePortals() {
		t.Fatalf("NumPortals = %d, want %d", fl.NumPortals(), o.SpacePortals())
	}
	entries := 0
	for v := range o.Labels {
		entries += len(o.Labels[v].Entries)
	}
	if fl.NumEntries() != entries {
		t.Fatalf("NumEntries = %d, want %d", fl.NumEntries(), entries)
	}
	enc := fl.Encode()
	dec, err := DecodeFlat(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xFF
	}
	var want, got []int32
	for u := 0; u < o.N; u++ {
		for v := 0; v < o.N; v++ {
			if math.Float64bits(dec.Query(u, v)) != math.Float64bits(o.Query(u, v)) {
				t.Fatalf("decoded Query(%d,%d) = %v, oracle %v", u, v, dec.Query(u, v), o.Query(u, v))
			}
			dw, w, errW := fl.QueryPath(u, v, want)
			dg, g, errG := dec.QueryPath(u, v, got)
			if errW != nil || errG != nil || math.Float64bits(dw) != math.Float64bits(dg) || !slices.Equal(w, g) {
				t.Fatalf("decoded QueryPath(%d,%d) = %v %v (%v), frozen %v %v (%v)", u, v, dg, g, errG, dw, w, errW)
			}
			want, got = w, g
		}
	}
}

// gridFlat freezes the bench-shaped build: a side×side grid with uniform
// [1,4) weights from seed 1, ε = 0.25, serial workers.
func gridFlat(tb testing.TB, side int, mode Mode) *Flat {
	tb.Helper()
	rot := embed.Grid(side, side, graph.UniformWeights(1, 4), rand.New(rand.NewSource(1)))
	dec, err := core.Decompose(rot.G, core.Options{Strategy: core.Auto{}, Rot: rot, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	o, err := Build(dec, Options{Epsilon: 0.25, Mode: mode, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	return fl
}

// TestFlatMemoryBudget pins the serving footprint per portal on the
// 32×32 bench-shaped CoverPortal image. A decoded Flat keeps a 24 B lane
// record, a 4 B hop link, a 16 B walk entry and ~6 B of walk blocks per
// portal plus the small CSR tables, so ResidentBytes must stay within
// 56 B/portal; the decode allocates that plus the walk derivation's
// scratch, within 90 B/portal. Retaining the image buffer (21 B/portal
// here) or a second copy of the pool breaks the first budget; doubling
// the derivation scratch breaks the second.
func TestFlatMemoryBudget(t *testing.T) {
	fl := gridFlat(t, 32, CoverPortal)
	p := fl.NumPortals()
	if p != 67878 {
		t.Fatalf("fixture has %d portals, want 67878", p)
	}
	enc := fl.Encode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dec, err := DecodeFlat(enc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	resident := float64(dec.ResidentBytes()) / float64(p)
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / float64(p)
	t.Logf("resident %.1f B/portal, decode allocates %.1f B/portal", resident, alloc)
	if resident > 56 {
		t.Errorf("ResidentBytes = %.1f B/portal, budget 56", resident)
	}
	if alloc > 90 {
		t.Errorf("DecodeFlat allocates %.1f B/portal, budget 90", alloc)
	}
}

// TestFlatSelfQueryObserved checks the metrics parity of the fast paths:
// both the pointer oracle and the flat form must observe self queries, so
// QPS accounting covers all traffic.
func TestFlatSelfQueryObserved(t *testing.T) {
	_, o := buildSeeded(t, 2, 30, CoverExact)
	reg := obs.New()
	o.SetMetrics(reg)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	fl.SetMetrics(reg)

	lat := reg.Histogram("oracle.query_ns")
	base := lat.Count()
	if got := o.Query(3, 3); !core.IsZeroDist(got) {
		t.Fatalf("Query(3,3) = %v", got)
	}
	if lat.Count() != base+1 {
		t.Fatalf("self query not observed by Oracle.Query: count %d, want %d", lat.Count(), base+1)
	}
	if got := fl.Query(3, 3); !core.IsZeroDist(got) {
		t.Fatalf("Flat.Query(3,3) = %v", got)
	}
	if lat.Count() != base+2 {
		t.Fatalf("self query not observed by Flat.Query: count %d, want %d", lat.Count(), base+2)
	}
	// Out-of-range queries stay unobserved on both surfaces.
	o.Query(-1, 3)
	fl.Query(-1, 3)
	if lat.Count() != base+2 {
		t.Fatalf("out-of-range query observed: count %d, want %d", lat.Count(), base+2)
	}
	if reg.Gauge("oracle.flat_bytes").Value() != int64(fl.EncodedSize()) {
		t.Fatalf("oracle.flat_bytes = %d, want %d", reg.Gauge("oracle.flat_bytes").Value(), fl.EncodedSize())
	}
}

// TestQueryBatchRecordsQPS checks the batch throughput gauge.
func TestQueryBatchRecordsQPS(t *testing.T) {
	_, o := buildSeeded(t, 2, 30, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	fl.SetMetrics(reg)
	pairs := make([]Pair, 256)
	rng := rand.New(rand.NewSource(7))
	for i := range pairs {
		pairs[i] = Pair{U: int32(rng.Intn(30)), V: int32(rng.Intn(30))}
	}
	fl.QueryBatch(pairs, nil)
	if reg.Gauge("oracle.batch_qps").Value() <= 0 {
		t.Fatal("oracle.batch_qps not recorded")
	}
}

// TestQueryBatchEdgeCases pins the batch surface against per-pair
// Flat.Query on the degenerate shapes: empty batch, single pair,
// duplicate pairs, self pairs, and out-of-range IDs — for every pool
// width.
func TestQueryBatchEdgeCases(t *testing.T) {
	_, o := buildSeeded(t, 3, 40, CoverPortal)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	n := int32(fl.N())
	batches := map[string][]Pair{
		"empty":     {},
		"single":    {{U: 1, V: 7}},
		"self":      {{U: 5, V: 5}, {U: 0, V: 0}},
		"duplicate": {{U: 2, V: 9}, {U: 2, V: 9}, {U: 9, V: 2}, {U: 2, V: 9}},
		"bounds":    {{U: -1, V: 3}, {U: 3, V: -1}, {U: n, V: 0}, {U: 0, V: n + 7}},
		"mixed":     {{U: 4, V: 4}, {U: -1, V: 2}, {U: 1, V: 8}, {U: 1, V: 8}, {U: 0, V: n - 1}},
	}
	names := make([]string, 0, len(batches))
	for name := range batches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pairs := batches[name]
		for _, workers := range []int{1, 2, 0} {
			got := fl.QueryBatchWorkers(pairs, nil, workers)
			if len(got) != len(pairs) {
				t.Fatalf("%s workers=%d: len = %d, want %d", name, workers, len(got), len(pairs))
			}
			for i, p := range pairs {
				want := fl.Query(int(p.U), int(p.V))
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s workers=%d: out[%d] = %v, Query(%d,%d) = %v",
						name, workers, i, got[i], p.U, p.V, want)
				}
			}
		}
	}
	// Empty batch with a nil buffer returns an empty, usable slice.
	if out := fl.QueryBatch(nil, nil); len(out) != 0 {
		t.Fatalf("QueryBatch(nil, nil) returned %d results", len(out))
	}
}

// TestQueryBatchReusedBufferAllocs pins the amortized-zero-allocation
// contract: once the output buffer has capacity, serial batches must not
// allocate at all.
func TestQueryBatchReusedBufferAllocs(t *testing.T) {
	_, o := buildSeeded(t, 2, 40, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]Pair, 64)
	rng := rand.New(rand.NewSource(5))
	for i := range pairs {
		pairs[i] = Pair{U: int32(rng.Intn(40)), V: int32(rng.Intn(40))}
	}
	out := fl.QueryBatchWorkers(pairs, nil, 1)
	allocs := testing.AllocsPerRun(20, func() {
		out = fl.QueryBatchWorkers(pairs, out, 1)
	})
	if allocs != 0 {
		t.Fatalf("reused-buffer serial batch allocates %.1f allocs/op, want 0", allocs)
	}
}

// FuzzFlatRoundTrip drives Freeze → Encode → DecodeFlat over seeded
// random graphs and checks query equivalence against the pointer oracle
// on sampled pairs (including self and out-of-range IDs).
func FuzzFlatRoundTrip(f *testing.F) {
	f.Add(int64(2), uint8(24), false)
	f.Add(int64(3), uint8(31), true)
	f.Add(int64(10), uint8(5), false)

	f.Fuzz(func(t *testing.T, seed int64, size uint8, portal bool) {
		n := 2 + int(size)%38
		mode := CoverExact
		if portal {
			mode = CoverPortal
		}
		_, o := buildSeeded(t, seed, n, mode)
		fl, err := o.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeFlat(fl.Encode())
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for q := 0; q < 200; q++ {
			u, v := rng.Intn(n+2)-1, rng.Intn(n+2)-1
			want := o.Query(u, v)
			if got := fl.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("frozen Query(%d,%d) = %v, oracle %v", u, v, got, want)
			}
			if got := dec.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("decoded Query(%d,%d) = %v, oracle %v", u, v, got, want)
			}
		}
	})
}

// FuzzDecodeFlat feeds arbitrary bytes to DecodeFlat: inputs that parse
// must re-encode to the same bytes and answer queries without panicking.
func FuzzDecodeFlat(f *testing.F) {
	_, o := buildSeeded(f, 2, 20, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		f.Fatal(err)
	}
	enc := fl.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{flatMagic, 1}) // a version-1 header: rejected as unsupported
	f.Add([]byte{flatMagic, flatVersion2})
	f.Add([]byte{})
	v1 := append([]byte(nil), enc...)
	v1[1] = 1
	f.Add(v1)
	f.Add(enc[:flatHeaderV2]) // header only, sections missing

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode from an aligned copy and a deliberately misaligned copy,
		// not from data itself: DecodeFlat branches on buffer alignment,
		// and the fuzz engine hands inputs at arbitrary offsets, which
		// would make coverage flip between the zero-copy and copying
		// paths run to run and stall the minimizer. This way both paths
		// run deterministically on every input.
		aligned := make([]byte, len(data))
		copy(aligned, data)
		shifted := make([]byte, len(data)+1)
		copy(shifted[1:], data)

		fl, err := DecodeFlat(aligned)
		flCopy, errCopy := DecodeFlat(shifted[1:])
		if (err == nil) != (errCopy == nil) {
			t.Fatalf("decode paths disagree: zero-copy err=%v, copying err=%v", err, errCopy)
		}
		if err != nil {
			return
		}
		canon := fl.Encode()
		fl2, err := DecodeFlat(canon)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		n := fl.N()
		var buf, buf2 []int32
		for _, pair := range [][2]int{{0, 0}, {0, n - 1}, {-1, 3}, {n, n}} {
			a := fl.Query(pair[0], pair[1])
			for _, other := range []*Flat{flCopy, fl2} {
				if b := other.Query(pair[0], pair[1]); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("Query(%d,%d): %v vs %v", pair[0], pair[1], a, b)
				}
			}
			// Path queries over decoded (possibly hostile) images may
			// return errors but must never panic, and the zero-copy and
			// copying decodes must behave identically.
			ad, buf0, errA := fl.QueryPath(pair[0], pair[1], buf)
			buf = buf0[:0]
			bd, buf1, errB := flCopy.QueryPath(pair[0], pair[1], buf2)
			buf2 = buf1[:0]
			if (errA == nil) != (errB == nil) {
				t.Fatalf("QueryPath(%d,%d): zero-copy err=%v, copying err=%v", pair[0], pair[1], errA, errB)
			}
			if errA == nil && math.Float64bits(ad) != math.Float64bits(bd) {
				t.Fatalf("QueryPath(%d,%d): %v vs %v", pair[0], pair[1], ad, bd)
			}
		}
	})
}
