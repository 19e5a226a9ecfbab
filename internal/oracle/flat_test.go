package oracle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/iotest"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
)

// seededDec decomposes a seeded random graph: a tree for even seeds, a
// sparse connected graph for odd ones.
func seededDec(tb testing.TB, seed int64, n int) (*graph.Graph, *core.Tree) {
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
	return g, dec
}

// buildSeeded builds the oracle of seededDec's graph.
func buildSeeded(tb testing.TB, seed int64, n int, mode Mode) (*graph.Graph, *Oracle) {
	tb.Helper()
	g, dec := seededDec(tb, seed, n)
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
	for v := 0; v < o.N; v++ {
		entries += len(o.Label(v).Entries)
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

// TestDecodeRestoresPositions pins the position invariant image v3
// rests on: every frozen record's position is its chain anchor's
// path_pos entry, so an image stores no positions and decoding restores
// each from the walk. On the lane families and the zero-weight grids of
// TestZeroWeightWalks in both modes, both golden fixtures and the 64×64
// bench grid (128×128 outside -short), the frozen lane must hold the
// invariant, and DecodeFlat(Freeze().Encode()) must hold the frozen lane
// bit for bit and the frozen walkBlk and walkSlot word for word.
func TestDecodeRestoresPositions(t *testing.T) {
	check := func(name string, fl *Flat) {
		t.Helper()
		if d := positionDiff(fl); d != "" {
			t.Fatalf("%s: frozen %s", name, d)
		}
		dec, err := DecodeFlat(fl.Encode())
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if d := laneDiff(dec.lane, fl.lane); d != "" {
			t.Fatalf("%s: decoded lane against frozen: %s", name, d)
		}
		if d := walkDiff(dec, fl.walkBlk, fl.walkSlot); d != "" {
			t.Fatalf("%s: decoded %s", name, d)
		}
	}
	for fam, fx := range laneFamilies(t) {
		for _, m := range laneModes {
			_, fl := laneBuild(t, fx.g, fx.rot, m.mode)
			check(fam+"/"+m.name, fl)
		}
	}
	for _, in := range zeroWeightGrids {
		rot := fuzzGrid(in.seed, in.rows, in.cols, in.zeros)
		for _, m := range laneModes {
			_, fl := laneBuild(t, rot.G, rot, m.mode)
			check(fmt.Sprintf("zero-weight seed %d/%s", in.seed, m.name), fl)
		}
	}
	for _, m := range laneModes {
		check("golden/"+m.name, goldenFlat(t, m.mode))
	}
	sides := []int{64}
	if !testing.Short() {
		sides = append(sides, 128)
	}
	for _, side := range sides {
		check(fmt.Sprintf("%dx%d portal", side, side), gridFlat(t, side, CoverPortal))
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

// TestFlatMemoryBudget pins the image and the serving footprint per
// portal on the 32×32 bench-shaped CoverPortal image. The image stores
// an 8 B distance and a 4 B hop link per portal plus the small CSR
// tables and path geometry, so EncodedSize must stay within 14
// B/portal; storing the positions too (8 B/portal) breaks it. A decoded
// Flat keeps a 16 B lane record, a 4 B walk slot and ~10 B of walk
// blocks (4 B of owner vertex per record, 16 B of trailer per chain) per
// portal plus the small CSR tables, so ResidentBytes must stay within 32
// B/portal. The decode, from a file, allocates that, the walk
// derivation's per-record hop links, its per-entry and per-anchor
// arrays, one read chunk and the derivation scratch keyTasks bounds: at
// a pool width w above 1, one set of six int32 arrays sized to the
// largest key and one int32 per vertex (newWalkScratch, ~6 B/portal on
// this fixture) for the big keys, and w sets sized to the largest key
// over w. So the decode must stay within 40 B/portal plus that scratch,
// and what it allocates beyond the Flat within 12 B/portal plus that
// scratch, which has no term in the image size; make check runs the
// test at pool widths 1, 2, 4 and 8. A lane record with a third word or
// a kept copy of the hop links (4 B/portal) breaks the first budget,
// reading the image into a buffer (13.3 B/portal here) breaks the last
// two, and so do a 16 B/record derivation scratch, an 8 B/record position
// array and a scratch set sized to the largest key on every worker (~6
// B/portal each). Encode allocates its output plus the walk layout's
// slot→record inverse, within EncodedSize + 10 B/portal; transcribing
// the distances into an intermediate slice (8 B/portal) breaks it.
func TestFlatMemoryBudget(t *testing.T) {
	fl := gridFlat(t, 32, CoverPortal)
	p := fl.NumPortals()
	if p != 67878 {
		t.Fatalf("fixture has %d portals, want 67878", p)
	}
	if image := float64(fl.EncodedSize()) / float64(p); image > 14 {
		t.Errorf("EncodedSize = %.1f B/portal, budget 14", image)
	}
	keyRecs := make([]int, fl.NumKeys())
	for e, k := range fl.entryKey {
		keyRecs[k] += int(fl.portalOff[e+1] - fl.portalOff[e])
	}
	w, maxKey := runtime.GOMAXPROCS(0), slices.Max(keyRecs)
	set := func(records int) int { return 4 * (6*records + 1 + fl.N()) }
	scratch := w * set(maxKey/w)
	if w > 1 {
		scratch += set(maxKey)
	}
	perPortal := func(bytes int) float64 { return float64(bytes) / float64(p) }
	decodeBudget, transientBudget := 40+perPortal(scratch), 12+perPortal(scratch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	enc := fl.Encode()
	runtime.ReadMemStats(&after)
	encAlloc := perPortal(int(after.TotalAlloc - before.TotalAlloc - uint64(fl.EncodedSize())))
	path := filepath.Join(t.TempDir(), "fixture.flat")
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	dec, err := DecodeFlatFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	resident := perPortal(dec.ResidentBytes())
	alloc := perPortal(int(after.TotalAlloc - before.TotalAlloc))
	t.Logf("image %.1f B/portal, resident %.1f B/portal, decode allocates %.1f B/portal, %.1f beyond the Flat (budgets %.1f and %.1f at GOMAXPROCS %d), encode %.1f B/portal beyond its output",
		perPortal(fl.EncodedSize()), resident, alloc, alloc-resident, decodeBudget, transientBudget, w, encAlloc)
	if resident > 32 {
		t.Errorf("ResidentBytes = %.1f B/portal, budget 32", resident)
	}
	if alloc > decodeBudget {
		t.Errorf("DecodeFlatFile allocates %.1f B/portal, budget %.1f (40 + %.1f of walk scratch)", alloc, decodeBudget, perPortal(scratch))
	}
	if alloc-resident > transientBudget {
		t.Errorf("DecodeFlatFile allocates %.1f B/portal beyond the Flat, budget %.1f (12 + %.1f of walk scratch)", alloc-resident, transientBudget, perPortal(scratch))
	}
	if encAlloc > 10 {
		t.Errorf("Encode allocates %.1f B/portal beyond its %d-byte output, budget 10", encAlloc, fl.EncodedSize())
	}
}

// TestResidentArraysCoverFlat checks that ResidentArrays lists every
// array a frozen or decoded Flat holds: the bytes of every slice field
// of the Flat and its tables, up to capacity, must add up to its rows,
// and the rows to ResidentBytes. A slice field added without a row
// fails it.
func TestResidentArraysCoverFlat(t *testing.T) {
	fl := gridFlat(t, 8, CoverPortal)
	dec, err := DecodeFlat(fl.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*Flat{"frozen": fl, "decoded": dec} {
		held := 0
		var fields func(v reflect.Value)
		fields = func(v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				switch fv := v.Field(i); fv.Kind() {
				case reflect.Slice:
					held += fv.Cap() * int(fv.Type().Elem().Size())
				case reflect.Struct:
					fields(fv)
				}
			}
		}
		fields(reflect.ValueOf(f).Elem())
		rows := 0
		for _, a := range f.ResidentArrays() {
			rows += a.Bytes
		}
		if held != rows || rows != f.ResidentBytes() {
			t.Errorf("%s: slice fields hold %d B, ResidentArrays rows add up to %d, ResidentBytes %d", name, held, rows, f.ResidentBytes())
		}
	}
}

// TestFlatSelfQueryObserved checks the metrics parity of the fast paths:
// both the oracle and the flat form must observe self queries, so QPS
// accounting covers all traffic.
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

// FuzzFlatRoundTrip drives Build → Freeze → Encode → DecodeFlat over
// seeded random graphs and checks query equivalence against the
// reference label walk on sampled pairs (including self and out-of-range
// IDs).
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
		_, tree := seededDec(t, seed, n)
		opt := Options{Epsilon: 0.25, Mode: mode}
		o, err := Build(tree, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref := refBuild(t, tree, opt, 1)
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
			want := ref.Query(u, v)
			if got := o.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Query(%d,%d) = %v, reference %v", u, v, got, want)
			}
			if got := fl.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("frozen Query(%d,%d) = %v, reference %v", u, v, got, want)
			}
			if got := dec.Query(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("decoded Query(%d,%d) = %v, reference %v", u, v, got, want)
			}
		}
	})
}

// FuzzDecodeFlat feeds arbitrary bytes to the decode through three
// readers: the whole buffer (DecodeFlat), one byte per Read, and half of
// each Read's request. All three must give the same error, or Flats with
// the same lane, walk layout and answers; every input that decodes must
// re-encode to itself, byte for byte, and answer queries and path
// queries without panicking.
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
	f.Add([]byte{flatMagic, flatVersion})
	f.Add([]byte{})
	v1 := append([]byte(nil), enc...)
	v1[1] = 1
	f.Add(v1)
	f.Add(enc[:flatHeader]) // header only, sections missing
	// An entry with no portals, in an image with none: no walk, so no
	// anchors to read positions from.
	empty := &Flat{n: 1, tables: tables{keys: []Key{{}}, entryOff: []int32{0, 1}, entryKey: []int32{0},
		portalOff: []int32{0, 0}, pathOff: []int32{0, 1}, pathVert: []int32{0}, pathPos: []float64{0}}}
	f.Add(empty.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		in := append([]byte(nil), data...)
		fl, err := DecodeFlat(in)
		if !bytes.Equal(in, data) {
			t.Fatal("DecodeFlat wrote into its input")
		}
		streams := []struct {
			name string
			r    io.Reader
		}{
			{"one byte per read", iotest.OneByteReader(bytes.NewReader(data))},
			{"half reads", iotest.HalfReader(bytes.NewReader(data))},
		}
		var streamed []*Flat
		for _, s := range streams {
			g, gerr := DecodeFlatFrom(s.r, int64(len(data)))
			if (err == nil) != (gerr == nil) || (err != nil && err.Error() != gerr.Error()) {
				t.Fatalf("%s: err %v, whole buffer: err %v", s.name, gerr, err)
			}
			streamed = append(streamed, g)
		}
		if err != nil {
			return
		}
		// A Flat keeps nothing of its input: clobbering it must change
		// neither its encoding nor its answers.
		for i := range in {
			in[i] = 0xFF
		}
		if !bytes.Equal(fl.Encode(), data) {
			t.Fatal("Encode(DecodeFlat(data)) differs from data")
		}
		fl2, err := DecodeFlat(fl.Encode())
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		for i, g := range streamed {
			if d := laneDiff(g.lane, fl.lane); d != "" {
				t.Fatalf("%s: lane: %s", streams[i].name, d)
			}
			if d := walkDiff(g, fl.walkBlk, fl.walkSlot); d != "" {
				t.Fatalf("%s: %s", streams[i].name, d)
			}
		}
		n := fl.N()
		var buf, buf2 []int32
		for _, pair := range [][2]int{{0, 0}, {0, n - 1}, {-1, 3}, {n, n}} {
			a := fl.Query(pair[0], pair[1])
			for _, other := range append(streamed, fl2) {
				if b := other.Query(pair[0], pair[1]); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("Query(%d,%d): %v vs %v", pair[0], pair[1], a, b)
				}
			}
			// Path queries over decoded (possibly hostile) images may
			// return errors but must never panic, and the decodes must
			// behave identically.
			ad, buf0, errA := fl.QueryPath(pair[0], pair[1], buf)
			buf = buf0[:0]
			bd, buf1, errB := streamed[0].QueryPath(pair[0], pair[1], buf2)
			buf2 = buf1[:0]
			if (errA == nil) != (errB == nil) {
				t.Fatalf("QueryPath(%d,%d): whole err=%v, streamed err=%v", pair[0], pair[1], errA, errB)
			}
			if errA == nil && math.Float64bits(ad) != math.Float64bits(bd) {
				t.Fatalf("QueryPath(%d,%d): %v vs %v", pair[0], pair[1], ad, bd)
			}
		}
	})
}

// TestDecodeFlatStream pins the stream contract on the 8×8 portal image.
// A reader that fails after k bytes, for k at and inside every section
// and at the very end, fails the decode with its error and no Flat; a
// stream that ends before its declared size fails with
// io.ErrUnexpectedEOF, one that runs past it is refused, and so is a
// size that disagrees with the header. A 64-byte header that claims 2^30
// portals, with size 64, is refused before the decode allocates for it:
// under 64 KiB in all.
func TestDecodeFlatStream(t *testing.T) {
	fl := gridFlat(t, 8, CoverPortal)
	img := fl.Encode()
	c := fl.counts()
	spans, _ := layout(&c)
	cuts := []int{0, 1, flatHeader - 1, flatHeader, len(img) - 1, len(img)}
	for _, sp := range spans {
		cuts = append(cuts, sp.off, (sp.off+sp.end)/2)
	}
	errBroken := errors.New("reader broke")
	for _, k := range cuts {
		r := io.MultiReader(bytes.NewReader(img[:k]), iotest.ErrReader(errBroken))
		if got, err := DecodeFlatFrom(r, int64(len(img))); got != nil || !errors.Is(err, errBroken) {
			t.Errorf("reader failing after %d of %d bytes: Flat %v, err %v", k, len(img), got != nil, err)
		}
	}
	if _, err := DecodeFlatFrom(bytes.NewReader(img[:len(img)-1]), int64(len(img))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("stream one byte short: err %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if _, err := DecodeFlatFrom(bytes.NewReader(append(img, 0)), int64(len(img))); err == nil || !strings.Contains(err.Error(), "runs past") {
		t.Errorf("stream one byte long: err %v", err)
	}
	for _, size := range []int64{int64(len(img)) - 1, int64(len(img)) + 1, -1} {
		if _, err := DecodeFlatFrom(bytes.NewReader(img), size); err == nil {
			t.Errorf("%d-byte image declared as %d bytes accepted", len(img), size)
		}
	}

	hdr := make([]byte, flatHeader)
	hdr[0], hdr[1] = flatMagic, flatVersion
	binary.LittleEndian.PutUint64(hdr[countAt[countPortals]:], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := DecodeFlatFrom(bytes.NewReader(hdr), int64(len(hdr)))
	runtime.ReadMemStats(&after)
	if got != nil || err == nil || !strings.Contains(err.Error(), "does not match header") {
		t.Errorf("header claiming 2^30 portals in 64 bytes: Flat %v, err %v", got != nil, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("refusing a header claiming 2^30 portals allocated %d bytes", alloc)
	}
}
