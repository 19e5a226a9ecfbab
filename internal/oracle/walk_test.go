package oracle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pathsep/internal/par"
)

// deriveWalkRef is the whole-pool walk derivation the per-key deriveWalk
// replaced, kept as the reference the differential tests compare the
// layout against word for word. It reads f's tables and the hop links
// and returns the walkBlk/walkSlot pair instead of storing it, with ok
// false where a record has no position and deriveWalk must fail: it
// reaches no anchor, or its anchor's vertex is not on the key's path.
// (The tests that plant hops across keys or paths that repeat a vertex
// check those failures themselves.)
//
// Chains are emitted in heavy-path order — each record's heaviest child
// is placed immediately before it — so a chain from any slot to its head
// is one contiguous owner run; anchors seed the head stack in ascending
// record order, so the last anchor's tree is laid out first. An anchor's
// path index is the index of its vertex on its key's path.
func deriveWalkRef(f *Flat, hops []int32) (blk, slots []int32, ok bool) {
	p := len(hops)
	slots = make([]int32, p)
	if p == 0 {
		return nil, slots, true
	}
	// Each record's slot, run end, chain anchor and walk length.
	type refRec struct{ slot, end, anchor, depth int32 }
	from := make([]refRec, p)
	for r := range from {
		from[r] = refRec{slot: -1, end: -1, anchor: -1}
	}
	ok = true
	eachRecordRef(f, func(v, kid, i int32) {
		if hops[i] < 0 {
			from[i].anchor = int32(slices.Index(f.pathVert[f.pathOff[kid]:f.pathOff[kid+1]], v))
			ok = ok && from[i].anchor >= 0
		}
	})
	// Children of each record, CSR form, each list in ascending record
	// order.
	childOff := make([]int32, p+1)
	for _, h := range hops {
		if h >= 0 {
			childOff[h]++
		}
	}
	for i := 1; i <= p; i++ {
		childOff[i] += childOff[i-1]
	}
	child := make([]int32, childOff[p])
	for i := p - 1; i >= 0; i-- {
		if h := hops[i]; h >= 0 {
			childOff[h]--
			child[childOff[h]] = int32(i)
		}
	}
	// Breadth-first from the anchors; subtree sizes in reverse order.
	order := make([]int32, 0, p)
	for i, h := range hops {
		if h < 0 {
			order = append(order, int32(i))
		}
	}
	roots := len(order)
	for x := 0; x < len(order); x++ {
		r := order[x]
		order = append(order, child[childOff[r]:childOff[r+1]]...)
	}
	size := make([]int32, p)
	for x := len(order) - 1; x >= 0; x-- {
		r := order[x]
		size[r]++
		if h := hops[r]; h >= 0 {
			size[h] += size[r]
		}
	}
	heavy := make([]int32, p)
	chains := 0
	for i := 0; i < p; i++ {
		best, bestSz := int32(-1), int32(0)
		for _, c := range child[childOff[i]:childOff[i+1]] {
			if size[c] > bestSz {
				best, bestSz = c, size[c]
			}
		}
		heavy[i] = best
		if size[i] > 0 && best < 0 {
			chains++
		}
	}
	blk = make([]int32, len(order)+trailerWords*chains)
	heads, path := order[:roots], size[:0]
	at := int32(0)
	for len(heads) > 0 {
		h := heads[len(heads)-1]
		heads = heads[:len(heads)-1]
		path = path[:0]
		for r := h; r >= 0; r = heavy[r] {
			path = append(path, r)
			for _, c := range child[childOff[r]:childOff[r+1]] {
				if c != heavy[r] {
					heads = append(heads, c)
				}
			}
		}
		end := at + int32(len(path)) - 1
		anchor, tail := from[h].anchor, int32(0)
		jump, jumpEnd := int32(-1), int32(-1)
		if up := hops[h]; up >= 0 {
			w := from[up]
			jump, jumpEnd = w.slot, w.end
			anchor, tail = w.anchor, w.depth
		}
		blk[end+1], blk[end+2], blk[end+3], blk[end+4] = -2-jump, jumpEnd, anchor, tail
		for k, r := range path {
			slot := end - int32(k)
			from[r] = refRec{slot: slot, end: end, anchor: anchor, depth: end - slot + 1 + tail}
		}
		at = end + 1 + trailerWords
	}
	eachRecordRef(f, func(v, _, i int32) {
		if s := from[i].slot; s >= 0 {
			blk[s], slots[i] = v, s
		} else {
			ok = false
		}
	})
	return blk, slots, ok
}

// eachRecordRef calls fn(v, kid, i) for every pool record i in pool
// order, with its owning vertex v and its entry's key ID kid.
func eachRecordRef(f *Flat, fn func(v, kid, i int32)) {
	for v := 0; v < f.n; v++ {
		for e := f.entryOff[v]; e < f.entryOff[v+1]; e++ {
			for i := f.portalOff[e]; i < f.portalOff[e+1]; i++ {
				fn(int32(v), f.entryKey[e], i)
			}
		}
	}
}

// positionDiff checks the position invariant on f: every record's lane
// position is, bit for bit, the path position of the anchor its walk
// trailer names. It describes the first record that breaks it, or
// returns "".
func positionDiff(f *Flat) string {
	for e, k := range f.entryKey {
		for r := f.portalOff[e]; r < f.portalOff[e+1]; r++ {
			a := f.walkBlk[runEnd(f.walkBlk, f.walkSlot[r])+3]
			if want := f.pathPos[f.pathOff[k]+a]; math.Float64bits(f.lane[r].Pos) != math.Float64bits(want) {
				return fmt.Sprintf("record %d at position %v, its anchor %d at %v", r, f.lane[r].Pos, a, want)
			}
		}
	}
	return ""
}

// walkDiff compares f's walk layout with deriveWalkRef's word for word,
// walkBlk then walkSlot, and describes the first difference, or returns
// "".
func walkDiff(f *Flat, refBlk, refSlot []int32) string {
	if len(f.walkBlk) != len(refBlk) || len(f.walkSlot) != len(refSlot) {
		return fmt.Sprintf("%d words, %d records; reference %d, %d", len(f.walkBlk), len(f.walkSlot), len(refBlk), len(refSlot))
	}
	for i := range refBlk {
		if f.walkBlk[i] != refBlk[i] {
			return fmt.Sprintf("walkBlk[%d] = %d, reference %d", i, f.walkBlk[i], refBlk[i])
		}
	}
	for r := range refSlot {
		if f.walkSlot[r] != refSlot[r] {
			return fmt.Sprintf("walkSlot[%d] = %d, reference %d", r, f.walkSlot[r], refSlot[r])
		}
	}
	return ""
}

// deriveHops derives f's walk layout from pool-order hop links on a pool
// of the given width, linking them into the key partition as a decode
// links its hop section.
func deriveHops(f *Flat, hops []int32, workers int) (anchorRuns, error) {
	kp := f.partitionByKey()
	rank := int32(0)
	for r, h := range hops {
		rank = kp.link(int32(r), h, rank)
	}
	return f.derive(kp, rank, workers)
}

// checkWidths derives f's walk layout from hops at pool widths 1, 2, 4
// and 0 with shuffled task submission and compares each with the
// reference: the same layout word for word, or a failure at every width
// where the reference finds a record without a position. It reports
// whether the layout derived.
func checkWidths(t *testing.T, name string, f *Flat, hops []int32) bool {
	t.Helper()
	refBlk, refSlot, ok := deriveWalkRef(f, hops)
	par.SetShuffleSeed(0x5eed)
	defer par.SetShuffleSeed(0)
	for _, w := range []int{1, 2, 4, 0} {
		_, err := deriveHops(f, hops, w)
		if (err == nil) != ok {
			t.Fatalf("%s width %d: derivation error %v, but reference positions every record: %v", name, w, err, ok)
		}
		if d := walkDiff(f, refBlk, refSlot); ok && d != "" {
			t.Fatalf("%s width %d: %s", name, w, d)
		}
	}
	return ok
}

// keyRecords lists each key's pool records in pool order, and each
// record's key.
func keyRecords(f *Flat) (recs [][]int32, keyOf []int32) {
	recs, keyOf = make([][]int32, len(f.keys)), make([]int32, f.NumPortals())
	for e, k := range f.entryKey {
		for r := f.portalOff[e]; r < f.portalOff[e+1]; r++ {
			recs[k] = append(recs[k], r)
			keyOf[r] = k
		}
	}
	return recs, keyOf
}

// sectionOffset is the byte offset of the named section in f's image.
func sectionOffset(f *Flat, name string) int {
	c := f.counts()
	spans, _ := layout(&c)
	for i := range flatSections {
		if flatSections[i].name == name {
			return spans[i].off
		}
	}
	panic("no section " + name)
}

// readHops reads the p hop links of an image whose hop section starts
// at byte at.
func readHops(img []byte, at, p int) []int32 {
	hops := make([]int32, p)
	for r := range hops {
		hops[r] = int32(binary.LittleEndian.Uint32(img[at+4*r:]))
	}
	return hops
}

// imageHops returns the hop links of f's image: what Encode writes back
// from the walk layout.
func imageHops(f *Flat) []int32 {
	return readHops(f.Encode(), sectionOffset(f, "hops"), f.NumPortals())
}

// withHops returns a copy of f's image whose hop section holds hops.
func withHops(f *Flat, hops []int32) []byte {
	img, at := f.Encode(), sectionOffset(f, "hops")
	for r, h := range hops {
		binary.LittleEndian.PutUint32(img[at+4*r:], uint32(h))
	}
	return img
}

// checkRoundTrip requires that img decodes, with every record at its
// anchor's position, and encodes back to itself byte for byte — the walk
// layout keeps every hop link, and the lane every distance — and returns
// the decoded Flat.
func checkRoundTrip(t *testing.T, name string, img []byte) *Flat {
	t.Helper()
	dec, err := DecodeFlat(img)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if d := positionDiff(dec); d != "" {
		t.Fatalf("%s: decoded %s", name, d)
	}
	if enc := dec.Encode(); !bytes.Equal(enc, img) {
		i := 0
		for i < len(enc) && i < len(img) && enc[i] == img[i] {
			i++
		}
		t.Fatalf("%s: Encode(DecodeFlat(img)) differs from img at byte %d of %d", name, i, len(img))
	}
	return dec
}

// TestWalkLayoutMatchesReference pins the per-key derivation to the
// whole-pool reference word for word: walkBlk and every walkSlot, at
// pool widths 1, 2, 4 and 0 with shuffled task submission, on the golden
// fixture, 24×24 grids in both modes, the 64×64 portal grid and (outside
// -short) the 128×128 bench image, each of which must also decode and
// encode back to itself byte for byte. On 24×24 hop tables corrupted
// with same-key rewires, self-loops, extra anchors and rewires to a
// record at the same position, the derivation must fail exactly where
// the reference finds a record without a position, the self-loops
// always; the corrupted image must then fail to decode. Otherwise it
// either decodes, round-trips byte for byte and matches the reference,
// or fails to decode with an error, which same-position rewires, whose
// positions all stay put, must not.
func TestWalkLayoutMatchesReference(t *testing.T) {
	check := func(name string, f *Flat) {
		t.Helper()
		if !checkWidths(t, name, f, imageHops(f)) {
			t.Fatalf("%s: a record reaches no anchor", name)
		}
		checkRoundTrip(t, name, f.Encode())
	}
	for _, mode := range []Mode{CoverExact, CoverPortal} {
		check(fmt.Sprintf("golden %s", mode), goldenFlat(t, mode))
		check(fmt.Sprintf("24x24 %s", mode), gridFlat(t, 24, mode))
	}
	check("64x64 portal", gridFlat(t, 64, CoverPortal))
	if !testing.Short() {
		check("128x128 portal", gridFlat(t, 128, CoverPortal))
	}

	base := gridFlat(t, 24, CoverPortal)
	baseHops := imageHops(base)
	recs, keyOf := keyRecords(base)
	// Each key's records by position, for rewires that keep positions.
	atPos := map[[2]uint64][]int32{}
	for r, k := range keyOf {
		at := [2]uint64{uint64(k), math.Float64bits(base.lane[r].Pos)}
		atPos[at] = append(atPos[at], int32(r))
	}
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 16; c++ {
		f := &Flat{n: base.n, eps: base.eps, mode: base.mode, tables: base.tables, lane: base.lane}
		hops := append([]int32(nil), baseHops...)
		for i := 0; i < 1+rng.Intn(40); i++ {
			r := int32(rng.Intn(len(hops)))
			switch c % 4 {
			case 0: // same-key rewire
				kr := recs[keyOf[r]]
				hops[r] = kr[rng.Intn(len(kr))]
			case 1: // self-loop
				hops[r] = r
			case 2: // extra anchor
				hops[r] = -1
			case 3: // same-position rewire of a non-anchor
				if same := atPos[[2]uint64{uint64(keyOf[r]), math.Float64bits(base.lane[r].Pos)}]; hops[r] >= 0 {
					hops[r] = same[rng.Intn(len(same))]
				}
			}
		}
		name := fmt.Sprintf("corruption %d", c)
		derived := checkWidths(t, name, f, hops)
		if c%4 == 1 && derived {
			t.Fatalf("%s: self-loops derived a layout", name)
		}
		img := withHops(base, hops)
		if _, err := DecodeFlat(img); err != nil {
			if c%4 == 3 && derived {
				t.Fatalf("%s: rewires that keep every position: %v", name, err)
			}
			continue
		} else if !derived {
			t.Fatalf("%s: decoded, but a record has no position", name)
		}
		dec := checkRoundTrip(t, name, img)
		refBlk, refSlot, _ := deriveWalkRef(dec, hops)
		if d := walkDiff(dec, refBlk, refSlot); d != "" {
			t.Fatalf("%s: decoded %s", name, d)
		}
	}
}

// FuzzWalkLayout rewires up to 32 hops of a small portal image, each to
// a record of its own key or to no record (a new anchor), chosen by the
// input bytes. Such an image either fails to decode with an error — a
// record then reaches no anchor, has an anchor off the key's path, or
// lands at a position out of its entry's order — or it decodes, its walk
// layout equals deriveWalkRef's at pool widths 0, 1 and 2 (the last with
// shuffled task submission), it encodes back to itself byte for byte,
// and QueryPath answers every pair without error.
func FuzzWalkLayout(f *testing.F) {
	fl := gridFlat(f, 8, CoverPortal)
	enc := fl.Encode()
	hopsAt := sectionOffset(fl, "hops")
	recs, keyOf := keyRecords(fl)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{7, 1, 9, 0, 200, 3, 0, 0, 31, 2, 255, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		img := append([]byte(nil), enc...)
		for i := 0; i+4 <= len(ops) && i < 4*32; i += 4 {
			r := int(binary.LittleEndian.Uint16(ops[i:])) % fl.NumPortals()
			kr := recs[keyOf[r]]
			to := int32(-1)
			if x := int(binary.LittleEndian.Uint16(ops[i+2:])) % (len(kr) + 1); x < len(kr) {
				to = kr[x]
			}
			binary.LittleEndian.PutUint32(img[hopsAt+4*r:], uint32(to))
		}
		dec, err := DecodeFlat(img)
		if err != nil {
			return
		}
		if got := dec.Encode(); !bytes.Equal(got, img) {
			t.Fatal("Encode(DecodeFlat(img)) differs from img")
		}
		if d := positionDiff(dec); d != "" {
			t.Fatal(d)
		}
		hops := readHops(img, hopsAt, fl.NumPortals())
		refBlk, refSlot, ok := deriveWalkRef(dec, hops)
		if !ok {
			t.Fatal("decoded, but the reference finds a record without a position")
		}
		if d := walkDiff(dec, refBlk, refSlot); d != "" {
			t.Fatalf("width 0: %s", d)
		}
		for _, w := range []int{1, 2} {
			par.SetShuffleSeed(int64(len(ops)) + 1)
			_, err := deriveHops(dec, hops, w)
			par.SetShuffleSeed(0)
			if err != nil {
				t.Fatalf("width %d: %v", w, err)
			}
			if d := walkDiff(dec, refBlk, refSlot); d != "" {
				t.Fatalf("width %d: %s", w, d)
			}
		}
		var buf []int32
		for u := 0; u < dec.N(); u++ {
			for v := 0; v < dec.N(); v++ {
				var err error
				if _, buf, err = dec.QueryPath(u, v, buf[:0]); err != nil {
					t.Fatalf("QueryPath(%d,%d): %v", u, v, err)
				}
			}
		}
	})
}

// BenchmarkDeriveWalk times the walk derivation alone on the bench-shaped
// 64×64 ε = 0.25 portal image at the GOMAXPROCS pool width, so the layer
// pairs without the end-to-end benchmark:
//
//	go test -run '^$' -bench DeriveWalk -cpu 1,2 ./internal/oracle/
func BenchmarkDeriveWalk(b *testing.B) {
	fl := gridFlat(b, 64, CoverPortal)
	hops := imageHops(fl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deriveHops(fl, hops, 0); err != nil {
			b.Fatal(err)
		}
	}
}
