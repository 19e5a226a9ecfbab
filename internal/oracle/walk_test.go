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

// deriveWalkRef is a whole-pool walk derivation written apart from the
// per-key deriveWalk, kept as the reference the differential tests
// compare the layout against word for word. It reads f's tables and the
// hop links and returns the walkBlk/walkSlot pair instead of storing it,
// with ok false where a record has no position and deriveWalk must fail:
// it reaches no anchor, or its anchor's vertex is not on the key's path.
// (The tests that plant hops across keys or paths that repeat a vertex
// check those failures themselves.)
//
// The placement rule: the keys come in ID order, each one's layout right
// after the last one's. Within a key the records are listed parents
// first — each, in pool order, right after its unlisted ancestors — and
// every chain head, an anchor or a record that is not its parent's heavy
// child (the child with the largest subtree, the lowest pool index on
// ties), lays its heavy chain down where the listing reaches it: child to
// parent, the head on the run's last slot, then the trailer. A chain from
// any slot to its head is so one contiguous owner run. An anchor's path
// index is the index of its vertex on its key's path.
func deriveWalkRef(f *Flat, hops []int32) (blk, slots []int32, ok bool) {
	p := len(hops)
	slots = make([]int32, p)
	if p == 0 {
		return nil, slots, true
	}
	byKey := make([][]int32, len(f.keys))
	anchor := make([]int32, p)
	ok = true
	eachRecordRef(f, func(v, kid, i int32) {
		byKey[kid] = append(byKey[kid], i)
		if hops[i] < 0 {
			anchor[i] = int32(slices.Index(f.pathVert[f.pathOff[kid]:f.pathOff[kid+1]], v))
			ok = ok && anchor[i] >= 0
		}
	})
	// The listing, by recursion: a record is listed after its parent, and
	// one met again before it is listed closes a hop cycle.
	const (
		unseen = iota
		visiting
		listed
	)
	state := make([]int8, p)
	order := make([]int32, 0, p)
	var list func(r int32) bool
	list = func(r int32) bool {
		switch state[r] {
		case listed:
			return true
		case visiting:
			return false
		}
		state[r] = visiting
		if h := hops[r]; h >= 0 && !list(h) {
			return false
		}
		state[r] = listed
		order = append(order, r)
		return true
	}
	for _, recs := range byKey {
		for _, r := range recs {
			ok = ok && list(r)
		}
	}
	if !ok {
		return nil, nil, false
	}
	// Children of each record, CSR form, each list in ascending record
	// order; subtree sizes, children before parents; heavy children.
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
	size := make([]int32, p)
	for x := len(order) - 1; x >= 0; x-- {
		r := order[x]
		size[r]++
		if h := hops[r]; h >= 0 {
			size[h] += size[r]
		}
	}
	heavy := make([]int32, p)
	leaves := 0
	for i := 0; i < p; i++ {
		best, bestSz := int32(-1), int32(0)
		for _, c := range child[childOff[i]:childOff[i+1]] {
			if size[c] > bestSz {
				best, bestSz = c, size[c]
			}
		}
		heavy[i] = best
		if best < 0 {
			leaves++
		}
	}
	// Each placed record's slot, run end, chain anchor and walk length.
	type refRec struct{ slot, end, anchor, depth int32 }
	from := make([]refRec, p)
	blk = make([]int32, p+trailerWords*leaves)
	at := int32(0)
	var run []int32
	for _, h := range order {
		up := hops[h]
		if up >= 0 && heavy[up] == h {
			continue // laid down with its chain's head
		}
		run = run[:0]
		for r := h; r >= 0; r = heavy[r] {
			run = append(run, r)
		}
		end := at + int32(len(run)) - 1
		a, tail := anchor[h], int32(0)
		jump, jumpEnd := int32(-1), int32(-1)
		if up >= 0 {
			w := from[up]
			jump, jumpEnd = w.slot, w.end
			a, tail = w.anchor, w.depth
		}
		blk[end+1], blk[end+2], blk[end+3], blk[end+4] = -2-jump, jumpEnd, a, tail
		for k, r := range run {
			slot := end - int32(k)
			from[r] = refRec{slot: slot, end: end, anchor: a, depth: end - slot + 1 + tail}
		}
		at = end + 1 + trailerWords
	}
	eachRecordRef(f, func(v, _, i int32) {
		blk[from[i].slot], slots[i] = v, from[i].slot
	})
	return blk, slots, true
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

// anchorOf returns the path index of the anchor that the walk layout
// blk/slots gives record r: the one its run's trailer names.
func anchorOf(blk, slots []int32, r int32) int32 {
	return blk[runEnd(blk, slots[r])+3]
}

// positionDiff checks the position invariant on f: every record's lane
// position is, bit for bit, the path position of the anchor its walk
// trailer names. It describes the first record that breaks it, or
// returns "".
func positionDiff(f *Flat) string {
	for e, k := range f.entryKey {
		for r := f.portalOff[e]; r < f.portalOff[e+1]; r++ {
			a := anchorOf(f.walkBlk, f.walkSlot, r)
			if want := f.pathPos[f.pathOff[k]+a]; math.Float64bits(f.lane[r].Pos) != math.Float64bits(want) {
				return fmt.Sprintf("record %d at position %v, its anchor %d at %v", r, f.lane[r].Pos, a, want)
			}
		}
	}
	return ""
}

// refOrdered reports whether the positions the layout blk/slots gives
// f's records, each its anchor's path position, are non-decreasing within
// every entry, as a decode requires.
func refOrdered(f *Flat, blk, slots []int32) bool {
	for e, k := range f.entryKey {
		prev := math.Inf(-1)
		for r := f.portalOff[e]; r < f.portalOff[e+1]; r++ {
			p := f.pathPos[f.pathOff[k]+anchorOf(blk, slots, r)]
			if p < prev {
				return false
			}
			prev = p
		}
	}
	return true
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

// walkCheck reads every record's walk off f's layout as QueryPath reads
// it — its owner run from its slot to the trailer, then each jump — and
// requires it to be the record's hop chain, followed link by link
// through hops: the chain's records slot by slot, each slot holding its
// record's owning vertex, ending at an anchor whose path index every
// trailer on the way names, with each trailer's tail the walk length
// left past its run. It describes the first record whose walk differs,
// or returns "".
func walkCheck(f *Flat, hops []int32) string {
	owner, keyOf := make([]int32, len(hops)), make([]int32, len(hops))
	eachRecordRef(f, func(v, kid, i int32) { owner[i], keyOf[i] = v, kid })
	blk, slots := f.walkBlk, f.walkSlot
	var chain []int32
	for r := range hops {
		chain = chain[:0]
		for x := int32(r); ; x = hops[x] {
			if chain = append(chain, x); len(chain) > len(hops) {
				return fmt.Sprintf("record %d: its hops reach no anchor", r)
			}
			if hops[x] < 0 {
				break
			}
		}
		a := chain[len(chain)-1]
		path := f.pathVert[f.pathOff[keyOf[a]]:f.pathOff[keyOf[a]+1]]
		want := int32(slices.Index(path, owner[a]))
		s, e, i := slots[r], runEnd(blk, slots[r]), 0
		for {
			for ; s <= e; s, i = s+1, i+1 {
				if i == len(chain) || slots[chain[i]] != s || blk[s] != owner[chain[i]] {
					return fmt.Sprintf("record %d: walk slot %d (step %d) is not its hop chain's", r, s, i)
				}
			}
			if e+trailerWords >= int32(len(blk)) || blk[e+1] >= 0 {
				return fmt.Sprintf("record %d: run ending at slot %d has no trailer", r, e)
			}
			if blk[e+3] != want || blk[e+4] != int32(len(chain)-i) {
				return fmt.Sprintf("record %d: trailer at slot %d names anchor %d and tail %d; its chain ends at anchor %d, %d records on",
					r, e+1, blk[e+3], blk[e+4], want, len(chain)-i)
			}
			if blk[e+1] == -1 {
				break
			}
			s, e = -2-blk[e+1], blk[e+2]
			if s < 0 || s > e || e >= int32(len(blk)) {
				return fmt.Sprintf("record %d: trailer at slot %d jumps to [%d, %d]", r, e+1, s, e)
			}
		}
		if i != len(chain) {
			return fmt.Sprintf("record %d: walk of %d records, hop chain of %d", r, i, len(chain))
		}
	}
	return ""
}

// deriveHops stores pool-order hop links in f's lane, as a decode stores
// its hop section, and derives f's walk layout and lane positions from
// them on a pool of the given width, the key partition built on a pool
// of that width too. It writes f's lane, so f must own it (see ownLane).
func deriveHops(f *Flat, hops []int32, workers int) error {
	return f.derive(f.partitionByKey(par.New(workers, nil)), hopLinks{lane: f.lane}, storeHops(f, hops), workers)
}

// storeHops stores hops in f's lane and returns the records they name.
func storeHops(f *Flat, hops []int32) linkSet {
	linked := newLinkSet(len(hops))
	for r, h := range hops {
		f.lane[r].Pos = float64(h)
		if h >= 0 {
			linked.add(h)
		}
	}
	return linked
}

// ownLane returns a copy of f with a copy of its lane, for deriveHops to
// write.
func ownLane(f *Flat) *Flat {
	g := *f
	g.lane = alignedPortals(len(f.lane))
	copy(g.lane, f.lane)
	return &g
}

// checkWidths derives f's walk layout and lane positions from hops, on a
// copy of f's lane, at pool widths 1, 2, 4 and 0 with shuffled task
// submission and compares each with the reference: the same layout word
// for word, every record's walk its hop chain (walkCheck), every record
// at its anchor's position and every distance kept, or a failure at
// every width where the reference finds a record without a position or
// positions that decrease within an entry. It reports whether the layout
// derived.
func checkWidths(t *testing.T, name string, f *Flat, hops []int32) bool {
	t.Helper()
	refBlk, refSlot, ok := deriveWalkRef(f, hops)
	ok = ok && refOrdered(f, refBlk, refSlot)
	par.SetShuffleSeed(0x5eed)
	defer par.SetShuffleSeed(0)
	for _, w := range []int{1, 2, 4, 0} {
		g := ownLane(f)
		err := deriveHops(g, hops, w)
		if (err == nil) != ok {
			t.Fatalf("%s width %d: derivation error %v, but reference positions every record in order: %v", name, w, err, ok)
		}
		if !ok {
			continue
		}
		if d := walkDiff(g, refBlk, refSlot); d != "" {
			t.Fatalf("%s width %d: %s", name, w, d)
		}
		if d := walkCheck(g, hops); d != "" {
			t.Fatalf("%s width %d: %s", name, w, d)
		}
		if d := positionDiff(g); d != "" {
			t.Fatalf("%s width %d: %s", name, w, d)
		}
		for r := range g.lane {
			if math.Float64bits(g.lane[r].Dist) != math.Float64bits(f.lane[r].Dist) {
				t.Fatalf("%s width %d: record %d's distance %v became %v", name, w, r, f.lane[r].Dist, g.lane[r].Dist)
			}
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
// pool widths 1, 2, 4 and 0 with shuffled task submission, with the hop
// links in the lane as a decode keeps them, and every record's walk to
// its hop chain (walkCheck), on the golden fixture, 24×24
// grids in both modes, the 64×64 portal grid and (outside -short) the
// 128×128 bench image, each of which must also decode and encode back to
// itself byte for byte. On 24×24 hop tables corrupted with same-key
// rewires, self-loops, extra anchors and rewires to a record at the same
// position, the derivation must fail exactly where the reference finds a
// record without a position or positions that decrease within an entry,
// the self-loops always, and the corrupted image must then fail to
// decode; otherwise it must decode, round-trip byte for byte and match
// the reference and walk its hop chains. Same-position rewires, whose
// positions all stay put, fail only where they close a cycle.
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
		if _, err := DecodeFlat(img); (err == nil) != derived {
			t.Fatalf("%s: decode error %v, but the layout derived: %v", name, err, derived)
		} else if err != nil {
			continue
		}
		dec := checkRoundTrip(t, name, img)
		refBlk, refSlot, _ := deriveWalkRef(dec, hops)
		if d := walkDiff(dec, refBlk, refSlot); d != "" {
			t.Fatalf("%s: decoded %s", name, d)
		}
		if d := walkCheck(dec, hops); d != "" {
			t.Fatalf("%s: decoded %s", name, d)
		}
	}
}

// FuzzWalkLayout rewires up to 32 hops of a small portal image, each to
// a record of its own key or to no record (a new anchor), chosen by the
// input bytes. Such an image either fails to decode with an error — a
// record then reaches no anchor, has an anchor off the key's path, or
// lands at a position out of its entry's order — or it decodes, its walk
// layout equals deriveWalkRef's and walks every record's hop chain
// (walkCheck) at pool widths 0, 1 and 2 (the last two with shuffled task
// submission, each on a copy of the lane holding the hop links as the
// decode keeps them, and giving it the decoded lane bit for bit), it
// encodes back to itself byte for byte, and QueryPath answers every pair
// without error.
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
		if d := walkCheck(dec, hops); d != "" {
			t.Fatalf("width 0: %s", d)
		}
		for _, w := range []int{1, 2} {
			g := ownLane(dec)
			par.SetShuffleSeed(int64(len(ops)) + 1)
			err := deriveHops(g, hops, w)
			par.SetShuffleSeed(0)
			if err != nil {
				t.Fatalf("width %d: %v", w, err)
			}
			if d := walkDiff(g, refBlk, refSlot); d != "" {
				t.Fatalf("width %d: %s", w, d)
			}
			if d := walkCheck(g, hops); d != "" {
				t.Fatalf("width %d: %s", w, d)
			}
			if d := laneDiff(g.lane, dec.lane); d != "" {
				t.Fatalf("width %d: lane against the decoded one: %s", w, d)
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

// BenchmarkDeriveWalk times the walk derivation alone — the counting
// pass and the key round, what DeriveNs reports — with the hop links in
// the lane as a decode keeps them, at the GOMAXPROCS pool width, on the
// bench-shaped ε = 0.25 portal images: 64×64 and, outside -short,
// 128×128, the bulk workload's grid. Each iteration stores the links and
// builds the key partition untimed. The layer so pairs without the
// end-to-end benchmark:
//
//	go test -run '^$' -bench DeriveWalk -cpu 1,2 ./internal/oracle/
func BenchmarkDeriveWalk(b *testing.B) {
	for _, side := range []int{64, 128} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			if side > 64 && testing.Short() {
				b.Skip("the 128×128 image runs outside -short")
			}
			fl := gridFlat(b, side, CoverPortal)
			hops := imageHops(fl)
			g := ownLane(fl)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				linked, kp := storeHops(g, hops), g.partitionByKey(nil)
				b.StartTimer()
				if err := g.derive(kp, hopLinks{lane: g.lane}, linked, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
