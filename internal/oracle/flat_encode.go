package oracle

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"pathsep/internal/par"
)

// Flat image format, version 3. Every word is little-endian:
//
//	[0]   magic 0xA7
//	[1]   version 3
//	[2:8] reserved (zero)
//	[8]   n            uint64
//	[16]  eps          float64 bits
//	[24]  mode         uint64
//	[32]  numKeys      uint64
//	[40]  numEntries   uint64
//	[48]  numPortals   uint64
//	[56]  numPathVerts uint64
//	[64]  the sections of flatSections, in table order
//
// flatSections is the only description of the layout: EncodedSize,
// Encode and DecodeFlat all walk it, so writer and reader cannot disagree
// on a section's place, width or count. Each section starts at the next
// multiple of its widest word, and a record's words sit where the
// matching Go type keeps its fields on a little-endian host, so DecodeFlat
// reads every section in place out of an 8-byte-aligned buffer.
//
// The image stores no portal positions: a record's position is its
// chain anchor's path_pos entry (see DecodeFlat). Any other version byte
// is rejected, version 2 (which stored them) and the distance-only
// version 1 included: rebuild such images (pathsepd -graph …
// -save-image).
const (
	flatMagic   = 0xA7
	flatVersion = 3
	flatHeader  = 64
)

// hostLittleEndian reports whether this machine stores multi-byte values
// little-endian (the order the image is defined in).
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// flatCounts holds the header's element counts, indexed by the count*
// constants.
type flatCounts [5]int

const (
	countN = iota
	countKeys
	countEntries
	countPortals
	countPathVerts
)

// countAt is the header byte offset of each flatCounts element.
var countAt = [len(flatCounts{})]int{8, 32, 40, 48, 56}

// wire is an image's sections as typed records, one field per row of
// flatSections. DecodeFlat fills it with views of the image it is
// reading, validates them, copies the tables into the Flat it returns,
// and derives the walk layout from the hop links and then the lane from
// the distances, both in place; Encode copies the tables from a Flat.
type wire struct {
	tables
	dists []float64 // each pool record's Dist
	hops  []int32   // pool index of each record's next record, -1 at an anchor
}

// section is one row of the image layout: a run of fixed-width records
// bound to one wire field.
type section struct {
	name  string
	words []int // little-endian word widths of one record, in order
	// The record count is header count number count plus extra (1 for
	// the CSR offset arrays).
	count, extra int
	// reject is a first word validation must refuse in record 0. The
	// decode tests plant it in every section, so a section added without
	// element-level validation fails them.
	reject uint64
	// raw exposes the field's records as bytes (Encode); alias points the
	// field at count records of an aligned image (DecodeFlat).
	raw   func(w *wire) []byte
	alias func(w *wire, image []byte, off, count int) error
	// put, when set, writes the section's little-endian words straight
	// from the Flat's serving form into dst, the section's bytes in the
	// image (Encode): the Flat keeps no wire copy of it.
	put func(f *Flat, dst []byte)
}

// row builds a section bound to the wire field that field returns. The
// word widths must add up to the field's element size; a mismatch is a
// bug in the table and fails at package initialization.
func row[T any](name string, words []int, count, extra int, reject uint64, field func(w *wire) *[]T) section {
	s := section{name: name, words: words, count: count, extra: extra, reject: reject}
	var zero T
	if int(unsafe.Sizeof(zero)) != s.size() {
		panic("oracle: flat section " + name + ": word widths do not add up to the element size")
	}
	s.raw = func(w *wire) []byte {
		recs := *field(w)
		b, _ := view[byte](recs, 0, len(recs)*s.size()) // a byte view is never misaligned
		return b
	}
	s.alias = func(w *wire, image []byte, off, count int) (err error) {
		*field(w), err = view[T](image, off, count)
		return err
	}
	return s
}

// from marks a section Encode writes with put instead of copying it.
func (s section) from(put func(f *Flat, dst []byte)) section {
	s.put = put
	return s
}

// First words every validation refuses (see section.reject).
const (
	rejectIndex = 0xFFFF_FFFF           // int32 −1: no vertex, key or offset start
	rejectHop   = 0xFFFF_FFFE           // int32 −2: below the −1 anchor sentinel
	rejectFloat = 0x7FF8_0000_0000_0001 // a NaN
)

// flatSections is the image layout after the header, in order.
var flatSections = [...]section{
	row("keys", []int{4, 2, 2}, countKeys, 0, rejectIndex, func(w *wire) *[]Key { return &w.keys }),
	row("entry_off", []int{4}, countN, 1, rejectIndex, func(w *wire) *[]int32 { return &w.entryOff }),
	row("entry_key", []int{4}, countEntries, 0, rejectIndex, func(w *wire) *[]int32 { return &w.entryKey }),
	row("portal_off", []int{4}, countEntries, 1, rejectIndex, func(w *wire) *[]int32 { return &w.portalOff }),
	row("dists", []int{8}, countPortals, 0, rejectFloat, func(w *wire) *[]float64 { return &w.dists }).from((*Flat).putDists),
	row("hops", []int{4}, countPortals, 0, rejectHop, func(w *wire) *[]int32 { return &w.hops }).from((*Flat).putHops),
	row("path_off", []int{4}, countKeys, 1, rejectIndex, func(w *wire) *[]int32 { return &w.pathOff }),
	row("path_vert", []int{4}, countPathVerts, 0, rejectIndex, func(w *wire) *[]int32 { return &w.pathVert }),
	row("path_pos", []int{8}, countPathVerts, 0, rejectFloat, func(w *wire) *[]float64 { return &w.pathPos }),
}

// size is the record width in bytes.
func (s *section) size() int {
	n := 0
	for _, w := range s.words {
		n += w
	}
	return n
}

// align is the section's start alignment: its widest word.
func (s *section) align() int {
	a := 1
	for _, w := range s.words {
		a = max(a, w)
	}
	return a
}

// records is the section's record count under the header counts c.
func (s *section) records(c *flatCounts) int { return c[s.count] + s.extra }

// span is one section's byte range [off, end) in the image.
type span struct{ off, end int }

// layout places the sections after the header for counts c and returns
// their spans and the total image size.
func layout(c *flatCounts) (spans [len(flatSections)]span, total int) {
	at := flatHeader
	for i := range flatSections {
		s := &flatSections[i]
		at = (at + s.align() - 1) &^ (s.align() - 1)
		spans[i] = span{at, at + s.records(c)*s.size()}
		at = spans[i].end
	}
	return spans, at
}

// view reinterprets count values of T starting at src[off], in place: the
// result aliases src. It is the image codec's only unsafe.Slice, and it
// refuses a span that overruns src or starts misaligned for T, so a short
// or shifted buffer is an error, never an out-of-bounds typed read.
func view[T, S any](src []S, off, count int) ([]T, error) {
	if count == 0 {
		return nil, nil
	}
	var t T
	var s S
	if off < 0 || count < 0 || off >= len(src) ||
		uintptr(count)*unsafe.Sizeof(t) > uintptr(len(src)-off)*unsafe.Sizeof(s) {
		return nil, fmt.Errorf("%d records at %d overrun a %d-element buffer", count, off, len(src))
	}
	if uintptr(unsafe.Pointer(&src[off]))%unsafe.Alignof(t) != 0 {
		return nil, fmt.Errorf("records at %d are misaligned", off)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&src[off])), count), nil
}

// swapWords reverses the bytes of every word of the records in b: it
// turns little-endian records into host order on a big-endian machine,
// and back.
func swapWords(b []byte, words []int) {
	for at := 0; at < len(b); {
		for _, w := range words {
			for i, j := at, at+w-1; i < j; i, j = i+1, j-1 {
				b[i], b[j] = b[j], b[i]
			}
			at += w
		}
	}
}

// counts returns the header counts of f.
func (f *Flat) counts() flatCounts {
	return flatCounts{
		countN:         f.n,
		countKeys:      len(f.keys),
		countEntries:   len(f.entryKey),
		countPortals:   f.NumPortals(),
		countPathVerts: len(f.pathVert),
	}
}

// EncodedSize returns the exact byte length of Encode's output.
func (f *Flat) EncodedSize() int {
	c := f.counts()
	_, total := layout(&c)
	return total
}

// SectionSize is one section of a Flat's image: its name in the layout,
// its record count and its length in bytes, alignment padding excluded.
type SectionSize struct {
	Name           string
	Records, Bytes int
}

// Sections lists the sections of the image Encode writes for f, in
// layout order.
func (f *Flat) Sections() []SectionSize {
	c := f.counts()
	spans, _ := layout(&c)
	out := make([]SectionSize, len(flatSections))
	for i := range flatSections {
		out[i] = SectionSize{flatSections[i].name, flatSections[i].records(&c), spans[i].end - spans[i].off}
	}
	return out
}

// Encode serializes the flat oracle. The tables are copied section by
// section; the distances are written from the sweep lane, which keeps
// every Dist bit for bit, and the hop links from the walk layout, each
// straight into the output (see putDists and putHops). Positions are not
// written: each is its chain anchor's path_pos entry.
// The output is 8-byte aligned (Go allocations of this size always are),
// so DecodeFlat reads it back in place on a little-endian host.
func (f *Flat) Encode() []byte {
	c := f.counts()
	spans, total := layout(&c)
	w := wire{tables: f.tables}
	buf := make([]byte, total)
	buf[0], buf[1] = flatMagic, flatVersion
	le := binary.LittleEndian
	le.PutUint64(buf[16:], math.Float64bits(f.eps))
	le.PutUint64(buf[24:], uint64(f.mode))
	for i, at := range countAt {
		le.PutUint64(buf[at:], uint64(c[i]))
	}
	for i := range flatSections {
		s, dst := &flatSections[i], buf[spans[i].off:spans[i].end]
		if s.put != nil {
			s.put(f, dst)
			continue
		}
		copy(dst, s.raw(&w))
		if !hostLittleEndian {
			swapWords(dst, s.words)
		}
	}
	return buf
}

// putDists writes every pool record's Dist from the sweep lane into dst,
// the image's dists section, on a runtime.GOMAXPROCS(0) pool of record
// ranges.
func (f *Flat) putDists(dst []byte) {
	le := binary.LittleEndian
	eachRange(f.NumPortals(), func(lo, hi int) {
		rows, ln := dst[8*lo:8*hi], f.lane[3*lo:3*hi]
		for len(rows) >= 8 && len(ln) >= 3 {
			le.PutUint64(rows, math.Float64bits(ln[1]))
			rows, ln = rows[8:], ln[3:]
		}
	})
}

// putHops writes every pool record's hop link from the walk layout into
// dst, the image's hop section: a record inside an owner run hops to the
// next slot's record, a chain head to the record at its trailer's jump
// slot, and an anchor head to −1. One pass over record ranges fills the
// slot→record inverse (record+1, so trailer words read 0); a second,
// over walkBlk ranges, reads each run and the inverse in slot order and
// writes every record's hop. Both run on a runtime.GOMAXPROCS(0) pool.
func (f *Flat) putHops(dst []byte) {
	le := binary.LittleEndian
	blk, slots := f.walkBlk, f.walkSlot
	rec := make([]int32, len(blk))
	eachRange(len(slots), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			rec[slots[r]] = int32(r) + 1
		}
	})
	eachRange(len(blk), func(lo, hi int) {
		for s := lo; s < hi; s++ {
			r := rec[s] - 1
			if r < 0 {
				continue // a trailer word the range starts in
			}
			hop := int32(-1)
			switch next := blk[s+1]; {
			case next >= 0:
				hop = rec[s+1] - 1
			case next < -1:
				hop = rec[-2-next] - 1
				s += trailerWords
			default:
				s += trailerWords
			}
			le.PutUint32(dst[4*r:], uint32(hop))
		}
	})
}

// eachRange calls fn on ranges [lo, hi) that split [0, n), on a
// runtime.GOMAXPROCS(0)-wide pool.
func eachRange(n int, fn func(lo, hi int)) {
	_ = eachRangeErr(n, func(lo, hi int) error {
		fn(lo, hi)
		return nil
	})
}

// eachRangeErr is eachRange for an fn that can fail: it returns the
// error of the first range, in range order, that fails.
func eachRangeErr(n int, fn func(lo, hi int) error) error {
	pool := par.New(0, nil)
	split := newVertexSplit(n, rangesPerWorker*pool.Workers())
	errs := make([]error, split.ranges)
	pool.ForEach(split.ranges, func(i int) {
		lo, hi := split.bounds(i)
		errs[i] = fn(lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DecodeFlat parses a flat oracle produced by Encode into a Flat that
// owns all of its memory: buf is not retained, so the caller may reuse
// or overwrite it as soon as DecodeFlat returns. The sections are read
// in place as typed views of buf and validated element by element; the
// Flat then copies the CSR tables and derives the walk layout from a
// view of the hop links, which it does not copy (see Flat.derive). Only
// then can it build the sweep lane, the only resident copy of the pool:
// each record's Dist comes from the dists section and its position from
// the walk, as its chain anchor's path_pos entry, on a
// runtime.GOMAXPROCS(0) pool of entry ranges (see buildLane). A record
// no anchor reaches has no position, so the image is refused, as it is
// when an anchor's vertex is not on its key's path or a path repeats a
// vertex. Misaligned buffers and big-endian hosts first take one
// aligned, host-order copy of the image, read the same way; the result
// is identical.
//
// A malformed buffer yields an error, never a panicking query.
func DecodeFlat(buf []byte) (*Flat, error) {
	if len(buf) < 2 || buf[0] != flatMagic {
		return nil, fmt.Errorf("oracle: flat: bad magic or truncated header")
	}
	if buf[1] != flatVersion {
		return nil, fmt.Errorf("oracle: flat: unsupported version %d (want %d; rebuild the image)", buf[1], flatVersion)
	}
	if len(buf) < flatHeader {
		return nil, fmt.Errorf("oracle: flat: truncated header")
	}
	le := binary.LittleEndian
	var c flatCounts
	for i, at := range countAt {
		v := le.Uint64(buf[at:])
		if v >= math.MaxInt32 {
			return nil, fmt.Errorf("oracle: flat: header count at byte %d out of range (%d)", at, v)
		}
		c[i] = int(v)
	}
	spans, total := layout(&c)
	if len(buf) != total {
		return nil, fmt.Errorf("oracle: flat: size %d does not match header (want %d)", len(buf), total)
	}
	if at := nonzeroGap(buf, &spans); at >= 0 {
		return nil, fmt.Errorf("oracle: flat: reserved or padding byte %d is not zero", at)
	}
	eps := math.Float64frombits(le.Uint64(buf[16:]))
	mode := Mode(le.Uint64(buf[24:]))
	if !hostLittleEndian || uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		buf = alignedCopy(buf, &spans)
	}
	var w wire
	for i := range flatSections {
		s := &flatSections[i]
		if err := s.alias(&w, buf, spans[i].off, s.records(&c)); err != nil {
			return nil, fmt.Errorf("oracle: flat: section %s: %w", s.name, err)
		}
	}
	if err := w.validate(c[countN]); err != nil {
		return nil, err
	}
	f := &Flat{n: c[countN], eps: eps, mode: mode, tables: w.tables.clone(), lane: alignedFloats(3 * len(w.dists))}
	anchors, err := f.derive(w.hops, 0)
	if err != nil {
		return nil, fmt.Errorf("oracle: flat: %w", err)
	}
	po := f.portalOff
	if err := eachRangeErr(len(f.entryKey), func(lo, hi int) error {
		return f.buildLane(lo, hi, nil, w.dists[po[lo]:po[hi]], anchors)
	}); err != nil {
		return nil, fmt.Errorf("oracle: flat: %w", err)
	}
	return f, nil
}

// nonzeroGap returns the first byte of image that no header field or
// section holds — the header's reserved bytes and the alignment padding
// before a section — and that is not zero, as Encode writes it, or -1.
// Refusing those makes Encode(DecodeFlat(image)) == image for every
// image that decodes.
func nonzeroGap(image []byte, spans *[len(flatSections)]span) int {
	for at := 2; at < 8; at++ {
		if image[at] != 0 {
			return at
		}
	}
	end := flatHeader
	for _, s := range spans {
		for at := end; at < s.off; at++ {
			if image[at] != 0 {
				return at
			}
		}
		end = s.end
	}
	return -1
}

// alignedCopy is how misaligned or big-endian input reaches DecodeFlat's
// views: it copies the image into fresh 8-byte-aligned memory and, on a
// big-endian host, swaps every section's words into host order.
func alignedCopy(image []byte, spans *[len(flatSections)]span) []byte {
	words := make([]uint64, (len(image)+7)/8)
	own, _ := view[byte](words, 0, len(image)) // a byte view is never misaligned
	copy(own, image)
	if !hostLittleEndian {
		for i := range flatSections {
			swapWords(own[spans[i].off:spans[i].end], flatSections[i].words)
		}
	}
	return own
}

// validate bounds-checks every CSR offset so the hot path can index
// without guards, and checks the entry-key order the merge-join relies
// on: strictly increasing within each vertex. The distances, and the
// positions the walk gives the records, are checked where the lane is
// built from them (buildLane).
func (w *wire) validate(n int) error {
	if w.entryOff[0] != 0 || int(w.entryOff[n]) != len(w.entryKey) {
		return fmt.Errorf("oracle: flat: entry offsets do not span the entry table")
	}
	for v := 0; v < n; v++ {
		if w.entryOff[v] > w.entryOff[v+1] {
			return fmt.Errorf("oracle: flat: entry offsets decrease at vertex %d", v)
		}
	}
	if w.portalOff[0] != 0 || int(w.portalOff[len(w.portalOff)-1]) != len(w.dists) {
		return fmt.Errorf("oracle: flat: portal offsets do not span the pool")
	}
	for v := 0; v < n; v++ {
		for e := w.entryOff[v]; e < w.entryOff[v+1]; e++ {
			if w.portalOff[e] > w.portalOff[e+1] {
				return fmt.Errorf("oracle: flat: portal offsets decrease at entry %d", e)
			}
			if int(w.entryKey[e]) < 0 || int(w.entryKey[e]) >= len(w.keys) {
				return fmt.Errorf("oracle: flat: entry %d references unknown key %d", e, w.entryKey[e])
			}
			if e > w.entryOff[v] && w.entryKey[e-1] >= w.entryKey[e] {
				return fmt.Errorf("oracle: flat: entry keys of vertex %d not strictly increasing at entry %d", v, e)
			}
		}
	}
	// Element-level checks on the record sections, not just the CSR
	// offsets that index them: an interned key must name a vertex of this
	// graph.
	for i := range w.keys {
		if int(w.keys[i].Node) < 0 || int(w.keys[i].Node) >= n {
			return fmt.Errorf("oracle: flat: key %d names out-of-range vertex %d", i, w.keys[i].Node)
		}
	}
	return w.validatePaths(n)
}

// validatePaths bounds-checks the path sections: hop links stay inside
// the portal pool, the path geometry spans its CSR table, vertices are
// in range, and positions are NaN-free and non-decreasing per path. The
// walk derivation (see Flat.deriveWalk), which partitions the pool by
// key anyway, refuses the semantic corruption: a hop that leaves its
// key, a record no anchor reaches, an anchor off its key's path and a
// path that repeats a vertex. Validation here is what lets it index
// without bounds checks.
func (w *wire) validatePaths(n int) error {
	for i, h := range w.hops {
		if h < -1 || int(h) >= len(w.dists) {
			return fmt.Errorf("oracle: flat: hop %d links to out-of-range record %d", i, h)
		}
	}
	if w.pathOff[0] != 0 || int(w.pathOff[len(w.pathOff)-1]) != len(w.pathVert) {
		return fmt.Errorf("oracle: flat: path offsets do not span the geometry")
	}
	// Check the whole offset table before indexing through it: a later
	// decrease can push an earlier span past the geometry arrays.
	for k := 0; k+1 < len(w.pathOff); k++ {
		if w.pathOff[k] > w.pathOff[k+1] {
			return fmt.Errorf("oracle: flat: path offsets decrease at key %d", k)
		}
	}
	for k := 0; k+1 < len(w.pathOff); k++ {
		prev := math.Inf(-1)
		for x := w.pathOff[k]; x < w.pathOff[k+1]; x++ {
			if int(w.pathVert[x]) < 0 || int(w.pathVert[x]) >= n {
				return fmt.Errorf("oracle: flat: path vertex %d out of range", w.pathVert[x])
			}
			p := w.pathPos[x]
			if math.IsNaN(p) || p < prev {
				return fmt.Errorf("oracle: flat: path positions not sorted at key %d", k)
			}
			prev = p
		}
	}
	return nil
}
