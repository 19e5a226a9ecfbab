package oracle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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
// Encode and DecodeFlatFrom all walk it, so writer and reader cannot
// disagree on a section's place, width or count. Each section starts at
// the next multiple of its widest word, and a record's words sit where
// the matching Go type keeps its fields on a little-endian host, so the
// decode reads each table section straight into the slice the Flat keeps.
//
// The image stores no portal positions: a record's position is its
// chain anchor's path_pos entry (see DecodeFlatFrom). Any other version byte
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

// section is one row of the image layout: a run of fixed-width records.
// A table section is one of the Flat's tables; the two sections the Flat
// keeps only in serving form, the distances and the hop links, carry a
// writer and a reader for that form instead.
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
	// raw exposes a table section's field as bytes: Encode copies it out,
	// and the decode reads the section into it once alloc has given the
	// field its records.
	raw   func(t *tables) []byte
	alloc func(t *tables, records int)
	// put writes a serving-form section's little-endian words from the
	// Flat straight into dst, the section's bytes in the image (Encode);
	// take reads records lo, lo+1, … of it from their little-endian bytes
	// in src into that form (the decode, one chunk at a time), refusing
	// any record validation refuses.
	put  func(f *Flat, dst []byte)
	take func(d *flatDecoder, lo int, src []byte) error
}

// row builds a table section bound to the tables field that field
// returns. The word widths must add up to the field's element size; a
// mismatch is a bug in the table and fails at package initialization.
func row[T any](name string, words []int, count, extra int, reject uint64, field func(t *tables) *[]T) section {
	s := section{name: name, words: words, count: count, extra: extra, reject: reject}
	var zero T
	if int(unsafe.Sizeof(zero)) != s.size() {
		panic("oracle: flat section " + name + ": word widths do not add up to the element size")
	}
	s.raw = func(t *tables) []byte {
		recs := *field(t)
		b, _ := view[byte](recs, 0, len(recs)*s.size()) // a byte view is never misaligned
		return b
	}
	s.alloc = func(t *tables, records int) { *field(t) = make([]T, records) }
	return s
}

// served builds a section the Flat keeps only in serving form: Encode
// writes it with put, and the decode reads it with take.
func served(name string, words []int, count int, reject uint64, put func(f *Flat, dst []byte), take func(d *flatDecoder, lo int, src []byte) error) section {
	return section{name: name, words: words, count: count, reject: reject, put: put, take: take}
}

// First words every validation refuses (see section.reject).
const (
	rejectIndex = 0xFFFF_FFFF           // int32 −1: no vertex, key or offset start
	rejectHop   = 0xFFFF_FFFE           // int32 −2: below the −1 anchor sentinel
	rejectFloat = 0x7FF8_0000_0000_0001 // a NaN
)

// flatSections is the image layout after the header, in order.
var flatSections = [...]section{
	row("keys", []int{4, 2, 2}, countKeys, 0, rejectIndex, func(t *tables) *[]Key { return &t.keys }),
	row("entry_off", []int{4}, countN, 1, rejectIndex, func(t *tables) *[]int32 { return &t.entryOff }),
	row("entry_key", []int{4}, countEntries, 0, rejectIndex, func(t *tables) *[]int32 { return &t.entryKey }),
	row("portal_off", []int{4}, countEntries, 1, rejectIndex, func(t *tables) *[]int32 { return &t.portalOff }),
	served("dists", []int{8}, countPortals, rejectFloat, (*Flat).putDists, (*flatDecoder).takeDists),
	served("hops", []int{4}, countPortals, rejectHop, (*Flat).putHops, (*flatDecoder).takeHops),
	row("path_off", []int{4}, countKeys, 1, rejectIndex, func(t *tables) *[]int32 { return &t.pathOff }),
	row("path_vert", []int{4}, countPathVerts, 0, rejectIndex, func(t *tables) *[]int32 { return &t.pathVert }),
	row("path_pos", []int{8}, countPathVerts, 0, rejectFloat, func(t *tables) *[]float64 { return &t.pathPos }),
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
// result aliases src. It is the image codec's only unsafe.Slice — the
// codec views its own tables as bytes and the lane's words as records —
// and it refuses a span that overruns src or starts misaligned for T, so
// a short or shifted buffer is an error, never an out-of-bounds typed
// read.
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
func (f *Flat) Encode() []byte {
	c := f.counts()
	spans, total := layout(&c)
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
		copy(dst, s.raw(&f.tables))
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
		rows := dst[8*lo : 8*hi]
		for x, p := range f.lane[lo:hi] {
			le.PutUint64(rows[8*x:], math.Float64bits(p.Dist))
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

// DecodeFlat parses a flat oracle produced by Encode: it is
// DecodeFlatFrom over buf. The Flat keeps nothing of buf, so the caller
// may reuse or overwrite it as soon as DecodeFlat returns.
func DecodeFlat(buf []byte) (*Flat, error) {
	return DecodeFlatFrom(bytes.NewReader(buf), int64(len(buf)))
}

// DecodeFlatFile decodes the image file at path with DecodeFlatFrom,
// straight from the open file, its size taken from Stat.
func DecodeFlatFile(path string) (*Flat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // only read: a failed Close loses nothing
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return DecodeFlatFrom(f, info.Size())
}

// decodeChunk is the bytes of a serving-form section the decode holds at
// once: it reads the distances and the hop links through one buffer of
// this size.
const decodeChunk = 32 << 10

// DecodeFlatFrom reads a flat oracle produced by Encode from r, an image
// of exactly size bytes, into a Flat that owns all of its memory. size
// must be the stream's true length (a file's, or a body already read):
// once the header's counts lay out size bytes, the decode allocates for
// them before their bytes arrive. It never holds the image: it reads the
// header, checks that the counts lay out size bytes before it allocates
// anything, and then reads each section
// straight into the array where it ends up. The CSR tables and the path
// geometry land in the Flat's own slices, the distances in the sweep
// lane's Dist words, and the hop links, one chunk at a time, at their
// records' key-major slots in the walk derivation's partition (see
// keyPartition.link), which the entry tables before them are enough to
// build. Reserved and padding bytes must be zero as they stream past, and
// the stream must end exactly at size: a short stream fails with the
// reader's error, and so does a reader that fails, and trailing bytes are
// refused. Every section is validated element by element (validate,
// validatePaths, takeHops). The walk layout is then derived from the
// partition (see Flat.derive), and only then can the lane gain its
// positions, each record's its chain anchor's path_pos entry, on a
// runtime.GOMAXPROCS(0) pool of entry ranges (see buildLane). A record no
// anchor reaches has no position, so the image is refused, as it is when
// an anchor's vertex is not on its key's path or a path repeats a vertex.
// On a big-endian host the table words are swapped into host order as
// they land; the result is identical.
//
// A malformed image yields an error, never a panicking query.
func DecodeFlatFrom(r io.Reader, size int64) (*Flat, error) {
	if size < 0 {
		return nil, fmt.Errorf("oracle: flat: negative image size %d", size)
	}
	d := &flatDecoder{r: r}
	var hdr [flatHeader]byte
	if err := d.read(hdr[:min(size, flatHeader)]); err != nil {
		return nil, err
	}
	if size < 2 || hdr[0] != flatMagic {
		return nil, fmt.Errorf("oracle: flat: bad magic or truncated header")
	}
	if hdr[1] != flatVersion {
		return nil, fmt.Errorf("oracle: flat: unsupported version %d (want %d; rebuild the image)", hdr[1], flatVersion)
	}
	if size < flatHeader {
		return nil, fmt.Errorf("oracle: flat: truncated header")
	}
	le := binary.LittleEndian
	var c flatCounts
	for i, at := range countAt {
		v := le.Uint64(hdr[at:])
		if v >= math.MaxInt32 {
			return nil, fmt.Errorf("oracle: flat: header count at byte %d out of range (%d)", at, v)
		}
		c[i] = int(v)
	}
	spans, total := layout(&c)
	if size != int64(total) {
		return nil, fmt.Errorf("oracle: flat: size %d does not match header (want %d)", size, total)
	}
	if err := zeroGap(hdr[2:8], 2); err != nil {
		return nil, err
	}
	f := &Flat{n: c[countN], eps: math.Float64frombits(le.Uint64(hdr[16:])), mode: Mode(le.Uint64(hdr[24:]))}
	d.f = f
	var chunk []byte
	for i := range flatSections {
		s, sp := &flatSections[i], spans[i]
		if err := d.skipPadding(sp.off); err != nil {
			return nil, err
		}
		records := s.records(&c)
		if s.take == nil {
			s.alloc(&f.tables, records)
			b := s.raw(&f.tables)
			if err := d.read(b); err != nil {
				return nil, err
			}
			if !hostLittleEndian {
				swapWords(b, s.words)
			}
			continue
		}
		if d.kp == nil {
			// The first serving-form section: the CSR tables before it are
			// whole, so they can be checked and the pool laid out.
			if err := f.tables.validate(f.n, c[countPortals]); err != nil {
				return nil, err
			}
			f.lane = alignedPortals(c[countPortals])
			d.kp = f.partitionByKey()
			chunk = make([]byte, decodeChunk)
		}
		per := len(chunk) / s.size()
		for lo := 0; lo < records; lo += per {
			src := chunk[:min(per, records-lo)*s.size()]
			if err := d.read(src); err != nil {
				return nil, err
			}
			if err := s.take(d, lo, src); err != nil {
				return nil, err
			}
		}
	}
	if err := f.tables.validatePaths(f.n); err != nil {
		return nil, err
	}
	if err := d.atEnd(); err != nil {
		return nil, err
	}
	anchors, err := f.derive(d.kp, d.anchors, 0)
	if err != nil {
		return nil, fmt.Errorf("oracle: flat: %w", err)
	}
	if err := eachRangeErr(len(f.entryKey), func(lo, hi int) error {
		return f.buildLane(lo, hi, nil, nil, anchors)
	}); err != nil {
		return nil, fmt.Errorf("oracle: flat: %w", err)
	}
	return f, nil
}

// flatDecoder is one decode's state: the stream and how far it has been
// read, the Flat being filled, and, once the CSR tables are read, the
// walk derivation's key partition with the anchors ranked so far.
type flatDecoder struct {
	r       io.Reader
	at      int
	f       *Flat
	kp      *keyPartition
	anchors int32
}

// read fills b from the stream; a stream that ends first or fails fails
// the decode, wrapping the reader's error.
func (d *flatDecoder) read(b []byte) error {
	n, err := io.ReadFull(d.r, b)
	d.at += n
	if err != nil {
		return fmt.Errorf("oracle: flat: reading the image at byte %d: %w", d.at, err)
	}
	return nil
}

// skipPadding reads the alignment padding up to byte off, where the next
// section starts, and refuses any byte Encode would not have written.
func (d *flatDecoder) skipPadding(off int) error {
	var pad [8]byte
	at := d.at
	if err := d.read(pad[:off-at]); err != nil {
		return err
	}
	return zeroGap(pad[:off-at], at)
}

// zeroGap refuses a nonzero byte among b, the image bytes from at that
// no header field or section holds: the header's reserved bytes and the
// alignment padding before a section. Encode writes them as zeros, so
// refusing any other byte makes Encode(DecodeFlat(image)) == image for
// every image that decodes.
func zeroGap(b []byte, at int) error {
	for i, x := range b {
		if x != 0 {
			return fmt.Errorf("oracle: flat: reserved or padding byte %d is not zero", at+i)
		}
	}
	return nil
}

// atEnd refuses a stream that runs on past the image its header lays
// out.
func (d *flatDecoder) atEnd() error {
	var one [1]byte
	n, err := io.ReadFull(d.r, one[:])
	switch {
	case n > 0:
		return fmt.Errorf("oracle: flat: stream runs past the %d-byte image", d.at)
	case !errors.Is(err, io.EOF):
		return fmt.Errorf("oracle: flat: reading past the image at byte %d: %w", d.at, err)
	}
	return nil
}

// takeDists reads the distances of pool records lo, lo+1, … into their
// lane records' Dist words; buildLane checks them as it adds the
// positions.
func (d *flatDecoder) takeDists(lo int, src []byte) error {
	lane := d.f.lane[lo : lo+len(src)/8]
	for i := range lane {
		lane[i].Dist = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return nil
}

// takeHops range-checks the hop links of pool records lo, lo+1, … and
// stores each at its record's key-major slot in the partition, ranking
// the anchors in pool order as they arrive. The walk derivation refuses
// the links that stay in range but leave their key or reach no anchor.
func (d *flatDecoder) takeHops(lo int, src []byte) error {
	p := int32(len(d.f.lane))
	for i := 0; 4*i < len(src); i++ {
		h := int32(binary.LittleEndian.Uint32(src[4*i:]))
		if h < -1 || h >= p {
			return fmt.Errorf("oracle: flat: hop %d links to out-of-range record %d", lo+i, h)
		}
		d.anchors = d.kp.link(int32(lo+i), h, d.anchors)
	}
	return nil
}

// validate bounds-checks every CSR offset so the hot path can index
// without guards, and checks the entry-key order the merge-join relies
// on: strictly increasing within each vertex. portals is the pool size
// the header declares. The distances, and the positions the walk gives
// the records, are checked where the lane is built from them
// (buildLane).
func (t *tables) validate(n, portals int) error {
	if t.entryOff[0] != 0 || int(t.entryOff[n]) != len(t.entryKey) {
		return fmt.Errorf("oracle: flat: entry offsets do not span the entry table")
	}
	for v := 0; v < n; v++ {
		if t.entryOff[v] > t.entryOff[v+1] {
			return fmt.Errorf("oracle: flat: entry offsets decrease at vertex %d", v)
		}
	}
	if t.portalOff[0] != 0 || int(t.portalOff[len(t.portalOff)-1]) != portals {
		return fmt.Errorf("oracle: flat: portal offsets do not span the pool")
	}
	for v := 0; v < n; v++ {
		for e := t.entryOff[v]; e < t.entryOff[v+1]; e++ {
			if t.portalOff[e] > t.portalOff[e+1] {
				return fmt.Errorf("oracle: flat: portal offsets decrease at entry %d", e)
			}
			if int(t.entryKey[e]) < 0 || int(t.entryKey[e]) >= len(t.keys) {
				return fmt.Errorf("oracle: flat: entry %d references unknown key %d", e, t.entryKey[e])
			}
			if e > t.entryOff[v] && t.entryKey[e-1] >= t.entryKey[e] {
				return fmt.Errorf("oracle: flat: entry keys of vertex %d not strictly increasing at entry %d", v, e)
			}
		}
	}
	// Element-level checks on the record sections, not just the CSR
	// offsets that index them: an interned key must name a vertex of this
	// graph.
	for i := range t.keys {
		if int(t.keys[i].Node) < 0 || int(t.keys[i].Node) >= n {
			return fmt.Errorf("oracle: flat: key %d names out-of-range vertex %d", i, t.keys[i].Node)
		}
	}
	return nil
}

// validatePaths bounds-checks the path sections: the path geometry
// spans its CSR table, vertices are in range, and positions are NaN-free
// and non-decreasing per path. The hop links are range-checked as they
// are read (takeHops); the walk derivation (see Flat.deriveWalk), which
// partitions the pool by key anyway, refuses the semantic corruption: a
// hop that leaves its key, a record no anchor reaches, an anchor off its
// key's path and a path that repeats a vertex. Validation here is what
// lets it index without bounds checks.
func (t *tables) validatePaths(n int) error {
	if t.pathOff[0] != 0 || int(t.pathOff[len(t.pathOff)-1]) != len(t.pathVert) {
		return fmt.Errorf("oracle: flat: path offsets do not span the geometry")
	}
	// Check the whole offset table before indexing through it: a later
	// decrease can push an earlier span past the geometry arrays.
	for k := 0; k+1 < len(t.pathOff); k++ {
		if t.pathOff[k] > t.pathOff[k+1] {
			return fmt.Errorf("oracle: flat: path offsets decrease at key %d", k)
		}
	}
	for k := 0; k+1 < len(t.pathOff); k++ {
		prev := math.Inf(-1)
		for x := t.pathOff[k]; x < t.pathOff[k+1]; x++ {
			if int(t.pathVert[x]) < 0 || int(t.pathVert[x]) >= n {
				return fmt.Errorf("oracle: flat: path vertex %d out of range", t.pathVert[x])
			}
			p := t.pathPos[x]
			if math.IsNaN(p) || p < prev {
				return fmt.Errorf("oracle: flat: path positions not sorted at key %d", k)
			}
			prev = p
		}
	}
	return nil
}
