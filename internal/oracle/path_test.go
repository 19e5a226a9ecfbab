package oracle

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
)

// buildPathImage builds an oracle plus its frozen image for the
// corruption tests below.
func buildPathImage(t *testing.T) (*Oracle, *Flat) {
	t.Helper()
	_, o := buildSeeded(t, 2, 24, CoverExact)
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return o, fl
}

// decodeBoth decodes img from the whole buffer (DecodeFlat) and from a
// stream that yields one byte per Read.
func decodeBoth(img []byte) (whole, streamed *Flat, errWhole, errStreamed error) {
	whole, errWhole = DecodeFlat(img)
	streamed, errStreamed = DecodeFlatFrom(iotest.OneByteReader(bytes.NewReader(img)), int64(len(img)))
	return whole, streamed, errWhole, errStreamed
}

// TestDecodeFlatRejectsOutOfOrder pins the two orderings the query path
// relies on without checking: entry keys strictly increasing within a
// vertex (the merge-join) and portal positions non-decreasing within an
// entry (the merged sweep and its suffix-min). On the 12×12 CoverPortal
// image with uniform [1,4) weights, swapping two of vertex 5's entry
// keys used to decode cleanly and change most of the vertex's distances.
// Positions are not in the image: a record's position is its chain
// anchor's, so the last record of vertex 0's first run of at least four
// portals is moved onto a lower anchor, the one its first record's chain
// ends at, by rewiring its hop there. The decode must refuse both
// mutations, from a whole buffer and from a stream.
func TestDecodeFlatRejectsOutOfOrder(t *testing.T) {
	fl := gridFlat(t, 12, CoverPortal)
	enc := fl.Encode()
	swap := func(img []byte, i, j, width int) {
		for b := 0; b < width; b++ {
			img[i+b], img[j+b] = img[j+b], img[i+b]
		}
	}

	keys := append([]byte(nil), enc...)
	e := int(fl.entryOff[5])
	if fl.entryOff[6]-fl.entryOff[5] < 2 {
		t.Fatal("vertex 5 has fewer than two entries in the fixture")
	}
	ek := sectionOffset(fl, "entry_key")
	swap(keys, ek+4*e, ek+4*(e+1), 4)

	positions := append([]byte(nil), enc...)
	run := -1
	for e := fl.entryOff[0]; e < fl.entryOff[1]; e++ {
		if lo, hi := fl.portalOff[e], fl.portalOff[e+1]; hi-lo >= 4 && fl.lane[lo].Pos < fl.lane[hi-2].Pos {
			run = int(e)
			break
		}
	}
	if run < 0 {
		t.Fatal("vertex 0 has no run of four or more portals in the fixture")
	}
	hops := imageHops(fl)
	anchor := fl.portalOff[run]
	for hops[anchor] >= 0 {
		anchor = hops[anchor]
	}
	last := int(fl.portalOff[run+1] - 1)
	binary.LittleEndian.PutUint32(positions[sectionOffset(fl, "hops")+4*last:], uint32(anchor))

	for _, m := range []struct {
		name string
		img  []byte
	}{{"entry keys", keys}, {"portal positions", positions}} {
		if _, _, errWhole, errStreamed := decodeBoth(m.img); errWhole == nil || errStreamed == nil {
			t.Errorf("%s out of order accepted (whole err=%v, streamed err=%v)", m.name, errWhole, errStreamed)
		}
	}
	if _, err := DecodeFlat(positions); err == nil || !strings.Contains(err.Error(), "decrease") {
		t.Errorf("record moved onto a lower anchor: err = %v, want positions that decrease", err)
	}
}

// TestDecodeFlatRejectsCrossKeyHop pins the key partition check. Every
// hop chain stays on one separator path, but the range check alone let a
// hop link a record to a record of another key: the chain then inherited
// that key's anchor index, and QueryPath indexed the winning key's path
// geometry out of range and panicked. On the 12×12 CoverPortal image,
// each of 20 records spread over the pool has its hop rewired to the
// anchor with the largest path index, on a key other than its own; the
// decode must refuse every such image, from a whole buffer and from a
// stream.
func TestDecodeFlatRejectsCrossKeyHop(t *testing.T) {
	fl := gridFlat(t, 12, CoverPortal)
	enc := fl.Encode()
	hopsAt := sectionOffset(fl, "hops")
	hops := imageHops(fl)
	_, keyOf := keyRecords(fl)
	// The path index of an anchor's chain, off its run's trailer.
	anchor := func(r int32) int32 { return fl.walkBlk[runEnd(fl.walkBlk, fl.walkSlot[r])+3] }
	far := int32(-1)
	for r, h := range hops {
		if h < 0 && (far < 0 || anchor(int32(r)) > anchor(far)) {
			far = int32(r)
		}
	}
	var victims []int32
	for r := range hops {
		if hops[r] >= 0 && keyOf[r] != keyOf[far] {
			victims = append(victims, int32(r))
		}
	}
	if far < 0 || len(victims) < 20 {
		t.Fatalf("fixture has no far anchor or too few records off its key (%d)", len(victims))
	}
	for i := 0; i < 20; i++ {
		r := victims[i*len(victims)/20]
		img := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint32(img[hopsAt+4*int(r):], uint32(far))
		if _, _, errWhole, errStreamed := decodeBoth(img); errWhole == nil || errStreamed == nil ||
			!strings.Contains(errWhole.Error(), "another key") || !strings.Contains(errStreamed.Error(), "another key") {
			t.Errorf("hop of record %d rewired to key %d's anchor %d: whole err=%v, streamed err=%v", r, keyOf[far], far, errWhole, errStreamed)
		}
	}
}

// putWord writes v as one little-endian word of w bytes.
func putWord(b []byte, w int, v uint64) {
	for i := 0; i < w; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// TestDecodeFlatPathValidation pins the decode contract section by
// section: every row of the section table carries a first word its
// validation must refuse, and planting it in record 0 must fail the
// decode, from a whole buffer and from a stream read one byte at a time
// — a section added to the table without element-level validation fails
// here. So must a nonzero reserved header byte or alignment padding
// byte, which Encode would not write back. In-range hop cycles pass
// structural validation, but a record on one reaches no anchor and has
// no position, so the decode must refuse them too, as it must a key path
// that repeats a vertex. Version-1 and version-2 headers are rejected as
// unsupported.
func TestDecodeFlatPathValidation(t *testing.T) {
	_, fl := buildPathImage(t)
	enc := fl.Encode()
	c := fl.counts()
	spans, _ := layout(&c)
	hops := -1
	for i := range flatSections {
		s, sp := &flatSections[i], spans[i]
		if s.name == "hops" {
			hops = i
		}
		if sp.end-sp.off < s.size() {
			t.Fatalf("%s: section empty in the fixture", s.name)
		}
		bad := append([]byte(nil), enc...)
		putWord(bad[sp.off:], s.words[0], s.reject)
		if _, _, errWhole, errStreamed := decodeBoth(bad); errWhole == nil || errStreamed == nil {
			t.Errorf("%s: invalid record 0 accepted (whole err=%v, streamed err=%v)", s.name, errWhole, errStreamed)
		}
	}

	// Bytes outside every field: a reserved header byte, and the padding
	// before a section of the golden portal image.
	gold := goldenFlat(t, CoverPortal)
	goldEnc, gc := gold.Encode(), gold.counts()
	goldSpans, _ := layout(&gc)
	gaps := []int{2}
	for i := 1; i < len(goldSpans) && len(gaps) < 2; i++ {
		if goldSpans[i].off > goldSpans[i-1].end {
			gaps = append(gaps, goldSpans[i-1].end)
		}
	}
	if len(gaps) < 2 {
		t.Fatal("golden portal image has no alignment padding")
	}
	for _, at := range gaps {
		bad := append([]byte(nil), goldEnc...)
		bad[at] = 1
		if _, _, errWhole, errStreamed := decodeBoth(bad); errWhole == nil || errStreamed == nil {
			t.Errorf("nonzero byte %d outside every field accepted (whole err=%v, streamed err=%v)", at, errWhole, errStreamed)
		}
	}

	// A key path of the golden image that repeats a vertex: an anchor's
	// path index would be ambiguous.
	repeated := append([]byte(nil), goldEnc...)
	k := 0
	for gold.pathOff[k+1]-gold.pathOff[k] < 2 {
		k++
	}
	pv := sectionOffset(gold, "path_vert") + 4*int(gold.pathOff[k])
	copy(repeated[pv+4:pv+8], repeated[pv:pv+4])
	if _, _, errWhole, errStreamed := decodeBoth(repeated); errWhole == nil || errStreamed == nil ||
		!strings.Contains(errWhole.Error(), "repeats vertex") || !strings.Contains(errStreamed.Error(), "repeats vertex") {
		t.Errorf("path of key %d repeating a vertex: whole err=%v, streamed err=%v", k, errWhole, errStreamed)
	}

	// In-range hop cycles: every link routed to its key's first record,
	// which links to itself. Routing every link to record 0 instead
	// crosses keys. Decode refuses both.
	cyclic, crossed := append([]byte(nil), enc...), append([]byte(nil), enc...)
	recs, keyOf := keyRecords(fl)
	for r := 0; r < fl.NumPortals(); r++ {
		at := spans[hops].off + 4*r
		binary.LittleEndian.PutUint32(cyclic[at:], uint32(recs[keyOf[r]][0]))
		binary.LittleEndian.PutUint32(crossed[at:], 0)
	}
	if _, _, errWhole, errStreamed := decodeBoth(crossed); errWhole == nil || errStreamed == nil {
		t.Errorf("every hop routed to record 0 accepted (whole err=%v, streamed err=%v)", errWhole, errStreamed)
	}
	if _, _, errWhole, errStreamed := decodeBoth(cyclic); errWhole == nil || errStreamed == nil ||
		!strings.Contains(errWhole.Error(), "reach no anchor") || !strings.Contains(errStreamed.Error(), "reach no anchor") {
		t.Errorf("in-range cyclic hops: whole err=%v, streamed err=%v, want records that reach no anchor", errWhole, errStreamed)
	}

	for _, version := range []byte{1, 2} {
		old := append([]byte(nil), enc...)
		old[1] = version
		if _, err := DecodeFlat(old); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version-%d image: err = %v, want unsupported version", version, err)
		}
	}
}

// TestFreezeRejectsTruncatedHops pins Freeze's failure mode: a hop that
// names no record makes Freeze fail instead of producing an image that
// cannot report paths. Every hop record of the first vertex that has
// one is planted, in turn, with a hop vertex that has no record at the
// record's key and position.
func TestFreezeRejectsTruncatedHops(t *testing.T) {
	o, _ := buildPathImage(t)
	r := &o.rows
	planted := 0
	for v := 0; v < o.N && planted == 0; v++ {
		for e := r.entryOff[v]; e < r.entryOff[v+1]; e++ {
			kid := r.entryKey[e]
			for x := r.portalOff[e]; x < r.portalOff[e+1]; x++ {
				if o.hopVert[x] < 0 {
					continue
				}
				w := 0
				for w < o.N && r.findRecord(w, kid, r.lane[x].Pos) >= 0 {
					w++
				}
				if w == o.N {
					continue
				}
				hop := o.hopVert[x]
				o.hopVert[x] = int32(w)
				_, err := o.Freeze()
				o.hopVert[x] = hop
				if err == nil || !strings.Contains(err.Error(), "has no record") {
					t.Fatalf("vertex %d record %d: hop planted on vertex %d: Freeze err = %v, want no record", v, x, w, err)
				}
				planted++
			}
		}
	}
	if planted == 0 {
		t.Fatal("fixture has no hop record to plant")
	}
	if _, err := o.Freeze(); err != nil {
		t.Fatalf("restored hops: %v", err)
	}
}

// TestFreezeRejectsUnpositioned pins the two ways a build could leave a
// record without a position, which Freeze must refuse rather than write
// an image that does not decode: a hop cycle, planted by pointing the
// record the first hop reaches back at the hopping record's vertex, and
// a key path that repeats a vertex, planted on the golden fixture's
// first path of two or more vertices.
func TestFreezeRejectsUnpositioned(t *testing.T) {
	o, _ := buildPathImage(t)
	r := &o.rows
	x, owner := int32(-1), int32(-1)
	for v := 0; v < o.N && x < 0; v++ {
		for e := r.entryOff[v]; e < r.entryOff[v+1] && x < 0; e++ {
			for y := r.portalOff[e]; y < r.portalOff[e+1]; y++ {
				if o.hopVert[y] >= 0 {
					x, owner = r.findRecord(int(o.hopVert[y]), r.entryKey[e], r.lane[y].Pos), int32(v)
					break
				}
			}
		}
	}
	if x < 0 {
		t.Fatal("fixture has no hop record")
	}
	hop := o.hopVert[x]
	o.hopVert[x] = owner
	_, err := o.Freeze()
	o.hopVert[x] = hop
	if err == nil || !strings.Contains(err.Error(), "reach no anchor") {
		t.Errorf("hop cycle through record %d: Freeze err = %v, want records that reach no anchor", x, err)
	}

	rot := embed.Grid(12, 12, graph.UnitWeights(), rand.New(rand.NewSource(1)))
	dec, err := core.Decompose(rot.G, core.Options{Strategy: core.Auto{}, Rot: rot, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(dec, Options{Epsilon: 0.25, Mode: CoverPortal, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for g.rows.pathOff[k+1]-g.rows.pathOff[k] < 2 {
		k++
	}
	verts := g.rows.pathVert[g.rows.pathOff[k]:]
	verts[1] = verts[0]
	if _, err := g.Freeze(); err == nil || !strings.Contains(err.Error(), "repeats vertex") {
		t.Errorf("path of key %d repeating a vertex: Freeze err = %v", k, err)
	}
}

// TestSwapWords pins the conversion Encode and DecodeFlat apply on
// big-endian hosts: every word of every record is reversed in place, so a
// little-endian record reads back as its big-endian encoding, and a
// second swap restores it.
func TestSwapWords(t *testing.T) {
	le, be := binary.LittleEndian, binary.BigEndian
	rec := make([]byte, 16) // two {4, 2, 2} key records
	for i := 0; i < 2; i++ {
		le.PutUint32(rec[8*i:], 0x01020304+uint32(i))
		le.PutUint16(rec[8*i+4:], 0x0506)
		le.PutUint16(rec[8*i+6:], 0x0708)
	}
	orig := append([]byte(nil), rec...)
	swapWords(rec, []int{4, 2, 2})
	for i := 0; i < 2; i++ {
		if be.Uint32(rec[8*i:]) != 0x01020304+uint32(i) || be.Uint16(rec[8*i+4:]) != 0x0506 || be.Uint16(rec[8*i+6:]) != 0x0708 {
			t.Fatalf("record %d not byte-swapped per word: % x", i, rec[8*i:8*i+8])
		}
	}
	swapWords(rec, []int{4, 2, 2})
	if string(rec) != string(orig) {
		t.Fatal("swapping twice does not restore the record")
	}
}
