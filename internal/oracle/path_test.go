package oracle

import (
	"encoding/binary"
	"strings"
	"testing"
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

// decodeBoth decodes img from an aligned copy (the zero-copy path on a
// little-endian host) and from a misaligned copy (the copying path).
func decodeBoth(img []byte) (zero, copied *Flat, errZero, errCopied error) {
	aligned := make([]byte, len(img))
	copy(aligned, img)
	shifted := make([]byte, len(img)+1)
	copy(shifted[1:], img)
	zero, errZero = DecodeFlat(aligned)
	copied, errCopied = DecodeFlat(shifted[1:])
	return zero, copied, errZero, errCopied
}

// TestDecodeFlatRejectsOutOfOrder pins the two orderings the query path
// relies on without checking: entry keys strictly increasing within a
// vertex (the merge-join) and portal positions non-decreasing within an
// entry (the merged sweep and its suffix-min). On the 12×12 CoverPortal
// image with uniform [1,4) weights, swapping two of vertex 5's entry
// keys, or the first and last records of vertex 0's first run of at
// least four portals, used to decode cleanly and change most of the
// vertex's distances. Both decode paths must refuse both mutations.
func TestDecodeFlatRejectsOutOfOrder(t *testing.T) {
	fl := gridFlat(t, 12, CoverPortal)
	enc := fl.Encode()
	c := fl.counts()
	spans, _ := layout(&c)
	at := func(name string) int {
		for i := range flatSections {
			if flatSections[i].name == name {
				return spans[i].off
			}
		}
		t.Fatalf("no section %s", name)
		return 0
	}
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
	ek := at("entry_key")
	swap(keys, ek+4*e, ek+4*(e+1), 4)

	portals := append([]byte(nil), enc...)
	run := -1
	for e := fl.entryOff[0]; e < fl.entryOff[1]; e++ {
		if lo, hi := fl.portalOff[e], fl.portalOff[e+1]; hi-lo >= 4 && fl.lane[3*lo] < fl.lane[3*(hi-1)] {
			run = int(e)
			break
		}
	}
	if run < 0 {
		t.Fatal("vertex 0 has no run of four or more portals in the fixture")
	}
	pp := at("portals")
	swap(portals, pp+16*int(fl.portalOff[run]), pp+16*int(fl.portalOff[run+1]-1), 16)

	for _, m := range []struct {
		name string
		img  []byte
	}{{"entry keys", keys}, {"portal positions", portals}} {
		if _, _, errZero, errCopied := decodeBoth(m.img); errZero == nil || errCopied == nil {
			t.Errorf("%s out of order accepted (aligned err=%v, copying err=%v)", m.name, errZero, errCopied)
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
// decode on both the zero-copy and the copying path — a section added to
// the table without element-level validation fails here. Semantic
// corruption that passes structural validation (in-range hop cycles)
// must surface as a static query error, never a panic, and a version-1
// header is rejected as unsupported.
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
		if _, _, errZero, errCopied := decodeBoth(bad); errZero == nil || errCopied == nil {
			t.Errorf("%s: invalid record 0 accepted (zero-copy err=%v, copying err=%v)", s.name, errZero, errCopied)
		}
	}

	// In-range hop cycle: every link routed back to record 0. This passes
	// structural validation by design; the walk's step bound must convert
	// it into a static error on every reachable pair, never a panic.
	cyclic := append([]byte(nil), enc...)
	for at := spans[hops].off; at < spans[hops].end; at += 4 {
		binary.LittleEndian.PutUint32(cyclic[at:], 0)
	}
	cf, err := DecodeFlat(cyclic)
	if err != nil {
		t.Fatalf("in-range cyclic hops rejected at decode: %v", err)
	}
	var buf []int32
	sawErr := false
	for v := 1; v < cf.N(); v++ {
		var qerr error
		_, buf, qerr = cf.QueryPath(0, v, buf[:0])
		if qerr != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("cyclic hop links never surfaced a walk error")
	}

	v1 := append([]byte(nil), enc...)
	v1[1] = 1
	if _, err := DecodeFlat(v1); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("version-1 image: err = %v, want unsupported version", err)
	}
}

// TestFreezeRejectsTruncatedHops pins Freeze's failure mode: hop records
// that do not parallel the portals make Freeze fail instead of producing
// an image that cannot report paths.
func TestFreezeRejectsTruncatedHops(t *testing.T) {
	o, _ := buildPathImage(t)
	for v := range o.Labels {
		if es := o.Labels[v].Entries; len(es) > 0 && len(es[0].Hops) > 0 {
			es[0].Hops = es[0].Hops[:len(es[0].Hops)-1]
			break
		}
	}
	if _, err := o.Freeze(); err == nil {
		t.Fatal("Freeze accepted an entry with truncated hop records")
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
