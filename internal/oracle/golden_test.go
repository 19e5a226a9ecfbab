package oracle

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
)

// TestFlatImageGolden pins the wire bytes of Freeze().Encode() on a fixed
// build: a 12×12 grid with unit weights, ε = 0.25, serial workers. Unit
// weights keep every position and distance an exact small integer, so the
// image is the same on every architecture. Any codec change that alters a
// single byte of the image fails here. The exact image of this unit grid
// has no dominated record, so only the portal image pins which records
// Build drops.
func TestFlatImageGolden(t *testing.T) {
	golden := []struct {
		mode Mode
		size int
		sum  string
	}{
		{CoverExact, 51656, "6b92fe566eb334c30ef88cbd9fc5c8d32616e93be88ca221b84c31868c4b2c0e"},
		{CoverPortal, 53600, "e1c65f96315d292274226572be3b71d15a5525f5b729b86fcf17dc253948e6b1"},
	}
	for _, g := range golden {
		fl := goldenFlat(t, g.mode)
		enc := fl.Encode()
		sum := sha256.Sum256(enc)
		if len(enc) != g.size || hex.EncodeToString(sum[:]) != g.sum {
			t.Errorf("%s image: %d B sha256 %x, want %d B %s", g.mode, len(enc), sum, g.size, g.sum)
		}
	}
}

// goldenFlat freezes the golden fixture: a 12×12 unit-weight grid,
// ε = 0.25, serial workers.
func goldenFlat(t *testing.T, mode Mode) *Flat {
	t.Helper()
	fl, err := goldenOracle(t, mode).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// goldenOracle builds the golden fixture's oracle.
func goldenOracle(t *testing.T, mode Mode) *Oracle {
	t.Helper()
	rot := embed.Grid(12, 12, graph.UnitWeights(), rand.New(rand.NewSource(1)))
	dec, err := core.Decompose(rot.G, core.Options{Strategy: core.Auto{}, Rot: rot, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(dec, Options{Epsilon: 0.25, Mode: mode, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestWalkLayoutGolden pins the derived walk layout on the golden
// fixture, for the Freeze output and for a decode of its image: SHA-256
// over little-endian int32 words, walkBlk[0:len] followed by walkSlot in
// pool order. The layout is not part of the image, so this is what keeps
// a rewrite of deriveWalk honest: QueryPath reads nothing else. The sums
// pin the placement order too — the keys in ID order, each key's chains
// parents first — so reordering the chains moves them while the record
// and word counts stay.
func TestWalkLayoutGolden(t *testing.T) {
	golden := []struct {
		mode         Mode
		recs, blkLen int
		sum          string
	}{
		{CoverExact, 3512, 6968, "8621cb68f115c0cf16068574832ffafb44bf5ac633256bc44528996cf361a899"},
		{CoverPortal, 3674, 8638, "35e3c6cb8db71b6a1a4cbd7d68db30166db4b7cf0c4b1be4a734f5a1bf9f12d5"},
	}
	for _, g := range golden {
		fl := goldenFlat(t, g.mode)
		dec, err := DecodeFlat(fl.Encode())
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []struct {
			name string
			f    *Flat
		}{{"freeze", fl}, {"decode", dec}} {
			f := side.f
			h := sha256.New()
			word := func(w int32) { h.Write(binary.LittleEndian.AppendUint32(nil, uint32(w))) }
			for _, w := range f.walkBlk {
				word(w)
			}
			for _, s := range f.walkSlot {
				word(s)
			}
			sum := hex.EncodeToString(h.Sum(nil))
			if len(f.walkSlot) != g.recs || len(f.walkBlk) != g.blkLen || sum != g.sum {
				t.Errorf("%s %s walk layout: %d records, %d words, sha256 %s; want %d, %d, %s",
					g.mode, side.name, len(f.walkSlot), len(f.walkBlk), sum, g.recs, g.blkLen, g.sum)
			}
		}
	}
}
