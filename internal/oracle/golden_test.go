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
// single byte of the image fails here.
func TestFlatImageGolden(t *testing.T) {
	golden := []struct {
		mode Mode
		size int
		sum  string
	}{
		{CoverExact, 79752, "b1212b49bf0cf03afacc09d192f3aa7dad4b9b777ca885fcac6f25ae90281101"},
		{CoverPortal, 127712, "78a30b16889ae848db4e87283c4e8072518e8c5b02d8f17162ba2811d3f2d05a"},
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
	rot := embed.Grid(12, 12, graph.UnitWeights(), rand.New(rand.NewSource(1)))
	dec, err := core.Decompose(rot.G, core.Options{Strategy: core.Auto{}, Rot: rot, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(dec, Options{Epsilon: 0.25, Mode: mode, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestWalkLayoutGolden pins the derived walk layout on the golden
// fixture, for the Freeze output and for a decode of its image: SHA-256
// over little-endian int32 words, walkBlk[0:len] followed by slot, end,
// anchor and depth of every walkFrom record in pool order. The layout is
// not part of the image, so this is what keeps a rewrite of deriveWalk
// honest: QueryPath reads nothing else.
func TestWalkLayoutGolden(t *testing.T) {
	golden := []struct {
		mode         Mode
		recs, blkLen int
		sum          string
	}{
		{CoverExact, 3512, 5240, "4730f6aa75971d0358e5ed12a3602116e0d57c5d590e47affa11597e2a65f1db"},
		{CoverPortal, 5910, 10046, "2851e369bbe548f1b14d12d866f9e2901dac19da8e56a08386b7d2ad31e1112d"},
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
			for _, r := range f.walkFrom {
				word(r.slot)
				word(r.end)
				word(r.anchor)
				word(r.depth)
			}
			sum := hex.EncodeToString(h.Sum(nil))
			if len(f.walkFrom) != g.recs || len(f.walkBlk) != g.blkLen || sum != g.sum {
				t.Errorf("%s %s walk layout: %d records, %d words, sha256 %s; want %d, %d, %s",
					g.mode, side.name, len(f.walkFrom), len(f.walkBlk), sum, g.recs, g.blkLen, g.sum)
			}
		}
	}
}
