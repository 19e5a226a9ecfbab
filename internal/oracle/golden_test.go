package oracle

import (
	"crypto/sha256"
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
		rot := embed.Grid(12, 12, graph.UnitWeights(), rand.New(rand.NewSource(1)))
		dec, err := core.Decompose(rot.G, core.Options{Strategy: core.Auto{}, Rot: rot, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		o, err := Build(dec, Options{Epsilon: 0.25, Mode: g.mode, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		fl, err := o.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		enc := fl.Encode()
		sum := sha256.Sum256(enc)
		if len(enc) != g.size || hex.EncodeToString(sum[:]) != g.sum {
			t.Errorf("%s image: %d B sha256 %x, want %d B %s", g.mode, len(enc), sum, g.size, g.sum)
		}
	}
}
