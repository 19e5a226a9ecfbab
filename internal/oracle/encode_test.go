package oracle

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
)

func buildSmall(t *testing.T) *Oracle {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	r := embed.Grid(6, 6, graph.UniformWeights(1, 3), rng)
	tree, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(tree, Options{Epsilon: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestLabelRoundTrip(t *testing.T) {
	o := buildSmall(t)
	for v := range o.Labels {
		buf := o.Labels[v].Encode()
		got, err := DecodeLabel(buf)
		if err != nil {
			t.Fatalf("label %d: %v", v, err)
		}
		if len(got.Entries) != len(o.Labels[v].Entries) {
			t.Fatalf("label %d: entries %d != %d", v, len(got.Entries), len(o.Labels[v].Entries))
		}
		for i, e := range got.Entries {
			want := o.Labels[v].Entries[i]
			if e.Key != want.Key || len(e.Portals) != len(want.Portals) {
				t.Fatalf("label %d entry %d mismatch", v, i)
			}
			for j, p := range e.Portals {
				if p != want.Portals[j] {
					t.Fatalf("label %d entry %d portal %d mismatch", v, i, j)
				}
			}
		}
	}
}

func TestDecodeLabelFuzz(t *testing.T) {
	// Random byte soup must never panic, only error or succeed.
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x: %v", data, r)
			}
		}()
		_, _ = DecodeLabel(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
