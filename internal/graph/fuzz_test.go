package graph

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// fuzzHeaderN extracts the vertex count from the first "p" record, or -1.
// The fuzzer uses it to skip inputs whose header demands an allocation far
// larger than the input itself (legal, but pointless to explore).
func fuzzHeaderN(data []byte) int {
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 3 && fields[0] == "p" {
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// FuzzGraphIO feeds arbitrary text to Read. Whatever parses must be a
// fixed point of WriteText∘Read: writing and re-reading yields the exact
// same serialization.
func FuzzGraphIO(f *testing.F) {
	// Valid corpus: the shapes the deterministic tests exercise.
	f.Add([]byte("p 3 2\ne 0 1 1.5\ne 1 2 2.5\n"))
	f.Add([]byte("# comment\nc another\n\np 3 2\ne 0 1 1.5\ne 1 2 2.5\n"))
	f.Add([]byte("p 1 0\n"))
	rng := rand.New(rand.NewSource(1))
	g := ConnectedGNM(12, 24, UniformWeights(0.5, 9), rng)
	var buf bytes.Buffer
	if err := g.WriteText(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Malformed corpus: every error class Read distinguishes.
	f.Add([]byte(""))
	f.Add([]byte("e 0 1 2\n"))
	f.Add([]byte("p x 2\n"))
	f.Add([]byte("p -3 0\n"))
	f.Add([]byte("p 3 1\ne -1 1 2\n"))
	f.Add([]byte("p 3 1\np 3 1\n"))
	f.Add([]byte("p 3 1\ne 0 1 oops\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		if n := fuzzHeaderN(data); n > 1<<15 {
			return
		}
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var w1 bytes.Buffer
		if err := g.WriteText(&w1); err != nil {
			t.Fatalf("WriteText after successful Read: %v", err)
		}
		g2, err := Read(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("re-Read of own output: %v\n%s", err, w1.Bytes())
		}
		var w2 bytes.Buffer
		if err := g2.WriteText(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("round trip not a fixed point:\n%s\nvs\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}

// fuzzVertex maps a fuzzer byte to a vertex ID in [-2, n+1], so vertex
// lists mix valid IDs with negative and out-of-range ones.
func fuzzVertex(b byte, n int) int { return int(b)%(n+4) - 2 }

// FuzzInduced checks Induced against the NewBuilder reference on graphs
// with parallel edges. edges holds (u, v, weight) byte triples added
// through a zero-value Builder over n = 1 + edges[0]%24 vertices; verts
// holds the input vertex list, one byte per vertex.
func FuzzInduced(f *testing.F) {
	for _, c := range inducedCases {
		edges := []byte{byte(c.n - 1)}
		for _, e := range c.edges {
			edges = append(edges, byte(e[0]), byte(e[1]), byte(e[2]))
		}
		verts := make([]byte, len(c.verts))
		for i, v := range c.verts {
			verts[i] = byte(min(max(v+2, 0), c.n+3)) // fuzzVertex inverts this
		}
		f.Add(edges, verts)
	}
	f.Fuzz(func(t *testing.T, edges, verts []byte) {
		if len(edges) == 0 || len(edges) > 3<<10 || len(verts) > 1<<10 {
			return
		}
		n := 1 + int(edges[0])%24
		var b Builder
		b.EnsureVertex(n - 1)
		for i := 1; i+2 < len(edges); i += 3 {
			b.AddEdge(int(edges[i])%n, int(edges[i+1])%n, float64(edges[i+2])/8)
		}
		g := b.Build()
		vs := make([]int, len(verts))
		for i, x := range verts {
			vs[i] = fuzzVertex(x, n)
		}
		if d := subDiff(Induced(g, vs), inducedRef(g, vs)); d != "" {
			t.Fatalf("n=%d m=%d vertices %v: %s", n, g.M(), vs, d)
		}
	})
}
