package core

import (
	"fmt"
	"math"

	"pathsep/internal/graph"
	"pathsep/internal/shortest"
	"pathsep/internal/treedecomp"
)

// CenterBag separates a graph with the center bag of a heuristic tree
// decomposition: every vertex of the bag is a trivial (one-vertex)
// shortest path, so the separator is strong — a single phase of at most
// width+1 paths (Theorem 7: treewidth-r graphs are strongly
// (r+1)-path separable).
type CenterBag struct {
	// Heuristic selects the elimination ordering; MinDegree by default.
	Heuristic treedecomp.Heuristic
}

// Name implements Strategy.
func (s CenterBag) Name() string { return "center-bag" }

// Separate implements Strategy.
func (s CenterBag) Separate(in Input) (*Separator, error) {
	return centerBag(in.G, s.Heuristic, math.MaxInt)
}

// centerBag separates g with the center bag of its heuristic tree
// decomposition (Lemma 1), one one-vertex path per bag vertex. It fails
// when the decomposition is wider than maxWidth, so that Auto can fall
// back to another strategy.
func centerBag(g *graph.Graph, h treedecomp.Heuristic, maxWidth int) (*Separator, error) {
	d := treedecomp.Build(g, h)
	if width := d.Width(); width > maxWidth {
		return nil, fmt.Errorf("core: heuristic width %d exceeds limit %d", width, maxWidth)
	}
	c := d.CenterBag(g)
	if c < 0 {
		return nil, fmt.Errorf("core: no center bag found")
	}
	bag := d.Bags[c]
	if got := balanceOf(g, bag); got > g.N()/2 {
		return nil, fmt.Errorf("core: center bag left a component of %d > n/2", got)
	}
	paths := make([]Path, 0, len(bag))
	for _, v := range bag {
		paths = append(paths, Path{Vertices: []int{v}})
	}
	return &Separator{Phases: []Phase{{Paths: paths}}}, nil
}

// Greedy separates arbitrary connected graphs with shortest-path-tree
// centroid paths: each phase removes, from the largest remaining
// component, the shortest path from a root to the centroid of the
// shortest-path tree. Every phase's path is a shortest path in the
// residual graph, so the output satisfies Definition 1; the number of
// phases used is the measured k.
type Greedy struct {
	// MaxPaths caps the number of paths before giving up (0 = 4*sqrt(n)+16).
	MaxPaths int
}

// Name implements Strategy.
func (Greedy) Name() string { return "greedy-sptree" }

// Separate implements Strategy.
func (s Greedy) Separate(in Input) (*Separator, error) {
	return greedy(in.G, nil, s.MaxPaths, shortest.NewCollector(in.Metrics))
}

// greedy is Greedy at the given vertex weights (unit weights when nil):
// each phase removes, from the heaviest remaining component, the
// shortest path from a root to the weighted centroid of its
// shortest-path tree, until no component holds more than half the total
// weight. An input that is already balanced gets a one-vertex separator,
// since Definition 1 requires removing something.
func greedy(g *graph.Graph, weights []float64, maxPaths int, col *shortest.Collector) (*Separator, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if n == 1 {
		return singleVertexSeparator(0), nil
	}
	if maxPaths <= 0 {
		maxPaths = 4*isqrt(n) + 16
	}
	total := graphWeight(n, weights)
	sep := &Separator{}
	removed := make([]int, 0, 16)
	for len(sep.Phases) < maxPaths {
		comps := graph.ComponentsAfterRemoval(g, removed)
		big, w := heaviest(comps, weights)
		if big < 0 || w <= total/2 {
			if len(sep.Phases) == 0 {
				return singleVertexSeparator(0), nil
			}
			return sep, nil
		}
		sub := graph.Induced(g, comps[big])
		var subWeights []float64
		if weights != nil {
			subWeights = make([]float64, len(sub.Orig))
			for i, ov := range sub.Orig {
				subWeights[i] = weights[ov]
			}
		}
		path := centroidPath(sub.G, subWeights, col)
		lifted := make([]int, len(path))
		for i, v := range path {
			lifted[i] = sub.Orig[v]
		}
		sep.Phases = append(sep.Phases, Phase{Paths: []Path{{Vertices: lifted}}})
		removed = append(removed, lifted...)
	}
	return nil, fmt.Errorf("core: greedy exceeded %d paths without halving (n=%d)", maxPaths, n)
}

// centroidPath returns the shortest path from a root to the weighted
// centroid of the shortest-path tree of the connected graph j.
func centroidPath(j *graph.Graph, weights []float64, col *shortest.Collector) []int {
	if j.N() == 1 {
		return []int{0}
	}
	root := maxDegreeVertex(j)
	t := shortest.Dijkstra(j, root)
	col.Record(t)
	c := sptCentroid(t.Parent, weights)
	return t.PathTo(c)
}

func maxDegreeVertex(g *graph.Graph) int {
	best, bestDeg := 0, -1
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > bestDeg {
			best, bestDeg = v, g.Degree(v)
		}
	}
	return best
}

// sptCentroid computes the weighted centroid of the tree given by parent
// pointers (root has parent -1): the vertex whose removal from the TREE
// leaves subtrees of at most half the total weight. Removing the
// root-to-centroid path leaves tree components of at most half the
// weight (graph components may still merge across non-tree edges, which
// is why greedy iterates).
func sptCentroid(parent []int, weights []float64) int {
	n := len(parent)
	total := graphWeight(n, weights)
	sub := make([]float64, n)
	// Kahn-style leaf peeling to get subtree weights without recursion.
	pending := make([]int, n)
	for v := 0; v < n; v++ {
		if parent[v] >= 0 {
			pending[parent[v]]++
		}
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if pending[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		sub[v] += vertexWeight(weights, v)
		if p := parent[v]; p >= 0 {
			sub[p] += sub[v]
			pending[p]--
			if pending[p] == 0 {
				queue = append(queue, p)
			}
		}
	}
	root := 0
	for v := 0; v < n; v++ {
		if parent[v] < 0 {
			root = v
			break
		}
	}
	// children lists for the descent.
	children := make([][]int, n)
	for v := 0; v < n; v++ {
		if p := parent[v]; p >= 0 {
			children[p] = append(children[p], v)
		}
	}
	v := root
	for {
		next := -1
		for _, c := range children[v] {
			if sub[c] > total/2 {
				next = c
				break
			}
		}
		if next < 0 {
			return v
		}
		v = next
	}
}

func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}
