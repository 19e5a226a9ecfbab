// Package smallworld implements Section 4 of the paper: augmenting a
// k-path separable graph with one long-range edge per vertex, drawn from
// the separator-landmark distribution, so that greedy routing takes
// O(k^2 log^2 n log^2 Δ) expected hops (Theorem 3), plus the Note 1/2
// variants and the Kleinberg and uniform baselines.
package smallworld

import (
	"fmt"
	"math"
	"math/rand"

	"pathsep/internal/core"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/shortest"
)

// Model selects the long-range edge distribution.
type Model int

const (
	// ModelPathSeparator is the paper's Theorem 3 distribution: a uniform
	// level of the decomposition tree, a uniform separator path, then a
	// uniform landmark from the Claim 1 landmark set.
	ModelPathSeparator Model = iota
	// ModelClosestSeparator is the Note 2 variant: the contact is the
	// closest vertex of the chosen level's separator.
	ModelClosestSeparator
	// ModelUniform links each vertex to a uniform random vertex (baseline).
	ModelUniform
	// ModelNone adds no long-range edges (baseline).
	ModelNone
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelPathSeparator:
		return "path-separator"
	case ModelClosestSeparator:
		return "closest-separator"
	case ModelUniform:
		return "uniform"
	case ModelNone:
		return "none"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Augmented is a graph plus one directed long-range contact per vertex
// (Definition 4; -1 for no contact).
type Augmented struct {
	G    *graph.Graph
	Long []int
}

// Augment draws one long-range contact per vertex according to the model.
// The aspect ratio Δ is estimated from the graph to size the landmark
// scales.
func Augment(t *core.Tree, model Model, rng *rand.Rand) (*Augmented, error) {
	g := t.G
	a := &Augmented{G: g, Long: make([]int, g.N())}
	for i := range a.Long {
		a.Long[i] = -1
	}
	switch model {
	case ModelNone:
		return a, nil
	case ModelUniform:
		for v := 0; v < g.N(); v++ {
			a.Long[v] = rng.Intn(g.N())
		}
		return a, nil
	case ModelClosestSeparator:
		return augmentClosest(t, a, rng)
	case ModelPathSeparator:
		return augmentLandmarks(t, a, rng)
	default:
		return nil, fmt.Errorf("smallworld: unknown model %d", int(model))
	}
}

// pathData is the per-(node,phase,path) precomputation: positions along
// the path and, for every vertex of the residual graph, its distance to
// the path and closest path index.
type pathData struct {
	node     int
	phase    int
	pathIdx  int
	verts    []int     // root IDs of path vertices
	pos      []float64 // prefix weights
	distRoot map[int]float64
	closest  map[int]int // root vertex -> index into verts
}

// collectPathData runs one multi-source Dijkstra per separator path.
func collectPathData(t *core.Tree) ([][]pathData, error) {
	perNode := make([][]pathData, len(t.Nodes))
	for _, node := range t.Nodes {
		if node.Sep == nil {
			continue
		}
		err := core.Residuals(node.Sub.G, node.Sep, func(phaseIdx int, sub *graph.Sub, paths []core.ResidualPath) error {
			j := sub.G
			for pi, p := range paths {
				pd := pathData{
					node:     node.ID,
					phase:    phaseIdx,
					pathIdx:  pi,
					verts:    make([]int, len(p.Verts)),
					pos:      p.Pos,
					distRoot: make(map[int]float64, j.N()),
					closest:  make(map[int]int, j.N()),
				}
				idxOf := make(map[int]int, len(p.Verts))
				for x, jv := range p.Verts {
					idxOf[jv] = x
					pd.verts[x] = node.Sub.Orig[sub.Orig[jv]]
				}
				tr := shortest.MultiSource(j, p.Verts)
				for w := 0; w < j.N(); w++ {
					if tr.Source[w] < 0 {
						continue
					}
					rootW := node.Sub.Orig[sub.Orig[w]]
					pd.distRoot[rootW] = tr.Dist[w]
					pd.closest[rootW] = idxOf[tr.Source[w]]
				}
				perNode[node.ID] = append(perNode[node.ID], pd)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("smallworld: node %d: %w", node.ID, err)
		}
	}
	return perNode, nil
}

// Landmarks computes the Claim 1 landmark set for a vertex with closest
// path index c and path-distance d, over a path with the given positions:
// in each direction, the first vertex at path-distance >= (i/2)*d for
// i=0..10 and >= 2^i*d for i=0..ceil(log2 Δ). When d == 0 (the vertex is
// on the path) d is replaced by the paper's normalized minimum distance 1.
func Landmarks(pos []float64, c int, d float64, delta float64) []int {
	if d <= 0 {
		d = 1
	}
	logD := 1
	if delta > 1 {
		logD = int(math.Ceil(math.Log2(delta))) + 1
	}
	seen := make(map[int]bool)
	var out []int
	addFirstAtLeast := func(dir int, target float64) {
		// First index x in direction dir from c with |pos[x]-pos[c]| >= target.
		for x := c; x >= 0 && x < len(pos); x += dir {
			if math.Abs(pos[x]-pos[c]) >= target {
				if !seen[x] {
					seen[x] = true
					out = append(out, x)
				}
				return
			}
		}
	}
	for _, dir := range []int{-1, 1} {
		for i := 0; i <= 10; i++ {
			addFirstAtLeast(dir, float64(i)/2*d)
		}
		scale := d
		for i := 0; i < logD; i++ {
			addFirstAtLeast(dir, scale)
			scale *= 2
		}
	}
	return out
}

func augmentLandmarks(t *core.Tree, a *Augmented, rng *rand.Rand) (*Augmented, error) {
	perNode, err := collectPathData(t)
	if err != nil {
		return nil, err
	}
	delta := shortest.AspectRatio(t.G)
	for v := 0; v < t.G.N(); v++ {
		homePath := t.HomePath(v)
		if len(homePath) == 0 {
			continue
		}
		// A handful of redraws avoids useless self-contacts when v sits on
		// the sampled separator path.
		for attempt := 0; attempt < 4 && a.Long[v] < 0; attempt++ {
			nodeID := homePath[rng.Intn(len(homePath))]
			// Candidate paths: those whose residual graph still contains v.
			var candidates []*pathData
			for i := range perNode[nodeID] {
				pd := &perNode[nodeID][i]
				if _, ok := pd.distRoot[v]; ok {
					candidates = append(candidates, pd)
				}
			}
			if len(candidates) == 0 {
				continue
			}
			pd := candidates[rng.Intn(len(candidates))]
			c := pd.closest[v]
			d := pd.distRoot[v]
			lm := Landmarks(pd.pos, c, d, delta)
			// Filter out v itself.
			filtered := lm[:0]
			for _, x := range lm {
				if pd.verts[x] != v {
					filtered = append(filtered, x)
				}
			}
			if len(filtered) == 0 {
				continue
			}
			a.Long[v] = pd.verts[filtered[rng.Intn(len(filtered))]]
		}
	}
	return a, nil
}

func augmentClosest(t *core.Tree, a *Augmented, rng *rand.Rand) (*Augmented, error) {
	// Per node: multi-source Dijkstra from all separator vertices within H.
	closest := make([]map[int]int, len(t.Nodes)) // node -> root vertex -> root contact
	for _, node := range t.Nodes {
		if node.Sep == nil {
			continue
		}
		local := node.Sub.G
		var srcs []int
		for _, lv := range node.Sep.Vertices() {
			srcs = append(srcs, lv)
		}
		tr := shortest.MultiSource(local, srcs)
		m := make(map[int]int, local.N())
		for w := 0; w < local.N(); w++ {
			if tr.Source[w] >= 0 {
				m[node.Sub.Orig[w]] = node.Sub.Orig[tr.Source[w]]
			}
		}
		closest[node.ID] = m
	}
	for v := 0; v < t.G.N(); v++ {
		homePath := t.HomePath(v)
		if len(homePath) == 0 {
			continue
		}
		for attempt := 0; attempt < 4 && a.Long[v] < 0; attempt++ {
			nodeID := homePath[rng.Intn(len(homePath))]
			if m := closest[nodeID]; m != nil {
				if c, ok := m[v]; ok && c != v {
					a.Long[v] = c
				}
			}
		}
	}
	return a, nil
}

// AugmentKleinbergGrid draws, for each vertex of a rows x cols grid, a
// long-range contact with probability proportional to (lattice
// distance)^-2 — Kleinberg's harmonic distribution, the classical
// baseline.
func AugmentKleinbergGrid(g *graph.Graph, rows, cols int, rng *rand.Rand) *Augmented {
	a := &Augmented{G: g, Long: make([]int, g.N())}
	for v := range a.Long {
		a.Long[v] = -1
	}
	latDist := func(u, v int) int {
		ux, uy := u%cols, u/cols
		vx, vy := v%cols, v/cols
		return abs(ux-vx) + abs(uy-vy)
	}
	n := rows * cols
	for v := 0; v < n; v++ {
		// Rejection-free sampling: cumulative weights over all vertices.
		total := 0.0
		for u := 0; u < n; u++ {
			if u != v {
				total += 1 / float64(latDist(u, v)*latDist(u, v))
			}
		}
		r := rng.Float64() * total
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			r -= 1 / float64(latDist(u, v)*latDist(u, v))
			if r <= 0 {
				a.Long[v] = u
				break
			}
		}
		if a.Long[v] < 0 {
			a.Long[v] = (v + 1) % n
		}
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// GreedyRoute walks greedily from s to t: at each step move to the
// neighbor (grid edges plus the long-range contact) closest to t in the
// base-graph metric. distT must be the Dijkstra distances to t.
// It returns the hop count and whether t was reached within maxHops.
func GreedyRoute(a *Augmented, s, t int, distT []float64, maxHops int) (int, bool) {
	cur := s
	for hops := 0; hops <= maxHops; hops++ {
		if cur == t {
			return hops, true
		}
		best, bestD := -1, distT[cur]
		for _, h := range a.G.Neighbors(cur) {
			if distT[h.To] < bestD {
				best, bestD = h.To, distT[h.To]
			}
		}
		if l := a.Long[cur]; l >= 0 && distT[l] < bestD {
			best, bestD = l, distT[l]
		}
		if best < 0 {
			return hops, false // local minimum (cannot happen on connected base graphs)
		}
		cur = best
	}
	return maxHops, false
}

// Stats summarizes greedy-routing trials.
type Stats struct {
	Trials    int
	Delivered int
	MeanHops  float64
	MaxHops   int
}

// Experiment runs `trials` greedy routings between uniform random pairs
// and aggregates hop counts. Each trial redraws the augmentation if
// redraw is non-nil (matching the expectation over <G,D> in Definition 4).
func Experiment(a *Augmented, trials int, rng *rand.Rand, redraw func() *Augmented) Stats {
	return ExperimentObserved(a, trials, rng, redraw, nil)
}

// ExperimentObserved is Experiment with per-trial observability: when reg
// is non-nil, every delivered trial's hop count lands in the
// "smallworld.greedy_hops" histogram and failures increment
// "smallworld.undelivered" (Theorem 3's measured quantity as a
// distribution, not just a mean).
func ExperimentObserved(a *Augmented, trials int, rng *rand.Rand, redraw func() *Augmented, reg *obs.Registry) Stats {
	hopsHist := reg.Histogram("smallworld.greedy_hops") // nil-safe handles
	undelivered := reg.Counter("smallworld.undelivered")
	g := a.G
	st := Stats{Trials: trials}
	totalHops := 0
	maxHops := 64 * (bitsLen(g.N()) + 1) * (bitsLen(g.N()) + 1)
	for i := 0; i < trials; i++ {
		if redraw != nil {
			a = redraw()
		}
		s := rng.Intn(g.N())
		t := rng.Intn(g.N())
		distT := shortest.Dijkstra(g, t).Dist
		if math.IsInf(distT[s], 1) {
			continue
		}
		hops, ok := GreedyRoute(a, s, t, distT, maxHops)
		if ok {
			st.Delivered++
			totalHops += hops
			if hops > st.MaxHops {
				st.MaxHops = hops
			}
			hopsHist.Observe(float64(hops))
		} else {
			undelivered.Inc()
		}
	}
	if st.Delivered > 0 {
		st.MeanHops = float64(totalHops) / float64(st.Delivered)
	}
	return st
}

func bitsLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

// ExperimentRedraw is Experiment with the augmentation redrawn before
// every trial, matching the expectation over <G, D> of Definition 4
// exactly (one sampled graph per routing attempt).
func ExperimentRedraw(t *core.Tree, model Model, trials int, rng *rand.Rand) (Stats, error) {
	a, err := Augment(t, model, rng)
	if err != nil {
		return Stats{}, err
	}
	redraw := func() *Augmented {
		na, err := Augment(t, model, rng)
		if err != nil {
			return a
		}
		return na
	}
	return Experiment(a, trials, rng, redraw), nil
}
