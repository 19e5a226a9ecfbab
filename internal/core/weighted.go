package core

import (
	"fmt"
	"math"

	"pathsep/internal/graph"
	"pathsep/internal/shortest"
	"pathsep/internal/treedecomp"
)

// This file implements the vertex-weighted strengthening noted after
// Theorem 1 in the paper: a k-path separator that splits the graph into
// components of at most HALF THE TOTAL VERTEX WEIGHT (rather than half
// the vertex count), with the separator still a sequence of phases of
// shortest paths. Lemmas 1 and 5 "can be easily adapted"; the unweighted
// routines are these at unit weights (nil weights). A nil-weight sum is
// an integer-valued float64, exact below 2^53, and for an integer s,
// s > n/2 holds exactly when s > ⌊n/2⌋, so the unit-weight comparisons
// are the vertex-count ones.

// checkWeights refuses a weight vector without one entry per vertex, or
// with a negative or non-finite weight. Zero weights are legal, and nil
// weights are unit weights.
func checkWeights(n int, weights []float64) error {
	if weights == nil {
		return nil
	}
	if len(weights) != n {
		return fmt.Errorf("core: %d weights for %d vertices", len(weights), n)
	}
	for v, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("core: vertex %d has weight %v; weights must be finite and non-negative", v, w)
		}
	}
	return nil
}

// vertexWeight returns v's weight, 1 when weights is nil.
func vertexWeight(weights []float64, v int) float64 {
	if weights == nil {
		return 1
	}
	return weights[v]
}

// totalWeight sums the weights of the given vertices.
func totalWeight(vertices []int, weights []float64) float64 {
	if weights == nil {
		return float64(len(vertices))
	}
	var s float64
	for _, v := range vertices {
		s += weights[v]
	}
	return s
}

// heaviest returns the index and weight of the first heaviest of comps,
// or -1 when none has positive weight. At unit weights that is comps[0],
// since ComponentsAfterRemoval returns components largest first.
func heaviest(comps [][]int, weights []float64) (int, float64) {
	best, bestW := -1, 0.0
	for i, comp := range comps {
		if w := totalWeight(comp, weights); w > bestW {
			best, bestW = i, w
		}
	}
	return best, bestW
}

// maxComponentWeight returns the heaviest component weight of g minus the
// removed set.
func maxComponentWeight(g *graph.Graph, weights []float64, removed []int) float64 {
	_, w := heaviest(graph.ComponentsAfterRemoval(g, removed), weights)
	return w
}

// graphWeight sums the weights of all n vertices, in vertex order.
func graphWeight(n int, weights []float64) float64 {
	total := 0.0
	for v := 0; v < n; v++ {
		total += vertexWeight(weights, v)
	}
	return total
}

// WeightedTreeCentroid returns a vertex of the tree g whose removal
// leaves components of at most half the total vertex weight. Weights
// must be finite and non-negative; nil weights are unit weights.
func WeightedTreeCentroid(g *graph.Graph, weights []float64) (int, error) {
	if g.N() == 0 {
		return -1, fmt.Errorf("core: empty graph")
	}
	if !IsTree(g) {
		return -1, fmt.Errorf("core: weighted centroid requires a tree")
	}
	if err := checkWeights(g.N(), weights); err != nil {
		return -1, err
	}
	return treeCentroid(g, weights), nil
}

// WeightedCenterBag finds a bag of a heuristic tree decomposition whose
// removal leaves components of at most half the total vertex weight —
// Lemma 1 with vertex weights. Weights must be finite and non-negative.
func WeightedCenterBag(g *graph.Graph, weights []float64, h treedecomp.Heuristic) ([]int, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if err := checkWeights(g.N(), weights); err != nil {
		return nil, err
	}
	d := treedecomp.Build(g, h)
	total := graphWeight(g.N(), weights)
	// Exhaustive scan (Lemma 1 guarantees success); decompositions are
	// linear in n so this is O(n * components) worst case.
	bestBag, bestW := -1, total+1
	for i := range d.Bags {
		w := maxComponentWeight(g, weights, d.Bags[i])
		if w <= total/2 {
			return d.Bags[i], nil
		}
		if w < bestW {
			bestBag, bestW = i, w
		}
	}
	if bestBag < 0 {
		return nil, fmt.Errorf("core: no bags")
	}
	return nil, fmt.Errorf("core: no weighted center bag (best leaves %.3g of %.3g)", bestW, total)
}

// WeightedGreedy computes a phased path separator that halves the total
// vertex weight: Greedy with the WEIGHTED centroid of each shortest-path
// tree. Weights must be finite and non-negative.
func WeightedGreedy(g *graph.Graph, weights []float64, maxPaths int) (*Separator, error) {
	if err := checkWeights(g.N(), weights); err != nil {
		return nil, err
	}
	return greedy(g, weights, maxPaths, nil)
}

// CertifyWeighted verifies a separator against the weighted Definition 1
// variant: phases of shortest paths in their residual graphs, and
// remaining components of at most half the total vertex weight. Weights
// must be finite and non-negative; nil weights are unit weights.
func CertifyWeighted(g *graph.Graph, weights []float64, sep *Separator) error {
	if sep == nil || len(sep.Phases) == 0 {
		return fmt.Errorf("core: empty separator")
	}
	if err := checkWeights(g.N(), weights); err != nil {
		return err
	}
	err := Residuals(g, sep, func(i int, j *graph.Sub, paths []ResidualPath) error {
		for pi, p := range paths {
			if !shortest.IsShortestPath(j.G, p.Verts) {
				return fmt.Errorf("core: phase %d path %d is not a shortest path in its residual graph", i, pi)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	total := graphWeight(g.N(), weights)
	if got := maxComponentWeight(g, weights, sep.Vertices()); got > total/2 {
		return fmt.Errorf("core: component of weight %.6g > half of %.6g remains", got, total)
	}
	return nil
}
