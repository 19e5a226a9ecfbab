// Package shortest provides single-source and multi-source Dijkstra
// shortest paths, shortest-path trees, and path utilities over
// internal/graph graphs with non-negative weights.
package shortest

import (
	"math"

	"pathsep/internal/graph"
	"pathsep/internal/pqueue"
)

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// Stats counts the work one Dijkstra run performed. The counts are
// always collected (plain local increments, no atomics) so callers with
// an obs.Registry can aggregate them after the fact via Collector.
type Stats struct {
	// HeapPushes counts priority-queue pushes (including decrease-keys).
	HeapPushes int64
	// HeapPops counts priority-queue pops, settled or stale.
	HeapPops int64
	// Settled counts vertices settled (finalized).
	Settled int64
	// EdgesScanned counts neighbor edges examined.
	EdgesScanned int64
	// Relaxations counts tentative-distance improvements.
	Relaxations int64
}

// Tree is a shortest-path tree from one or more sources.
type Tree struct {
	// Dist[v] is the distance from the nearest source, Inf if unreachable.
	Dist []float64
	// Parent[v] is the predecessor on a shortest path, -1 for sources and
	// unreachable vertices.
	Parent []int
	// Source[v] is the source vertex v was reached from (v itself for
	// sources), -1 if unreachable.
	Source []int
	// Order lists vertices in the order they were settled.
	Order []int
	// Hops[v] is the number of edges on the tree path from the source.
	Hops []int
	// Stats is the work accounting of the run that built this tree.
	Stats Stats
}

// Dijkstra computes the shortest-path tree of g from src.
func Dijkstra(g *graph.Graph, src int) *Tree {
	return MultiSourceOffsets(g, []int{src}, nil)
}

// MultiSource computes shortest paths from the nearest of several sources.
func MultiSource(g *graph.Graph, sources []int) *Tree {
	return MultiSourceOffsets(g, sources, nil)
}

// MultiSourceOffsets computes shortest paths from several sources where
// source i starts with initial distance offsets[i] (all zero when offsets
// is nil). This implements distance to a path with positions along it.
func MultiSourceOffsets(g *graph.Graph, sources []int, offsets []float64) *Tree {
	// A copy of the run's Tree, so that holding it keeps no heap alive.
	var ws Workspace
	t := *ws.Run(g, sources, offsets)
	return &t
}

// Workspace holds the arrays of one Dijkstra run, so that a caller
// making many runs allocates them once. The zero value is ready to use.
// A Workspace is not safe for concurrent use.
type Workspace struct {
	tree Tree
	pq   *pqueue.PQ
	done []bool
}

// Run computes what MultiSourceOffsets computes, into the workspace's
// arrays: it resets them to g's size, growing them only when g has more
// vertices than any earlier run's graph, and reuses the heap. The
// returned Tree is the workspace's own and is overwritten by the next
// Run.
func (ws *Workspace) Run(g *graph.Graph, sources []int, offsets []float64) *Tree {
	n := g.N()
	t := &ws.tree
	if ws.pq == nil || cap(t.Dist) < n {
		*t = Tree{
			Dist:   make([]float64, n),
			Parent: make([]int, n),
			Source: make([]int, n),
			Order:  make([]int, 0, n),
			Hops:   make([]int, n),
		}
		ws.pq = pqueue.New(n)
		ws.done = make([]bool, n)
	}
	t.Dist, t.Parent, t.Source, t.Hops, t.Order = t.Dist[:n], t.Parent[:n], t.Source[:n], t.Hops[:n], t.Order[:0]
	done := ws.done[:n]
	pq := ws.pq
	pq.Reset()
	clear(done)
	clear(t.Hops)
	for i := 0; i < n; i++ {
		t.Dist[i] = Inf
		t.Parent[i] = -1
		t.Source[i] = -1
	}
	var pushes, pops, scanned, relaxed int64
	for i, s := range sources {
		d := 0.0
		if offsets != nil {
			d = offsets[i]
		}
		if d < t.Dist[s] {
			t.Dist[s] = d
			t.Source[s] = s
			pq.Push(s, d)
			pushes++
		}
	}
	for pq.Len() > 0 {
		v, dv := pq.Pop()
		pops++
		if done[v] {
			continue
		}
		done[v] = true
		t.Order = append(t.Order, v)
		for _, h := range g.Neighbors(v) {
			scanned++
			nd := dv + h.W
			if nd < t.Dist[h.To] {
				t.Dist[h.To] = nd
				t.Parent[h.To] = v
				t.Source[h.To] = t.Source[v]
				t.Hops[h.To] = t.Hops[v] + 1
				pq.Push(h.To, nd)
				pushes++
				relaxed++
			}
		}
	}
	t.Stats = Stats{
		HeapPushes:   pushes,
		HeapPops:     pops,
		Settled:      int64(len(t.Order)),
		EdgesScanned: scanned,
		Relaxations:  relaxed,
	}
	return t
}

// PathTo returns the vertex sequence of the tree path from the source of v
// to v, or nil if v is unreachable.
func (t *Tree) PathTo(v int) []int {
	if t.Source[v] < 0 {
		return nil
	}
	var rev []int
	for u := v; u >= 0; u = t.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// TreePath returns the vertex sequence of the tree path between u and an
// ancestor a of u (inclusive, from a to u). It returns nil if a is not an
// ancestor of u.
func (t *Tree) TreePath(a, u int) []int {
	var rev []int
	for x := u; x >= 0; x = t.Parent[x] {
		rev = append(rev, x)
		if x == a {
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return rev
		}
	}
	return nil
}

// Distance computes the shortest-path distance between u and v (a full
// Dijkstra; use an oracle for repeated queries).
func Distance(g *graph.Graph, u, v int) float64 {
	return Dijkstra(g, u).Dist[v]
}

// PathLength returns the total weight of the given vertex path in g and
// whether every consecutive pair is an edge.
func PathLength(g *graph.Graph, path []int) (float64, bool) {
	var total float64
	for i := 0; i+1 < len(path); i++ {
		w, ok := g.EdgeWeight(path[i], path[i+1])
		if !ok {
			return 0, false
		}
		total += w
	}
	return total, true
}

// IsShortestPath verifies that path is a shortest path in g between its
// endpoints (within a tiny floating-point tolerance). A single-vertex path
// is trivially shortest.
func IsShortestPath(g *graph.Graph, path []int) bool {
	if len(path) == 0 {
		return false
	}
	if len(path) == 1 {
		return true
	}
	length, ok := PathLength(g, path)
	if !ok {
		return false
	}
	d := Distance(g, path[0], path[len(path)-1])
	const tol = 1e-9
	return length <= d*(1+tol)+tol
}

// Eccentricity returns the maximum finite distance from v, and the farthest
// vertex attaining it.
func Eccentricity(g *graph.Graph, v int) (float64, int) {
	t := Dijkstra(g, v)
	best, arg := 0.0, v
	for u, d := range t.Dist {
		if !math.IsInf(d, 1) && d > best {
			best, arg = d, u
		}
	}
	return best, arg
}

// DiameterApprox estimates the weighted diameter by a double sweep from v0.
func DiameterApprox(g *graph.Graph, v0 int) float64 {
	if g.N() == 0 {
		return 0
	}
	_, far := Eccentricity(g, v0)
	d, _ := Eccentricity(g, far)
	return d
}

// AspectRatio estimates the aspect ratio Delta = max dist / min dist of a
// connected graph via a double sweep (the paper normalizes min dist to 1).
func AspectRatio(g *graph.Graph) float64 {
	if g.N() < 2 {
		return 1
	}
	diam := DiameterApprox(g, 0)
	minW, ok := g.MinEdgeWeight()
	if !ok || minW <= 0 {
		return diam
	}
	return diam / minW
}
