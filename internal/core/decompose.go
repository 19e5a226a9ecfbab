package core

import (
	"fmt"
	"time"

	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/par"
	"pathsep/internal/treedecomp"
)

// Node is one node of the decomposition tree (Section 4): a subgraph H of
// the root graph, its k-path separator S(H), and the child components of
// H minus S(H).
type Node struct {
	// ID is the node's index in Tree.Nodes.
	ID int
	// Parent is the parent node ID, -1 for the root.
	Parent int
	// Depth is the distance from the root.
	Depth int
	// Sub is the subgraph H with its mapping to root-graph vertex IDs.
	Sub *graph.Sub
	// Sep is the separator of H in LOCAL (Sub.G) vertex IDs; nil only for a
	// disconnected virtual root.
	Sep *Separator
	// Children are the node IDs of the components of H minus S(H).
	Children []int
	// StrategyName records which strategy separated this node.
	StrategyName string
	// SepNanos is the wall-clock time spent computing this node's
	// separator.
	SepNanos int64
}

// Tree is the decomposition tree of a graph: the root is the whole graph;
// each node's children are the connected components left by its separator.
// Every vertex of the graph is removed by the separator of exactly one
// node, its "home".
type Tree struct {
	G     *graph.Graph
	Nodes []*Node
	// Home[v] is the node ID whose separator removed root vertex v.
	Home []int
	// MaxK is the largest NumPaths over all node separators.
	MaxK int
	// TotalPaths is the sum of NumPaths over all nodes.
	TotalPaths int
	// Depth is the height of the tree.
	Depth int
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.Nodes[0] }

// HomePath returns the node IDs from the root down to Home[v], the nodes
// H_1(v), ..., H_r(v) of Section 4.
func (t *Tree) HomePath(v int) []int {
	var rev []int
	for id := t.Home[v]; id >= 0; id = t.Nodes[id].Parent {
		rev = append(rev, id)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Options configures Decompose.
type Options struct {
	// Strategy separates each node; Auto{} if nil.
	Strategy Strategy
	// Rot is an optional planar embedding of the root graph.
	Rot *embed.Rotation
	// Certify re-verifies every separator against Definition 1 (slow;
	// for tests and audits).
	Certify bool
	// MaxDepth caps recursion depth as a loop guard; 0 means
	// 2*ceil(log2 n) + 8.
	MaxDepth int
	// MinComponent stops recursing into components at or below this size,
	// separating them exhaustively vertex-by-vertex instead. 0 means 1.
	MinComponent int
	// Metrics, when non-nil, receives per-node and per-recursion-level
	// timings, path counts and subgraph size histograms under "core.*",
	// and is forwarded to strategies for their Dijkstra accounting.
	Metrics *obs.Registry
	// Trace, when non-nil, receives one node per decomposition node (IDs
	// match Tree.Nodes) with its strategy, size, k and duration — the
	// decomposition trace tree.
	Trace *obs.Trace
	// Workers bounds the construction worker pool. The recursion is
	// processed level by level: every node of a level computes its
	// separator (and its child components) as an independent task, and
	// the results are merged in a fixed order, so the tree is
	// bit-identical for every worker count. 0 means runtime.GOMAXPROCS(0);
	// 1 forces the serial reference build.
	Workers int
}

// item is one pending decomposition node: a subgraph awaiting its
// separator, linked to its (already numbered) parent.
type item struct {
	sub    *graph.Sub
	rot    *embed.Rotation
	parent int
	depth  int
}

// sepOut is the result of one node's parallel task: its separator plus the
// fully built child items (components of the subgraph minus the
// separator), or the first error encountered.
type sepOut struct {
	sep          *Separator
	strategyName string
	nanos        int64
	children     []item
	err          error
}

// Decompose builds the decomposition tree of g. If g is disconnected, the
// root gets an empty separator with one child per component.
//
// The recursion is processed level by level. Within a level every node is
// an independent task on a bounded worker pool (Options.Workers): the task
// computes the separator, optionally certifies it, and builds the child
// subgraphs. A serial merge pass then numbers the nodes in the exact order
// the serial breadth-first build would, assigns homes, and emits metrics
// and trace nodes — so the resulting Tree (IDs, children order, Home,
// depth) is bit-identical for every worker count.
func Decompose(g *graph.Graph, opt Options) (*Tree, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	span := opt.Metrics.StartSpan("core.decompose")
	defer span.End()
	strat := opt.Strategy
	if strat == nil {
		strat = Auto{}
	}
	maxDepth := opt.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 2*log2Ceil(g.N()) + 8
	}
	pool := par.New(opt.Workers, opt.Metrics)
	defer pool.Finish()
	t := &Tree{G: g, Home: make([]int, g.N())}
	for i := range t.Home {
		t.Home[i] = -1
	}

	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	rootSub := graph.Induced(g, all)

	var level []item
	if graph.IsConnected(g) {
		level = append(level, item{sub: rootSub, rot: opt.Rot, parent: -1, depth: 0})
	} else {
		// Virtual root with empty separator.
		root := &Node{ID: 0, Parent: -1, Sub: rootSub, StrategyName: "virtual-root"}
		t.Nodes = append(t.Nodes, root)
		if id := opt.Trace.Add(-1, "virtual-root"); id >= 0 {
			opt.Trace.SetAttr(id, "n", int64(g.N()))
			opt.Trace.SetAttr(id, "m", int64(g.M()))
		}
		for _, comp := range graph.ConnectedComponents(g) {
			sub := graph.Induced(g, comp)
			var rot *embed.Rotation
			if opt.Rot != nil {
				rot = opt.Rot.Restrict(sub)
			}
			level = append(level, item{sub: sub, rot: rot, parent: 0, depth: 1})
		}
	}

	// separate runs inside a worker task: everything that touches no
	// shared tree state. id is the node ID the merge pass will assign —
	// IDs are breadth-first, so they are known before the level runs.
	separate := func(it item, id int) sepOut {
		out := sepOut{}
		j := it.sub.G
		sepStart := time.Now()
		if j.N() <= max(1, opt.MinComponent) {
			// Exhaust tiny components: every vertex its own trivial path.
			phase := Phase{}
			for v := 0; v < j.N(); v++ {
				phase.Paths = append(phase.Paths, Path{Vertices: []int{v}})
			}
			out.sep = &Separator{Phases: []Phase{phase}}
			out.strategyName = "exhaust"
		} else {
			sep, err := strat.Separate(Input{G: j, Rot: it.rot, Metrics: opt.Metrics})
			if err != nil {
				out.err = fmt.Errorf("core: node %d (n=%d, depth=%d): %w", id, j.N(), it.depth, err)
				return out
			}
			out.sep = sep
			out.strategyName = strat.Name()
		}
		out.nanos = time.Since(sepStart).Nanoseconds()
		if opt.Certify {
			if err := Certify(j, out.sep); err != nil {
				out.err = fmt.Errorf("core: node %d: %w", id, err)
				return out
			}
		}
		locals := out.sep.Vertices()
		if len(locals) == 0 {
			out.err = fmt.Errorf("core: node %d: separator removed nothing", id)
			return out
		}
		for _, comp := range graph.ComponentsAfterRemoval(j, locals) {
			// Compose origin maps so children map straight to root IDs.
			rootIDs := make([]int, len(comp))
			for i, lv := range comp {
				rootIDs[i] = it.sub.Orig[lv]
			}
			lifted := graph.Induced(g, rootIDs)
			var childRot *embed.Rotation
			if it.rot != nil {
				// lifted.G is j's subgraph on comp, in comp's order.
				childRot = it.rot.Restrict(&graph.Sub{G: lifted.G, Orig: comp})
			}
			out.children = append(out.children, item{sub: lifted, rot: childRot, parent: id, depth: it.depth + 1})
		}
		return out
	}

	for len(level) > 0 {
		if level[0].depth > maxDepth {
			return nil, fmt.Errorf("core: decomposition exceeded max depth %d", maxDepth)
		}
		base := len(t.Nodes)
		results := make([]sepOut, len(level))
		pool.ForEach(len(level), func(i int) {
			results[i] = separate(level[i], base+i)
		})

		// Serial merge in level order: numbering, homes, metrics, trace.
		var next []item
		for i, it := range level {
			res := results[i]
			if res.err != nil {
				return nil, res.err
			}
			node := &Node{
				ID:           base + i,
				Parent:       it.parent,
				Depth:        it.depth,
				Sub:          it.sub,
				Sep:          res.sep,
				StrategyName: res.strategyName,
				SepNanos:     res.nanos,
			}
			t.Nodes = append(t.Nodes, node)
			if it.parent >= 0 {
				t.Nodes[it.parent].Children = append(t.Nodes[it.parent].Children, node.ID)
			}
			if it.depth > t.Depth {
				t.Depth = it.depth
			}
			j := it.sub.G
			sep := res.sep
			if k := sep.NumPaths(); k > t.MaxK {
				t.MaxK = k
			}
			t.TotalPaths += sep.NumPaths()

			locals := sep.Vertices()
			if m := opt.Metrics; m != nil {
				m.Counter("core.nodes").Inc()
				m.Counter("core.separator_paths").Add(int64(sep.NumPaths()))
				m.Counter("core.separator_vertices").Add(int64(len(locals)))
				m.Counter(fmt.Sprintf("core.level.%02d.separate_ns", it.depth)).Add(node.SepNanos)
				m.Counter(fmt.Sprintf("core.level.%02d.nodes", it.depth)).Inc()
				m.Histogram("core.subgraph_n").Observe(float64(j.N()))
				m.Histogram("core.separate_ns").Observe(float64(node.SepNanos))
				m.Gauge("core.max_k").SetMax(int64(sep.NumPaths()))
			}
			if id := opt.Trace.Add(it.parent, node.StrategyName); id >= 0 {
				opt.Trace.SetNanos(id, node.SepNanos)
				opt.Trace.SetAttr(id, "n", int64(j.N()))
				opt.Trace.SetAttr(id, "m", int64(j.M()))
				opt.Trace.SetAttr(id, "k", int64(sep.NumPaths()))
				opt.Trace.SetAttr(id, "phases", int64(sep.NumPhases()))
				opt.Trace.SetAttr(id, "sepverts", int64(len(locals)))
			}
			for _, lv := range locals {
				ov := it.sub.Orig[lv]
				if t.Home[ov] >= 0 {
					return nil, fmt.Errorf("core: vertex %d separated twice", ov)
				}
				t.Home[ov] = node.ID
			}
			next = append(next, res.children...)
		}
		level = next
	}
	for v, h := range t.Home {
		if h < 0 {
			return nil, fmt.Errorf("core: vertex %d never separated", v)
		}
	}
	if m := opt.Metrics; m != nil {
		m.Gauge("core.depth").Set(int64(t.Depth))
		m.Gauge("core.total_paths").Set(int64(t.TotalPaths))
	}
	return t, nil
}

// SepInRootIDs returns the node's separator with vertices translated to
// root-graph IDs.
func (n *Node) SepInRootIDs() *Separator {
	if n.Sep == nil {
		return nil
	}
	out := &Separator{Phases: make([]Phase, len(n.Sep.Phases))}
	for i, ph := range n.Sep.Phases {
		out.Phases[i].Paths = make([]Path, len(ph.Paths))
		for j, p := range ph.Paths {
			vs := make([]int, len(p.Vertices))
			for x, v := range p.Vertices {
				vs[x] = n.Sub.Orig[v]
			}
			out.Phases[i].Paths[j] = Path{Vertices: vs}
		}
	}
	return out
}

// Auto's limits. DMP embedding is O(n·m), so Auto embeds only nodes of
// at most planarizeLimit vertices; a center bag is used only when the
// heuristic decomposition is at most bagWidthLimit wide.
const (
	planarizeLimit = 4096
	bagWidthLimit  = 16
)

// Auto dispatches per node: trees get the centroid strategy; embedded
// graphs the planar strategy (falling back on failure); when no
// embedding is supplied but the graph passes the planar edge bound and
// has at most 4096 vertices, one is computed with the DMP algorithm;
// graphs whose min-degree decomposition is at most 16 wide get the
// center bag; everything else Greedy.
type Auto struct{}

// Name implements Strategy.
func (Auto) Name() string { return "auto" }

// Separate implements Strategy.
func (Auto) Separate(in Input) (*Separator, error) {
	if IsTree(in.G) {
		return TreeCentroid{}.Separate(in)
	}
	if in.Rot != nil {
		sep, err := (Planar{}).Separate(in)
		if err == nil {
			return sep, nil
		}
	}
	if in.Rot == nil && in.G.N() >= 3 && in.G.N() <= planarizeLimit && in.G.M() <= 3*in.G.N()-6 {
		if rot, err := embed.Planarize(in.G); err == nil {
			if sep, err := (Planar{}).Separate(Input{G: in.G, Rot: rot, Metrics: in.Metrics}); err == nil {
				return sep, nil
			}
		}
	}
	if sep, err := centerBag(in.G, treedecomp.MinDegree, bagWidthLimit); err == nil {
		return sep, nil
	}
	return Greedy{}.Separate(in)
}
