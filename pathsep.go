// Package pathsep is a Go implementation of "Object Location Using Path
// Separators" (Abraham & Gavoille, PODC 2006): k-path separators
// (Definition 1) for trees, bounded-treewidth, planar-embedded and
// arbitrary weighted graphs, and the object-location structures built on
// them — (1+ε)-approximate distance labels and oracles (Theorem 2),
// labeled compact routing (abstract item 3), small-world augmentation
// with poly-logarithmic greedy routing (Theorem 3), and (k,α)-doubling
// separators for 3-D meshes (Section 5.3, Theorem 8).
//
// Quick start:
//
//	b := pathsep.NewBuilder(4)
//	b.AddEdge(0, 1, 1.0)
//	b.AddEdge(1, 2, 2.0)
//	b.AddEdge(2, 3, 1.5)
//	g := b.Build()
//	dec, _ := pathsep.Decompose(g, pathsep.Options{})
//	orc, _ := pathsep.NewOracle(dec, pathsep.OracleOptions{Epsilon: 0.1})
//	dist := orc.Query(0, 3) // within (1+0.1) of the true distance
//
// The heavy lifting lives in the internal packages; this package is the
// stable facade. Internal subsystem layout:
//
//	internal/graph      graphs, generators, components
//	internal/embed      planar embeddings (rotation systems)
//	internal/core       k-path separators + decomposition tree
//	internal/oracle     Theorem 2 distance labels and oracle
//	internal/routing    compact routing scheme
//	internal/smallworld Section 4 augmentation + greedy routing
//	internal/doubling   Section 5.3 doubling separators
//	internal/baseline   exact / ALT / Thorup–Zwick comparison oracles
//	internal/hardness   Section 5 lower-bound instances and verifiers
package pathsep

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"

	"pathsep/internal/core"
	"pathsep/internal/doubling"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
	"pathsep/internal/par"
	"pathsep/internal/routing"
	"pathsep/internal/smallworld"
)

// Metrics is the observability registry: atomic counters, gauges and
// fixed-bucket histograms that the decomposition, oracle, routing and
// small-world layers feed when one is attached via the option structs.
// A nil *Metrics disables all instrumentation at zero cost (no
// allocations on any hot path). Snapshot() / WriteJSON serialize it.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.New() }

// MetricsSnapshot is a point-in-time JSON-serializable copy of a Metrics
// registry.
type MetricsSnapshot = obs.Snapshot

// DecompositionTrace records the decomposition recursion as a tree of
// labeled, timed nodes (one per decomposition node); render it with
// WriteIndented.
type DecompositionTrace = obs.Trace

// NewDecompositionTrace returns an empty trace.
func NewDecompositionTrace() *DecompositionTrace { return obs.NewTrace() }

// ServeDebug binds addr and serves the observability endpoints for m on
// a private mux in the background: /metrics (Prometheus text format),
// /debug/vars (expvar-style JSON with the snapshot under "pathsep") and
// /debug/pprof. It returns once the listener is bound; shut it down with
// the returned server's Shutdown or Close, then wait on the done channel
// for the serve goroutine to exit.
func ServeDebug(addr string, m *Metrics) (*http.Server, <-chan struct{}, error) {
	return obs.Serve(addr, m)
}

// WriteMetricsPrometheus writes m in the Prometheus text exposition
// format (version 0.0.4), sorted by metric name.
func WriteMetricsPrometheus(w io.Writer, m *Metrics) error { return m.WritePrometheus(w) }

// SlowQuerySampler retains the N slowest query exemplars (u, v, dist,
// ns); attach one to a FlatOracle with SetSlowSampler. The nil sampler
// discards everything at zero cost.
type SlowQuerySampler = obs.SlowQuerySampler

// QueryExemplar is one retained slow-query sample.
type QueryExemplar = obs.QueryExemplar

// NewSlowQuerySampler returns a sampler retaining the n slowest queries.
func NewSlowQuerySampler(n int) *SlowQuerySampler { return obs.NewSlowQuerySampler(n) }

// Graph is a weighted undirected graph; build one with NewBuilder or a
// generator.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// WeightFn assigns generator edge weights.
type WeightFn = graph.WeightFn

// Embedding is a planar combinatorial embedding (rotation system).
type Embedding = embed.Rotation

// Decomposition is the recursive k-path separator decomposition tree.
type Decomposition = core.Tree

// Separator is a k-path separator (Definition 1 of the paper).
type Separator = core.Separator

// Oracle is the Theorem 2 (1+ε)-approximate distance oracle. NewOracle
// writes its labels straight into the serving rows: Query runs the same
// engine as a FlatOracle, and Label(v) assembles vertex v's distance
// label from its rows. Every portal row is linked to the row its hop
// names as the row is built, and Freeze() derives the walk layout from
// those links in place — one pool task per separator-path key, each
// writing its chains into a region a counting pass fixed — and returns
// the FlatOracle to serve, persist and report witness paths from.
type Oracle = oracle.Oracle

// Label is a vertex's distance label (the distributed form of the
// oracle); Oracle.Label(v) returns vertex v's.
type Label = oracle.Label

// FlatOracle is the read-only serving form of an Oracle: the oracle's
// rows — a struct-of-arrays layout with one contiguous portal pool (kept
// as the sweep lane), CSR entry offsets and interned separator-path keys
// — plus its path records. Oracle.Freeze() builds one and shares the
// oracle's rows rather than copying them; queries are goroutine-safe,
// allocation-free and bit-identical to Oracle.Query.
// FlatOracle.QueryBatch answers a slice of pairs into a caller-owned
// buffer, fanning out over the worker pool. FlatOracle.QueryPath /
// QueryPathBatch report witness paths into caller buffers
// (allocation-free once the buffers are warm): every image carries its
// path records. Encode writes the one image format, and DecodeFlatOracle
// rejects any other version; a decode derives the walk layout as Freeze
// does, and FlatOracle.DeriveNs reports how long that took.
type FlatOracle = oracle.Flat

// QueryPair is one (U, V) query of a FlatOracle batch.
type QueryPair = oracle.Pair

// Router is the compact routing scheme.
type Router = routing.Router

// Augmented is a graph plus one long-range contact per vertex (Section 4).
type Augmented = smallworld.Augmented

// NewBuilder returns a Builder pre-sized for n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Strategy selects how separators are computed per decomposition node.
type Strategy int

const (
	// StrategyAuto dispatches per node: trees use the centroid, embedded
	// graphs the planar fundamental-cycle strategy, narrow graphs the
	// center bag, everything else the greedy shortest-path-tree strategy.
	StrategyAuto Strategy = iota
	// StrategyTreeCentroid separates each node by its centroid, a
	// one-vertex path (trees are 1-path separable). It accepts a forest,
	// decomposing each tree on its own, and refuses a graph with a cycle.
	// An oracle over it answers exact tree distances; build that oracle
	// with OraclePortals, which writes the same rows as OracleExactCover
	// much faster.
	StrategyTreeCentroid
	// StrategyCenterBag uses the center bag of a heuristic tree
	// decomposition (strong (width+1)-path separators, Theorem 7).
	StrategyCenterBag
	// StrategyPlanar uses Lipton–Tarjan fundamental cycles of a
	// shortest-path tree; requires an Embedding (Theorem 6(1)).
	StrategyPlanar
	// StrategyGreedy removes shortest-path-tree centroid paths from the
	// largest remaining component; works on any graph, k is measured.
	StrategyGreedy
)

// Options configures Decompose.
type Options struct {
	// Strategy defaults to StrategyAuto.
	Strategy Strategy
	// Embedding optionally provides a planar embedding of the graph.
	Embedding *Embedding
	// Certify re-verifies every separator against Definition 1 (slow).
	Certify bool
	// Metrics, when non-nil, receives per-level timings, separator path
	// counts and Dijkstra work accounting ("core.*", "shortest.*").
	Metrics *Metrics
	// Trace, when non-nil, receives the decomposition trace tree.
	Trace *DecompositionTrace
	// Workers bounds the construction worker pool: 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial reference build. Every
	// worker count produces a bit-identical decomposition.
	Workers int
}

func (o Options) strategy() (core.Strategy, error) {
	switch o.Strategy {
	case StrategyAuto:
		return core.Auto{}, nil
	case StrategyTreeCentroid:
		return core.TreeCentroid{}, nil
	case StrategyCenterBag:
		return core.CenterBag{}, nil
	case StrategyPlanar:
		return core.Planar{}, nil
	case StrategyGreedy:
		return core.Greedy{}, nil
	default:
		return nil, fmt.Errorf("pathsep: unknown strategy %d", int(o.Strategy))
	}
}

// Decompose builds the k-path separator decomposition tree of g.
func Decompose(g *Graph, opt Options) (*Decomposition, error) {
	strat, err := opt.strategy()
	if err != nil {
		return nil, err
	}
	return core.Decompose(g, core.Options{
		Strategy: strat,
		Rot:      opt.Embedding,
		Certify:  opt.Certify,
		Metrics:  opt.Metrics,
		Trace:    opt.Trace,
		Workers:  opt.Workers,
	})
}

// OracleMode selects the portal construction of the distance oracle.
type OracleMode int

const (
	// OracleExactCover uses per-vertex ε-covers with exact residual
	// distances: the Theorem 2 (1+ε) guarantee holds. Construction is
	// quadratic-ish; best below ~10k vertices.
	OracleExactCover OracleMode = iota
	// OraclePortals places a fixed number of evenly spaced portals per
	// separator path: scalable, stretch measured (≤3 guaranteed by the
	// closest-attachment entries).
	OraclePortals
)

// OracleOptions configures NewOracle.
type OracleOptions struct {
	// Epsilon is the ε of (1+ε); must be positive.
	Epsilon float64
	// Mode defaults to OracleExactCover.
	Mode OracleMode
	// PortalsPerPath bounds portals per path in OraclePortals mode
	// (0 = ceil(4/ε)).
	PortalsPerPath int
	// Metrics, when non-nil, receives build accounting ("oracle.*",
	// "shortest.*") and attaches query latency/portal histograms.
	Metrics *Metrics
	// Workers bounds the construction worker pool: 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial reference build. Every
	// worker count produces a bit-identical frozen image.
	Workers int
}

// NewOracle builds the Theorem 2 distance oracle over a decomposition.
func NewOracle(d *Decomposition, opt OracleOptions) (*Oracle, error) {
	mode := oracle.CoverExact
	if opt.Mode == OraclePortals {
		mode = oracle.CoverPortal
	}
	return oracle.Build(d, oracle.Options{
		Epsilon:        opt.Epsilon,
		Mode:           mode,
		PortalsPerPath: opt.PortalsPerPath,
		Metrics:        opt.Metrics,
		Workers:        opt.Workers,
	})
}

// QueryLabels answers an approximate distance query from two labels alone
// (the distributed distance-labeling scheme of Theorem 2).
func QueryLabels(a, b *Label) float64 { return oracle.QueryLabels(a, b) }

// DecodeFlatOracle parses a flat oracle produced by FlatOracle.Encode into
// a FlatOracle that owns its memory: buf is read once, validated as it is
// read, and not retained, so the caller may reuse it as soon as the call
// returns.
func DecodeFlatOracle(buf []byte) (*FlatOracle, error) { return oracle.DecodeFlat(buf) }

// RouterOptions configures NewRouter.
type RouterOptions struct {
	// Epsilon sizes the portal grid (default 0.25).
	Epsilon float64
	// PortalsPerPath overrides the portal count.
	PortalsPerPath int
	// Metrics, when non-nil, receives build accounting ("routing.*",
	// "shortest.*") and attaches hop and header-byte histograms.
	Metrics *Metrics
}

// NewRouter builds the compact routing scheme over a decomposition.
func NewRouter(d *Decomposition, opt RouterOptions) (*Router, error) {
	return routing.Build(d, routing.Options{
		Epsilon:        opt.Epsilon,
		PortalsPerPath: opt.PortalsPerPath,
		Metrics:        opt.Metrics,
	})
}

// SmallWorldModel selects the long-range contact distribution.
type SmallWorldModel = smallworld.Model

const (
	// SmallWorldPathSeparator is the paper's Theorem 3 distribution.
	SmallWorldPathSeparator = smallworld.ModelPathSeparator
	// SmallWorldClosestSeparator is the Note 2 variant.
	SmallWorldClosestSeparator = smallworld.ModelClosestSeparator
	// SmallWorldUniform links to uniform random vertices (baseline).
	SmallWorldUniform = smallworld.ModelUniform
	// SmallWorldNone adds no long links (baseline).
	SmallWorldNone = smallworld.ModelNone
)

// Augment draws one long-range contact per vertex from the model's
// distribution over the decomposition (Definition 3/4 of the paper).
func Augment(d *Decomposition, model SmallWorldModel, rng *rand.Rand) (*Augmented, error) {
	return smallworld.Augment(d, model, rng)
}

// SplitRand splits a parent generator into n independent child generators
// by drawing n seeds serially from the parent. Hand child i to subproblem
// i before fanning work out across goroutines: results then depend only
// on the parent seed, never on worker count or scheduling.
func SplitRand(parent *rand.Rand, n int) []*rand.Rand { return par.SplitRand(parent, n) }

// GreedyRouteStats runs greedy-routing trials over an augmented graph and
// reports delivery and hop statistics (Theorem 3's measured quantity).
func GreedyRouteStats(a *Augmented, trials int, rng *rand.Rand) smallworld.Stats {
	return smallworld.Experiment(a, trials, rng, nil)
}

// GreedyRouteStatsObserved is GreedyRouteStats with per-trial hop counts
// recorded into m's "smallworld.greedy_hops" histogram (nil m behaves
// like GreedyRouteStats).
func GreedyRouteStatsObserved(a *Augmented, trials int, rng *rand.Rand, m *Metrics) smallworld.Stats {
	return smallworld.ExperimentObserved(a, trials, rng, nil, m)
}

// Generators re-exported for convenience.

// NewGrid returns the rows x cols grid with its planar embedding.
func NewGrid(rows, cols int, w WeightFn, rng *rand.Rand) *Embedding {
	return embed.Grid(rows, cols, w, rng)
}

// NewApollonian returns a random stacked triangulation with embedding.
func NewApollonian(n int, w WeightFn, rng *rand.Rand) *Embedding {
	return embed.Apollonian(n, w, rng)
}

// NewRandomTree returns a uniform random recursive tree.
func NewRandomTree(n int, w WeightFn, rng *rand.Rand) *Graph {
	return graph.RandomTree(n, w, rng)
}

// NewKTree returns a random k-tree (treewidth exactly k).
func NewKTree(n, k int, w WeightFn, rng *rand.Rand) *Graph {
	return graph.KTree(n, k, w, rng)
}

// NewMesh3D returns the a x b x c mesh (the Section 5.3 example).
func NewMesh3D(a, b, c int, w WeightFn, rng *rand.Rand) *Graph {
	return graph.Mesh3D(a, b, c, w, rng)
}

// UnitWeights assigns weight 1 to every edge.
func UnitWeights() WeightFn { return graph.UnitWeights() }

// UniformWeights assigns independent uniform weights in [lo, hi).
func UniformWeights(lo, hi float64) WeightFn { return graph.UniformWeights(lo, hi) }

// CertifySeparator verifies a separator against Definition 1.
func CertifySeparator(g *Graph, s *Separator) error { return core.Certify(g, s) }

// Planarize computes a planar embedding of g with the DMP algorithm, or
// an error wrapping embed.ErrNonPlanar. Decompose calls this
// automatically for planar-looking graphs; use it directly to pre-compute
// and reuse embeddings.
func Planarize(g *Graph) (*Embedding, error) { return embed.Planarize(g) }

// WeightedSeparator computes a phased path separator halving the total
// VERTEX WEIGHT instead of the vertex count (the strengthening noted
// after Theorem 1). weights may be nil for the unweighted behaviour.
func WeightedSeparator(g *Graph, weights []float64) (*Separator, error) {
	return core.WeightedGreedy(g, weights, 0)
}

// CertifyWeightedSeparator verifies a separator against the
// vertex-weighted Definition 1 variant.
func CertifyWeightedSeparator(g *Graph, weights []float64, s *Separator) error {
	return core.CertifyWeighted(g, weights, s)
}

// MeshDecomposition is the Section 5.3 doubling-separator decomposition
// of a 3-D mesh.
type MeshDecomposition = doubling.Tree

// MeshOracle is the Theorem 8 distance oracle over a MeshDecomposition.
type MeshOracle = doubling.Oracle

// DecomposeMesh3D builds the recursive middle-plane decomposition of the
// a x b x c unit mesh — the paper's example of a graph with no bounded
// k-path separator that is nonetheless (1,2)-doubling separable.
func DecomposeMesh3D(a, b, c int) (*MeshDecomposition, error) {
	return doubling.DecomposeMesh3D(a, b, c)
}

// NewMeshOracle builds the Theorem 8 (1+ε)-approximate distance oracle.
func NewMeshOracle(d *MeshDecomposition, eps float64) (*MeshOracle, error) {
	return doubling.BuildOracle(d, eps)
}

// AugmentMesh draws Note 3 long-range contacts (ring landmarks on the
// separator planes) for greedy routing on the mesh.
func AugmentMesh(d *MeshDecomposition, rng *rand.Rand) *Augmented {
	return doubling.Augment(d, rng)
}

// Float comparison helpers (re-exported from internal/core). Distances
// are float64 sums accumulated along different computation paths, so raw
// == / != on them is forbidden throughout the library (enforced by the
// floatcmp analyzer; see `make lint`). Use these named comparisons
// instead.

// SameDist reports exact equality of two distances; use only for values
// with the same provenance (one copied from the other).
func SameDist(a, b float64) bool { return core.SameDist(a, b) }

// IsZeroDist reports whether a distance is exactly zero (the same-vertex
// / degenerate sentinel).
func IsZeroDist(d float64) bool { return core.IsZeroDist(d) }

// ApproxDistEq reports equality up to relative tolerance eps.
func ApproxDistEq(a, b, eps float64) bool { return core.ApproxDistEq(a, b, eps) }

// WithinFactor reports a <= factor*b, the one-sided (1+ε)-style audit
// bound.
func WithinFactor(a, b, factor float64) bool { return core.WithinFactor(a, b, factor) }
