// Package oracle implements Theorem 2 of the paper: (1+ε)-approximate
// distance labels and the distance oracle they form, built on the k-path
// separator decomposition tree.
//
// For every node H of the decomposition tree, every phase i of its
// separator, and every path Q of phase i, a vertex w that survives phases
// j<i of H stores a small set of "portals" on Q: pairs (position along Q,
// exact distance from w in the residual graph J = H minus earlier phases).
// Since Q is a shortest path in J, the distance along Q between two of its
// vertices is the difference of their positions, so two labels suffice to
// upper-bound any shortest path that crosses Q. The first separator path
// crossed by a shortest u-v path certifies a (1+ε)-approximation.
//
// Two construction modes are provided:
//
//   - CoverExact: per-vertex ε-covers built from exact residual distances
//     (Thorup-style connections). Provably (1+ε); quadratic-ish
//     construction, intended for moderate n and for auditing.
//   - CoverPortal: a fixed number of evenly spaced portals per path plus
//     each vertex's closest attachment to the path. One Dijkstra per
//     portal; scalable. Stretch is measured rather than proven.
package oracle

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"pathsep/internal/core"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/par"
	"pathsep/internal/shortest"
)

// Mode selects the portal construction.
type Mode int

const (
	// CoverExact builds per-vertex ε-covers with exact residual distances;
	// the (1+ε) guarantee of Theorem 2 holds.
	CoverExact Mode = iota
	// CoverPortal places a fixed number of evenly spaced portals per path;
	// scalable, with measured stretch.
	CoverPortal
)

// String names the mode the way the CLI flags spell it.
func (m Mode) String() string {
	switch m {
	case CoverExact:
		return "exact"
	case CoverPortal:
		return "portal"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configures Build.
type Options struct {
	// Epsilon is the ε of the (1+ε) approximation; must be > 0.
	Epsilon float64
	// Mode selects the construction; CoverExact by default.
	Mode Mode
	// PortalsPerPath bounds the evenly spaced portals per path in
	// CoverPortal mode; 0 means ceil(4/ε).
	PortalsPerPath int
	// Metrics, when non-nil, receives build-time accounting under
	// "oracle.*", "shortest.*" and "build.*" and attaches query-time
	// latency and portal histograms to the oracle (equivalent to calling
	// SetMetrics).
	Metrics *obs.Registry
	// Workers bounds the worker pool that fans out the per-separator-path
	// (and, in CoverExact mode, per-vertex) Dijkstra tasks and then
	// assembles the labels, one vertex range per task. Every label replays
	// its records in task order, so the frozen image is bit-identical for
	// every worker count. 0 means runtime.GOMAXPROCS(0); 1 forces the
	// serial reference build.
	Workers int
}

// Key identifies a separator path: decomposition node, phase index within
// its separator, and path index within the phase.
type Key struct {
	Node  int32
	Phase int16
	Path  int16
}

func keyLess(a, b Key) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	return a.Path < b.Path
}

// Portal is one label entry: a position along the separator path (prefix
// weight from the path start) and the exact distance from the labeled
// vertex to that path vertex in the residual graph.
type Portal struct {
	Pos  float64
	Dist float64
}

// Entry is the portal list a vertex stores for one separator path,
// sorted by position. Hops, when present, is parallel to Portals:
// Hops[i] is the next vertex on a shortest walk from the labeled vertex
// toward the path vertex Portals[i] points at, or -1 when the labeled
// vertex is that path vertex itself. Build always fills it; Freeze
// rejects an entry whose Hops do not parallel its Portals.
type Entry struct {
	Key     Key
	Portals []Portal
	Hops    []int32
}

// Label is the complete distance label of one vertex: entries sorted by
// Key. Two labels alone answer an approximate distance query
// (the distributed distance-labeling scheme of Theorem 2).
type Label struct {
	Entries []Entry
}

// NumPortals returns the total portal count of the label (its size in
// words, up to constants).
func (l *Label) NumPortals() int {
	total := 0
	for _, e := range l.Entries {
		total += len(e.Portals)
	}
	return total
}

// sepPath is one separator path in root-graph vertex IDs with the
// prefix-weight position of every path vertex: the geometry needed to
// expand the portal-to-portal middle segment of a reported path.
type sepPath struct {
	key   Key
	verts []int32
	pos   []float64
}

// Oracle is the centralized distance oracle: all labels plus the
// decomposition tree metadata.
type Oracle struct {
	Labels []Label
	N      int
	Eps    float64
	mode   Mode
	// paths holds every separator path sorted by keyLess; QueryPath reads
	// the middle segment of a reported walk off it. pos aliases the
	// planning pass's prefix sums, so positions match portal Pos values
	// bit for bit.
	paths []sepPath
	// Query-time instruments, cached so the hot path costs one nil check
	// when metrics are disabled. Set via SetMetrics / Options.Metrics.
	qLatency *obs.Histogram
	qPortals *obs.Histogram
}

// SetMetrics attaches (or, with nil, detaches) query-time metrics:
// "oracle.query_ns" observes per-query latency and
// "oracle.query_portals" the number of portals compared per query.
func (o *Oracle) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		o.qLatency, o.qPortals = nil, nil
		return
	}
	o.qLatency = reg.Histogram("oracle.query_ns")
	o.qPortals = reg.Histogram("oracle.query_portals")
}

// rec is one deferred label entry produced by a parallel build task:
// add(v, k, p, h) to be replayed by stage 3. h is the hop vertex of the
// record (-1 when the record is a path vertex's self entry).
type rec struct {
	p Portal
	k Key
	v int32
	h int32
}

// vertexSplit cuts the root vertices 0..n-1 into contiguous ranges of
// width vertices, one pool task each: Build's stage-3 replay, Freeze's
// hop resolution and the walk relocation. The last ranges are empty when
// n is smaller than the range count.
type vertexSplit struct {
	n, ranges, width int
}

func newVertexSplit(n, ranges int) vertexSplit {
	return vertexSplit{n: n, ranges: ranges, width: max(1, (n+ranges-1)/ranges)}
}

// of returns the range that owns root vertex v.
func (s vertexSplit) of(v int32) int { return int(v) / s.width }

// bounds returns the vertices [lo, hi) of range r.
func (s vertexSplit) bounds(r int) (lo, hi int) {
	lo = min(r*s.width, s.n)
	return lo, min(lo+s.width, s.n)
}

// recBuf is one build task's output: recBuf[r] holds its records for the
// vertices of range r, in emission order.
type recBuf [][]rec

// sizedRecBuf allocates a task output in one block for a task that emits
// at most perVertex records for each residual vertex, whose root IDs are
// roots; appends never reallocate.
func sizedRecBuf(s vertexSplit, roots []int32, perVertex int) recBuf {
	counts := make([]int, s.ranges)
	for _, v := range roots {
		counts[s.of(v)]++
	}
	block := make([]rec, perVertex*len(roots))
	buf := make(recBuf, s.ranges)
	off := 0
	for r, c := range counts {
		buf[r] = block[off : off : off+c*perVertex]
		off += c * perVertex
	}
	return buf
}

// put appends x to the range that owns its vertex.
func (b recBuf) put(s vertexSplit, x rec) {
	r := s.of(x.v)
	b[r] = append(b[r], x)
}

// rangesPerWorker over-splits the vertex-range stages so that a worker
// that finishes its share early can take another range.
const rangesPerWorker = 4

// Build constructs the oracle from a decomposition tree.
//
// Construction is a three-stage pipeline. A serial planning pass walks the
// tree, builds every residual graph J and path geometry, emits the
// zero-distance self entries, and collects one closure per unit of
// Dijkstra work: per separator path in CoverPortal mode, per residual
// vertex in CoverExact mode. The tasks then fan out on a bounded worker
// pool (Options.Workers), each returning its label records grouped by the
// contiguous vertex range that owns them. Stage 3 runs on the same pool,
// one task per range: it replays that range's records in task order and
// normalizes the range's labels, so every label sees the same record
// sequence as a serial replay would. Labels are canonicalized by
// normalizeLabel, so the frozen image is bit-identical for every worker
// count — the differential tests compare Freeze().Encode() bytes of
// workers=1 and workers=N builds.
func Build(t *core.Tree, opt Options) (*Oracle, error) {
	if !(opt.Epsilon > 0) || math.IsInf(opt.Epsilon, 1) {
		return nil, fmt.Errorf("oracle: epsilon must be positive and finite, got %v", opt.Epsilon)
	}
	span := opt.Metrics.StartSpan("oracle.build")
	defer span.End()
	col := shortest.NewCollector(opt.Metrics)
	pool := par.New(opt.Workers, opt.Metrics)
	defer pool.Finish()
	o := &Oracle{
		Labels: make([]Label, t.G.N()),
		N:      t.G.N(),
		Eps:    opt.Epsilon,
		mode:   opt.Mode,
	}
	portalsPerPath := opt.PortalsPerPath
	if portalsPerPath <= 0 {
		portalsPerPath = int(math.Ceil(4 / opt.Epsilon))
	}
	split := newVertexSplit(o.N, rangesPerWorker*pool.Workers())

	add := func(rootV int32, k Key, p Portal, hop int32) {
		lbl := &o.Labels[rootV]
		if len(lbl.Entries) == 0 || lbl.Entries[len(lbl.Entries)-1].Key != k {
			lbl.Entries = append(lbl.Entries, Entry{Key: k})
		}
		e := &lbl.Entries[len(lbl.Entries)-1]
		e.Portals = append(e.Portals, p)
		e.Hops = append(e.Hops, hop)
	}

	// Stage 1: serial planning — residual graphs, path geometry, self
	// entries, and the task list.
	var tasks []func() recBuf
	for _, node := range t.Nodes {
		if node.Sep == nil {
			continue
		}
		local := node.Sub.G
		// toJ[lv] is the residual ID of local vertex lv in the current
		// phase, or -1 once an earlier phase removed it.
		toJ := make([]int, local.N())
		for phaseIdx, phase := range node.Sep.Phases {
			keep := make([]int, 0, local.N())
			for lv, jv := range toJ {
				if jv >= 0 {
					toJ[lv] = len(keep)
					keep = append(keep, lv)
				}
			}
			sub := graph.Induced(local, keep) // residual J
			j := sub.G
			// roots[jv] is the root-graph ID of residual vertex jv,
			// precomputed once and read by every task of the phase.
			roots := make([]int32, j.N())
			for jv := range roots {
				roots[jv] = int32(node.Sub.Orig[sub.Orig[jv]])
			}

			// Per-path J-local vertex lists and positions.
			infos := make([]pathInfo, len(phase.Paths))
			for pi, p := range phase.Paths {
				info := pathInfo{
					verts: make([]int, len(p.Vertices)),
					pos:   make([]float64, len(p.Vertices)),
				}
				for x, lv := range p.Vertices {
					if lv < 0 || lv >= len(toJ) || toJ[lv] < 0 {
						return nil, fmt.Errorf("oracle: node %d phase %d path %d: vertex removed earlier", node.ID, phaseIdx, pi)
					}
					jv := toJ[lv]
					info.verts[x] = jv
					if x > 0 {
						w, ok := j.EdgeWeight(info.verts[x-1], jv)
						if !ok {
							return nil, fmt.Errorf("oracle: node %d phase %d path %d: non-edge on path", node.ID, phaseIdx, pi)
						}
						info.pos[x] = info.pos[x-1] + w
					}
				}
				infos[pi] = info
				k := Key{Node: int32(node.ID), Phase: int16(phaseIdx), Path: int16(pi)}
				// Self entries: every path vertex is its own zero-distance
				// portal.
				sp := sepPath{key: k, verts: make([]int32, len(info.verts)), pos: info.pos}
				for x, jv := range info.verts {
					sp.verts[x] = roots[jv]
					add(roots[jv], k, Portal{Pos: info.pos[x], Dist: 0}, -1)
				}
				o.paths = append(o.paths, sp)
			}

			switch opt.Mode {
			case CoverPortal:
				for pi := range infos {
					info := infos[pi]
					k := Key{Node: int32(node.ID), Phase: int16(phaseIdx), Path: int16(pi)}
					tasks = append(tasks, func() recBuf {
						// Evenly spaced portals (by weight), endpoints
						// included, plus the closest attachment: at most
						// one record per residual vertex each.
						sel := selectEvenPortals(info.pos, portalsPerPath)
						out := sizedRecBuf(split, roots, len(sel)+1)
						// Closest-attachment entries via one multi-source run.
						trQ := shortest.MultiSource(j, info.verts)
						col.Record(trQ)
						posOf := make([]float64, j.N())
						for x, jv := range info.verts {
							posOf[jv] = info.pos[x]
						}
						for w := 0; w < j.N(); w++ {
							src := trQ.Source[w]
							if src < 0 || core.IsZeroDist(trQ.Dist[w]) {
								continue
							}
							// The hop is w's parent in the multi-source
							// forest: it shares w's source, so it carries a
							// record at the same (key, position) and the hop
							// chain telescopes down to the source itself.
							out.put(split, rec{Portal{Pos: posOf[src], Dist: trQ.Dist[w]}, k, roots[w], roots[trQ.Parent[w]]})
						}
						for _, x := range sel {
							tr := shortest.Dijkstra(j, info.verts[x])
							col.Record(tr)
							for w := 0; w < j.N(); w++ {
								if math.IsInf(tr.Dist[w], 1) || core.IsZeroDist(tr.Dist[w]) {
									continue
								}
								out.put(split, rec{Portal{Pos: info.pos[x], Dist: tr.Dist[w]}, k, roots[w], roots[tr.Parent[w]]})
							}
						}
						return out
					})
				}
			default: // CoverExact
				node := node
				for w := 0; w < j.N(); w++ {
					w := w
					tasks = append(tasks, func() recBuf {
						out := make(recBuf, split.ranges)
						tr := shortest.Dijkstra(j, w)
						col.Record(tr)
						for pi, info := range infos {
							k := Key{Node: int32(node.ID), Phase: int16(phaseIdx), Path: int16(pi)}
							for _, x := range epsCover(tr.Dist, info, opt.Epsilon) {
								if info.verts[x] == w {
									continue // self entry already present
								}
								path := tr.PathTo(info.verts[x])
								out.put(split, rec{Portal{Pos: info.pos[x], Dist: tr.Dist[info.verts[x]]}, k, roots[w], roots[path[1]]})
								// Closure records: the ε-cover places no
								// records at the witness path's interior
								// vertices, so emit one per interior vertex
								// (its exact tail distance to the anchor,
								// accumulated backwards) to keep every hop
								// chain landing on a record until it reaches
								// the anchor's self entry. Subpaths of a
								// shortest path are shortest, so each Dist is
								// a true distance and query stretch can only
								// improve.
								tail := 0.0
								for pidx := len(path) - 2; pidx >= 1; pidx-- {
									ew, _ := j.EdgeWeight(path[pidx], path[pidx+1])
									tail = ew + tail
									out.put(split, rec{Portal{Pos: info.pos[x], Dist: tail}, k, roots[path[pidx]], roots[path[pidx+1]]})
								}
							}
						}
						return out
					})
				}
			}

			for _, p := range phase.Paths {
				for _, lv := range p.Vertices {
					toJ[lv] = -1
				}
			}
		}
	}

	// Stage 2: fan out the Dijkstra tasks; each writes only its own slot.
	outs := make([]recBuf, len(tasks))
	pool.ForEach(len(tasks), func(i int) { outs[i] = tasks[i]() })

	// Stage 3: one task per vertex range replays the range's records in
	// task order, then normalizes the range's labels. Ranges own disjoint
	// labels, and each record was routed to its range once, in stage 2.
	pool.ForEach(split.ranges, func(r int) {
		for _, out := range outs {
			for _, x := range out[r] {
				add(x.v, x.k, x.p, x.h)
			}
		}
		lo, hi := split.bounds(r)
		for v := lo; v < hi; v++ {
			normalizeLabel(&o.Labels[v])
		}
	})
	sort.Slice(o.paths, func(i, j int) bool { return keyLess(o.paths[i].key, o.paths[j].key) })
	if m := opt.Metrics; m != nil {
		labelHist := m.Histogram("oracle.label_portals")
		for v := range o.Labels {
			labelHist.Observe(float64(o.Labels[v].NumPortals()))
		}
		m.Gauge("oracle.labels").Set(int64(o.N))
		m.Gauge("oracle.portal_words").Set(int64(o.SpacePortals()))
		m.Gauge("oracle.max_label_portals").Set(int64(o.MaxLabelPortals()))
		o.SetMetrics(m)
	}
	return o, nil
}

// selectEvenPortals picks at most p indices into pos, spaced evenly by
// weight, always including the first and last.
func selectEvenPortals(pos []float64, p int) []int {
	n := len(pos)
	if n == 0 {
		return nil
	}
	if p < 2 {
		p = 2
	}
	if n <= p {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	total := pos[n-1]
	out := []int{0}
	for i := 1; i < p-1; i++ {
		target := total * float64(i) / float64(p-1)
		x := sort.SearchFloat64s(pos, target)
		if x >= n {
			x = n - 1
		}
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	if out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

// pathInfo is a separator path in residual-local IDs with prefix-weight
// positions along it.
type pathInfo struct {
	verts []int
	pos   []float64
}

// epsCover greedily selects indices x into the path such that every path
// vertex y reachable from w satisfies, for some selected x:
// dist[x] + |pos[x]-pos[y]| <= (1+eps) * dist[y]. A vertex certifies its
// own coverage when selected, so the invariant holds by construction.
func epsCover(dist []float64, info pathInfo, eps float64) []int {
	var chosen []int
	for y := range info.verts {
		dy := dist[info.verts[y]]
		if math.IsInf(dy, 1) {
			continue
		}
		covered := false
		for _, x := range chosen {
			dx := dist[info.verts[x]]
			if dx+math.Abs(info.pos[x]-info.pos[y]) <= (1+eps)*dy {
				covered = true
				break
			}
		}
		if !covered {
			chosen = append(chosen, y)
		}
	}
	return chosen
}

// portalHop pairs a portal with its hop so the two co-sort and co-dedup.
type portalHop struct {
	p Portal
	h int32
}

// normalizeLabel sorts entries by key, sorts portals by position, and
// deduplicates portals at equal positions keeping the smaller distance.
// Hops travel with their portals (ties broken by the smaller hop so the
// result is schedule-independent).
func normalizeLabel(l *Label) {
	slices.SortFunc(l.Entries, func(a, b Entry) int { return keyCmp(a.Key, b.Key) })
	// Merge duplicate keys (entries were appended per construction stage).
	out := l.Entries[:0]
	for _, e := range l.Entries {
		if len(out) > 0 && out[len(out)-1].Key == e.Key {
			out[len(out)-1].Portals = append(out[len(out)-1].Portals, e.Portals...)
			out[len(out)-1].Hops = append(out[len(out)-1].Hops, e.Hops...)
			continue
		}
		out = append(out, e)
	}
	l.Entries = out
	for i := range l.Entries {
		e := &l.Entries[i]
		ph := make([]portalHop, len(e.Portals))
		for x := range ph {
			ph[x] = portalHop{p: e.Portals[x], h: e.Hops[x]}
		}
		slices.SortFunc(ph, func(a, b portalHop) int {
			if !core.SameDist(a.p.Pos, b.p.Pos) {
				return floatCmp(a.p.Pos, b.p.Pos)
			}
			if !core.SameDist(a.p.Dist, b.p.Dist) {
				return floatCmp(a.p.Dist, b.p.Dist)
			}
			return cmp.Compare(a.h, b.h)
		})
		ps, hs := e.Portals[:0], e.Hops[:0]
		for _, x := range ph {
			if len(ps) > 0 && core.SameDist(ps[len(ps)-1].Pos, x.p.Pos) {
				continue // keep the smaller distance (sorted first)
			}
			ps = append(ps, x.p)
			hs = append(hs, x.h)
		}
		e.Portals, e.Hops = ps, hs
	}
}

// keyCmp is keyLess as a three-way comparison.
func keyCmp(a, b Key) int {
	return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Phase, b.Phase), cmp.Compare(a.Path, b.Path))
}

// floatCmp orders two distances its caller has found not SameDist: -1 when
// a < b, else +1.
func floatCmp(a, b float64) int {
	if a < b {
		return -1
	}
	return 1
}

// Query returns a (1+ε)-approximate distance between u and v, or +Inf if
// they are disconnected. Out-of-range or negative vertex IDs also report
// +Inf ("not locatable") rather than panicking — the oracle is the public
// query surface, so malformed input degrades gracefully. With metrics
// attached (SetMetrics) it also observes the query latency and the number
// of portals compared; the disabled path is a single bounds-and-nil check
// and allocation-free.
func (o *Oracle) Query(u, v int) float64 {
	if u < 0 || v < 0 || u >= len(o.Labels) || v >= len(o.Labels) {
		return math.Inf(1)
	}
	if o.qLatency == nil {
		if u == v {
			return 0
		}
		est, _ := queryLabels(&o.Labels[u], &o.Labels[v])
		return est
	}
	start := time.Now()
	// Self queries are answered on a fast path but still observed (zero
	// portals compared), so QPS and latency numbers reflect all traffic.
	if u == v {
		o.qLatency.Observe(float64(time.Since(start)))
		o.qPortals.Observe(0)
		return 0
	}
	est, portals := queryLabels(&o.Labels[u], &o.Labels[v])
	o.qLatency.Observe(float64(time.Since(start)))
	o.qPortals.Observe(float64(portals))
	return est
}

// QueryLabels answers an approximate distance query from two labels alone
// (the distributed scheme): the minimum over shared separator paths of the
// best portal-pair estimate. Nil labels report +Inf.
func QueryLabels(lu, lv *Label) float64 {
	if lu == nil || lv == nil {
		return math.Inf(1)
	}
	est, _ := queryLabels(lu, lv)
	return est
}

// queryLabels is QueryLabels plus the number of portals examined (the
// query's work, reported by the oracle.query_portals histogram).
//
//pathsep:hotpath
func queryLabels(lu, lv *Label) (float64, int) {
	best := math.Inf(1)
	portals := 0
	i, j := 0, 0
	for i < len(lu.Entries) && j < len(lv.Entries) {
		a, b := lu.Entries[i], lv.Entries[j]
		switch {
		case a.Key == b.Key:
			portals += len(a.Portals) + len(b.Portals)
			if est := pairMin(a.Portals, b.Portals); est < best {
				best = est
			}
			i++
			j++
		case keyLess(a.Key, b.Key):
			i++
		default:
			j++
		}
	}
	return best, portals
}

// pairMin computes min over portals p in a, q in b of
// p.Dist + |p.Pos - q.Pos| + q.Dist in linear time via a merged sweep
// (both lists are sorted by position).
//
//pathsep:hotpath
func pairMin(a, b []Portal) float64 {
	best := math.Inf(1)
	// Sweep left-to-right: for each element of one list, combine with the
	// best (Dist - Pos) seen so far on the other list; then symmetric.
	minA := math.Inf(1) // min over seen a of (Dist - Pos)
	minB := math.Inf(1)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Pos <= b[j].Pos) {
			if est := a[i].Dist + a[i].Pos + minB; est < best {
				best = est
			}
			if v := a[i].Dist - a[i].Pos; v < minA {
				minA = v
			}
			i++
		} else {
			if est := b[j].Dist + b[j].Pos + minA; est < best {
				best = est
			}
			if v := b[j].Dist - b[j].Pos; v < minB {
				minB = v
			}
			j++
		}
	}
	return best
}

// SpacePortals returns the total number of portal entries across all
// labels — the oracle's space in words, up to constants.
func (o *Oracle) SpacePortals() int {
	total := 0
	for i := range o.Labels {
		total += o.Labels[i].NumPortals()
	}
	return total
}

// MaxLabelPortals returns the largest label size in portals.
func (o *Oracle) MaxLabelPortals() int {
	best := 0
	for i := range o.Labels {
		if p := o.Labels[i].NumPortals(); p > best {
			best = p
		}
	}
	return best
}

// AuditResult summarizes a stretch audit against exact distances.
type AuditResult struct {
	Pairs      int
	MaxStretch float64
	// MeanStretch averages over audited (connected, distinct) pairs.
	MeanStretch float64
	// Underestimates counts pairs where the estimate fell below the true
	// distance — always zero for a correct oracle.
	Underestimates int
}

// Audit compares Query against fresh Dijkstra runs over sampled pairs
// drawn by next() (e.g. a closure over math/rand). It is the library form
// of the test-suite stretch audit, reusable by experiments and CLIs. The
// per-pair Dijkstras fan out across runtime.GOMAXPROCS(0) workers; use
// AuditWorkers to pin the width.
func (o *Oracle) Audit(g *graph.Graph, pairs int, next func(n int) int) AuditResult {
	return o.AuditWorkers(g, pairs, next, 0)
}

// AuditWorkers is Audit with an explicit worker-pool width (0 means
// runtime.GOMAXPROCS(0), 1 is fully serial). All pairs are drawn from
// next() serially up front and the ratios are reduced in draw order, so
// the result is bit-identical for every worker count.
func (o *Oracle) AuditWorkers(g *graph.Graph, pairs int, next func(n int) int, workers int) AuditResult {
	type slot struct {
		ratio float64
		under bool
		ok    bool
	}
	type pair struct{ u, v int }
	ps := make([]pair, pairs)
	for i := range ps {
		ps[i] = pair{next(o.N), next(o.N)}
	}
	slots := make([]slot, pairs)

	pool := par.New(workers, nil)
	pool.ForEach(pairs, func(i int) {
		u, v := ps[i].u, ps[i].v
		if u == v {
			return
		}
		d := shortest.Dijkstra(g, u).Dist[v]
		if math.IsInf(d, 1) || core.IsZeroDist(d) {
			return
		}
		est := o.Query(u, v)
		slots[i] = slot{ratio: est / d, under: est < d-1e-9, ok: true}
	})
	pool.Finish()

	res := AuditResult{}
	sum := 0.0
	for _, s := range slots {
		if !s.ok {
			continue
		}
		if s.under {
			res.Underestimates++
		}
		if s.ratio > res.MaxStretch {
			res.MaxStretch = s.ratio
		}
		sum += s.ratio
		res.Pairs++
	}
	if res.Pairs > 0 {
		res.MeanStretch = sum / float64(res.Pairs)
	}
	return res
}
