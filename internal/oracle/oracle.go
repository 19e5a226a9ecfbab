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
	// writes the serving rows, one vertex range per task. Every vertex's
	// records are sorted under a total order, so the frozen image is
	// bit-identical for every worker count. 0 means
	// runtime.GOMAXPROCS(0); 1 forces the serial build.
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
// sorted by position. Hops is parallel to Portals: Hops[i] is the next
// vertex on a shortest walk from the labeled vertex toward the path
// vertex Portals[i] points at, or -1 when the labeled vertex is that path
// vertex itself. Oracle.Label fills both from the build rows.
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

// Oracle is the centralized distance oracle: the n vertex labels of
// Theorem 2, held as the serving rows Build writes them in. rows is a
// Flat without its path records: the interned keys, the CSR entry and
// portal tables, the sweep lane and the separator-path geometry, so
// Query runs the flat engine on them. hopVert[i] is the hop vertex of
// pool record i (-1 at a path vertex's own record); Freeze resolves the
// hop vertices to pool indices and derives the walk, sharing the rows
// rather than copying them. The rows are immutable once Build returns.
type Oracle struct {
	N       int
	Eps     float64
	rows    Flat
	hopVert []int32
}

// SetMetrics attaches (or, with nil, detaches) query-time metrics:
// "oracle.query_ns" observes per-query latency and
// "oracle.query_portals" the number of portals compared per query.
func (o *Oracle) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		o.rows.qLatency, o.rows.qPortals = nil, nil
		return
	}
	o.rows.qLatency = reg.Histogram("oracle.query_ns")
	o.rows.qPortals = reg.Histogram("oracle.query_portals")
}

// rec is one label record produced by a build task: vertex v stores
// portal p on the separator path with key ID k, with hop vertex h (-1
// when the record is a path vertex's self record) and depth d, the
// number of hops from v to that path vertex along the run that emitted
// the record.
type rec struct {
	p Portal
	v int32
	k int32
	h int32
	d int32
}

// vertexSplit cuts the root vertices 0..n-1 into contiguous ranges of
// width vertices, one pool task each: Build's row assembly, Freeze's hop
// resolution and the walk relocation. The last ranges are empty when n
// is smaller than the range count.
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

// records is what Build's first two stages hand to the third: the
// interned keys with their separator-path geometry, and every label
// record, grouped by the task that emitted it and the vertex range that
// owns it. The first output holds the path vertices' self records.
type records struct {
	n     int
	split vertexSplit
	geo   tables // keys, pathOff, pathVert, pathPos
	outs  []recBuf
}

// Build constructs the oracle from a decomposition tree.
//
// Construction is a three-stage pipeline. A serial planning pass walks the
// tree, builds every residual graph J and path geometry, and collects one
// closure per unit of Dijkstra work: per separator path in CoverPortal
// mode, per residual vertex in CoverExact mode. It then sorts the
// separator paths by key, which interns the keys (a key's ID is its
// rank), and emits the zero-distance self records. The tasks fan out on a
// bounded worker pool (Options.Workers), each returning its records
// grouped by the contiguous vertex range that owns them. Stage 3 writes
// the serving rows on the same pool, one task per range (see assemble):
// every vertex's records are sorted under a total order, so the rows are
// bit-identical for every worker count and task order — the differential
// tests compare Freeze().Encode() bytes of workers=1 and workers=N builds.
func Build(t *core.Tree, opt Options) (*Oracle, error) {
	if !(opt.Epsilon > 0) || math.IsInf(opt.Epsilon, 1) {
		return nil, fmt.Errorf("oracle: epsilon must be positive and finite, got %v", opt.Epsilon)
	}
	span := opt.Metrics.StartSpan("oracle.build")
	defer span.End()
	pool := par.New(opt.Workers, opt.Metrics)
	defer pool.Finish()
	c, err := collect(t, opt, pool)
	if err != nil {
		return nil, err
	}
	o, err := c.assemble(opt, pool)
	if err != nil {
		return nil, err
	}
	if m := opt.Metrics; m != nil {
		labelHist := m.Histogram("oracle.label_portals")
		for v := 0; v < o.N; v++ {
			labelHist.Observe(float64(o.rows.labelPortals(v)))
		}
		m.Gauge("oracle.labels").Set(int64(o.N))
		m.Gauge("oracle.portal_words").Set(int64(o.SpacePortals()))
		m.Gauge("oracle.max_label_portals").Set(int64(o.MaxLabelPortals()))
		o.SetMetrics(m)
	}
	return o, nil
}

// collect runs Build's first two stages: the serial planning pass, then
// the Dijkstra tasks on pool.
func collect(t *core.Tree, opt Options, pool *par.Pool) (*records, error) {
	col := shortest.NewCollector(opt.Metrics)
	portalsPerPath := opt.PortalsPerPath
	if portalsPerPath <= 0 {
		portalsPerPath = int(math.Ceil(4 / opt.Epsilon))
	}
	n := t.G.N()
	split := newVertexSplit(n, rangesPerWorker*pool.Workers())

	// Stage 1: serial planning — residual graphs, path geometry and the
	// task list. Paths are numbered in emission order; rank maps that
	// number to the path's key ID once every path is known, and the tasks
	// read it when they run.
	var paths []sepPath
	var rank []int32
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
			first := len(paths)
			infos := make([]pathInfo, len(phase.Paths))
			for pi, p := range phase.Paths {
				if len(p.Vertices) == 0 {
					return nil, fmt.Errorf("oracle: node %d phase %d path %d: empty path", node.ID, phaseIdx, pi)
				}
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
				sp := sepPath{
					key:   Key{Node: int32(node.ID), Phase: int16(phaseIdx), Path: int16(pi)},
					verts: make([]int32, len(info.verts)),
					pos:   info.pos,
				}
				for x, jv := range info.verts {
					sp.verts[x] = roots[jv]
				}
				paths = append(paths, sp)
			}

			switch opt.Mode {
			case CoverPortal:
				for pi := range infos {
					info := infos[pi]
					at := first + pi
					tasks = append(tasks, func() recBuf {
						k := rank[at]
						// Evenly spaced portals (by weight), endpoints
						// included, plus the closest attachment: at most
						// one record per residual vertex each.
						sel := selectEvenPortals(info.pos, portalsPerPath)
						out := sizedRecBuf(split, roots, len(sel)+1)
						// Every run of the task reuses one workspace; each
						// run's tree is read before the next run starts.
						var ws shortest.Workspace
						// Closest-attachment entries via one multi-source run.
						trQ := ws.Run(j, info.verts, nil)
						col.Record(trQ)
						posOf := make([]float64, j.N())
						for x, jv := range info.verts {
							posOf[jv] = info.pos[x]
						}
						for w := 0; w < j.N(); w++ {
							// Path vertices have their self records; every
							// other reached vertex gets one, at distance 0
							// too, since a record may hop through it.
							src := trQ.Source[w]
							if src < 0 || src == w {
								continue
							}
							// The hop is w's parent in the multi-source
							// forest: it shares w's source, so it carries a
							// record at the same (key, position) and the hop
							// chain telescopes down to the source itself.
							out.put(split, rec{Portal{Pos: posOf[src], Dist: trQ.Dist[w]}, roots[w], k, roots[trQ.Parent[w]], int32(trQ.Hops[w])})
						}
						for _, x := range sel {
							tr := ws.Run(j, info.verts[x:x+1], nil)
							col.Record(tr)
							for w := 0; w < j.N(); w++ {
								if math.IsInf(tr.Dist[w], 1) || w == info.verts[x] {
									continue
								}
								out.put(split, rec{Portal{Pos: info.pos[x], Dist: tr.Dist[w]}, roots[w], k, roots[tr.Parent[w]], int32(tr.Hops[w])})
							}
						}
						return out
					})
				}
			default: // CoverExact
				for w := 0; w < j.N(); w++ {
					w := w
					tasks = append(tasks, func() recBuf {
						out := make(recBuf, split.ranges)
						tr := shortest.Dijkstra(j, w)
						col.Record(tr)
						for pi, info := range infos {
							k := rank[first+pi]
							for _, x := range epsCover(tr.Dist, info, opt.Epsilon) {
								if info.verts[x] == w {
									continue // self record already present
								}
								// w's record, then closure records: the
								// ε-cover places no records at the witness
								// path's interior vertices, so emit one per
								// interior vertex too (its exact tail distance
								// to the anchor) to keep every hop chain
								// landing on a record until it reaches the
								// anchor's self record. Subpaths of a shortest
								// path are shortest, so each Dist is a true
								// distance and query stretch can only improve.
								// Every Dist of the run, w's included, is
								// summed backwards from the anchor, so none is
								// below the next one's: summed forward from w,
								// w's could round below its hop's, and a chain
								// of kept rows could then close on itself.
								path := tr.PathTo(info.verts[x])
								tail := 0.0
								for pidx := len(path) - 2; pidx >= 0; pidx-- {
									ew, _ := j.EdgeWeight(path[pidx], path[pidx+1])
									tail = ew + tail
									out.put(split, rec{Portal{Pos: info.pos[x], Dist: tail}, roots[path[pidx]], k, roots[path[pidx+1]], int32(len(path) - 1 - pidx)})
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

	// Intern the keys: a path's key ID is its rank under keyCmp, and the
	// geometry is laid out in key order. Then the self records: every
	// path vertex is its own zero-distance portal.
	order := make([]int32, len(paths))
	nv := 0
	for i := range order {
		order[i] = int32(i)
		nv += len(paths[i].verts)
	}
	slices.SortFunc(order, func(a, b int32) int { return keyCmp(paths[a].key, paths[b].key) })
	rank = make([]int32, len(paths))
	c := &records{
		n:     n,
		split: split,
		geo: tables{
			keys:     make([]Key, len(paths)),
			pathOff:  make([]int32, len(paths)+1),
			pathVert: make([]int32, 0, nv),
			pathPos:  make([]float64, 0, nv),
		},
		outs: make([]recBuf, len(tasks)+1),
	}
	for id, i := range order {
		rank[i] = int32(id)
		sp := &paths[i]
		c.geo.keys[id] = sp.key
		c.geo.pathVert = append(c.geo.pathVert, sp.verts...)
		c.geo.pathPos = append(c.geo.pathPos, sp.pos...)
		c.geo.pathOff[id+1] = int32(len(c.geo.pathVert))
	}
	self := sizedRecBuf(split, c.geo.pathVert, 1)
	for k := range c.geo.keys {
		for x := c.geo.pathOff[k]; x < c.geo.pathOff[k+1]; x++ {
			self.put(split, rec{Portal{Pos: c.geo.pathPos[x]}, c.geo.pathVert[x], int32(k), -1, 0})
		}
	}
	c.outs[0] = self

	// Stage 2: fan out the Dijkstra tasks; each writes only its own slot.
	pool.ForEach(len(tasks), func(i int) { c.outs[1+i] = tasks[i]() })
	return c, nil
}

// labelRow is one label record in stage 3, under its vertex. rowTag
// holds the words of a row the lane does not: its key ID and hop vertex.
// depth is the record's hop count to its path vertex (rec.d), which only
// the sort reads.
type (
	labelRow struct {
		pos, dist float64
		depth     int32
		rowTag
	}
	rowTag struct{ key, hop int32 }
)

// rowCmp orders a vertex's rows by key ID, position, distance, depth and
// hop vertex. Two rows it ties are identical, so the order is total and
// a sort yields the same rows whatever order the records arrived in.
func rowCmp(a, b labelRow) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	if !core.SameDist(a.pos, b.pos) {
		return floatCmp(a.pos, b.pos)
	}
	if !core.SameDist(a.dist, b.dist) {
		return floatCmp(a.dist, b.dist)
	}
	return cmp.Or(cmp.Compare(a.depth, b.depth), cmp.Compare(a.hop, b.hop))
}

// floatCmp orders two distances its caller has found not SameDist: -1 when
// a < b, else +1.
func floatCmp(a, b float64) int {
	if a < b {
		return -1
	}
	return 1
}

// rangeRows is one vertex range's rows after stage 3's sort, vertex
// after vertex: vertex lo+i owns rows ends[i]..ends[i+1] of the parallel
// pos, dist and tags. entries counts the label entries the rows form.
type rangeRows struct {
	pos, dist []float64
	tags      []rowTag
	ends      []int
	entries   int
}

// sortRange gathers range r's records from every task output, sorts each
// vertex's rows with rowCmp and drops repeated positions on a key,
// keeping the first — the smallest distance, then the smallest depth,
// then the smallest hop. The depth breaks the distance ties zero-weight
// edges make between rows of different runs (shortest-path trees, or
// exact mode's witness paths): a kept row's hop vertex keeps a row no
// greater than its own row from the same run, which is one hop shallower
// and no farther, so (distance, depth) decreases along every hop chain
// and the chain reaches a path vertex's self record. Breaking those ties
// by the hop vertex alone can link two kept rows to each other, and
// neither then reaches the path.
func (c *records) sortRange(r int) rangeRows {
	lo, hi := c.split.bounds(r)
	nv := hi - lo
	// Count each vertex's records, then scatter them into its group.
	ends := make([]int, nv+1)
	for _, out := range c.outs {
		for _, x := range out[r] {
			ends[int(x.v)-lo+1]++
		}
	}
	for i := 0; i < nv; i++ {
		ends[i+1] += ends[i]
	}
	rows := make([]labelRow, ends[nv])
	next := slices.Clone(ends[:nv])
	for _, out := range c.outs {
		for _, x := range out[r] {
			i := int(x.v) - lo
			rows[next[i]] = labelRow{x.p.Pos, x.p.Dist, x.d, rowTag{x.k, x.h}}
			next[i]++
		}
	}
	// Sort and deduplicate group by group, compacting in place: the write
	// cursor never passes the row being read.
	kept, entries, start := 0, 0, 0
	for i := 0; i < nv; i++ {
		end := ends[i+1]
		group := rows[start:end]
		// pdqsort, not a stable sort: portal-mode groups arrive nearly
		// sorted, where a stable sort is faster, but exact-mode groups
		// interleave keys, where it is slower (DESIGN §7).
		slices.SortFunc(group, rowCmp)
		first := kept
		for _, x := range group {
			if kept > first && x.key == rows[kept-1].key {
				if core.SameDist(x.pos, rows[kept-1].pos) {
					continue
				}
			} else {
				entries++
			}
			rows[kept] = x
			kept++
		}
		ends[i+1] = kept
		start = end
	}
	rr := rangeRows{pos: make([]float64, kept), dist: make([]float64, kept), tags: make([]rowTag, kept), ends: ends, entries: entries}
	for x, w := range rows[:kept] {
		rr.pos[x], rr.dist[x], rr.tags[x] = w.pos, w.dist, w.rowTag
	}
	return rr
}

// assemble is Build's stage 3: it writes the serving rows. One pool task
// per vertex range sorts and deduplicates the range's rows (sortRange);
// one prefix sum over the ranges then gives every range its entry and
// pool offsets, and a second task per range fills its share of
// entryOff, entryKey and portalOff, the sweep lane (buildLane) and one
// hop vertex per row. The range boundaries of portalOff are written
// before that pass, so no range reads an offset another one writes.
func (c *records) assemble(opt Options, pool *par.Pool) (*Oracle, error) {
	split := c.split
	parts := make([]rangeRows, split.ranges)
	pool.ForEach(split.ranges, func(r int) { parts[r] = c.sortRange(r) })

	entBase := make([]int, split.ranges+1)
	portBase := make([]int, split.ranges+1)
	for r := range parts {
		entBase[r+1] = entBase[r] + parts[r].entries
		portBase[r+1] = portBase[r] + len(parts[r].tags)
	}
	numEntries, numPortals := entBase[split.ranges], portBase[split.ranges]
	if numEntries+1 > math.MaxInt32 || numPortals > math.MaxInt32 {
		return nil, fmt.Errorf("oracle: build: %d entries / %d portals exceed the int32 CSR index space", numEntries, numPortals)
	}
	o := &Oracle{
		N:   c.n,
		Eps: opt.Epsilon,
		rows: Flat{
			n:      c.n,
			eps:    opt.Epsilon,
			mode:   opt.Mode,
			tables: c.geo,
			lane:   alignedPortals(numPortals),
		},
		hopVert: make([]int32, numPortals),
	}
	rows := &o.rows
	rows.entryOff = make([]int32, c.n+1)
	rows.entryKey = make([]int32, numEntries)
	rows.portalOff = make([]int32, numEntries+1)
	for r := range parts {
		rows.portalOff[entBase[r]] = int32(portBase[r])
	}
	rows.portalOff[numEntries] = int32(numPortals)

	errs := make([]error, split.ranges)
	pool.ForEach(split.ranges, func(r int) {
		rr := &parts[r]
		lo, hi := split.bounds(r)
		e, pb := entBase[r], portBase[r]
		for i := 0; i < hi-lo; i++ {
			for x := rr.ends[i]; x < rr.ends[i+1]; x++ {
				tg := rr.tags[x]
				if x == rr.ends[i] || tg.key != rr.tags[x-1].key {
					if e > entBase[r] {
						rows.portalOff[e] = int32(pb + x)
					}
					rows.entryKey[e] = tg.key
					e++
				}
				o.hopVert[pb+x] = tg.hop
			}
			rows.entryOff[lo+i+1] = int32(e)
		}
		if err := rows.buildLane(entBase[r], e, rr.pos, rr.dist, anchorRuns{}); err != nil {
			errs[r] = fmt.Errorf("oracle: build: %w", err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
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

// keyCmp is keyLess as a three-way comparison.
func keyCmp(a, b Key) int {
	return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Phase, b.Phase), cmp.Compare(a.Path, b.Path))
}

// Query returns a (1+ε)-approximate distance between u and v, or +Inf if
// they are disconnected. It runs the flat engine (Flat.Query) on the
// build rows, so its answers are bit-identical to the frozen image's.
// Out-of-range or negative vertex IDs also report +Inf ("not
// locatable") rather than panicking. With metrics attached (SetMetrics)
// it also observes the query latency and the number of portals
// compared; the disabled path is a single bounds-and-nil check and
// allocation-free.
func (o *Oracle) Query(u, v int) float64 { return o.rows.Query(u, v) }

// Label returns vertex v's distance label, assembled from its rows, or
// nil when v is out of range. Two labels alone answer a query
// (QueryLabels): the distributed form of the oracle.
func (o *Oracle) Label(v int) *Label {
	if v < 0 || v >= o.N {
		return nil
	}
	r := &o.rows
	lo, hi := int(r.entryOff[v]), int(r.entryOff[v+1])
	l := &Label{Entries: make([]Entry, hi-lo)}
	for i := range l.Entries {
		e := lo + i
		plo, phi := int(r.portalOff[e]), int(r.portalOff[e+1])
		l.Entries[i] = Entry{
			Key:     r.keys[r.entryKey[e]],
			Portals: slices.Clone(r.lane[plo:phi]),
			Hops:    slices.Clone(o.hopVert[plo:phi]),
		}
	}
	return l
}

// QueryLabels answers an approximate distance query from two labels alone
// (the distributed scheme): the minimum over shared separator paths of the
// best portal-pair estimate. Nil labels report +Inf.
func QueryLabels(lu, lv *Label) float64 {
	if lu == nil || lv == nil {
		return math.Inf(1)
	}
	return queryLabels(lu, lv)
}

// queryLabels is the label walk behind QueryLabels: a merge-join of the
// two labels' entries, pairMin on every shared key.
//
//pathsep:hotpath
func queryLabels(lu, lv *Label) float64 {
	best := math.Inf(1)
	i, j := 0, 0
	for i < len(lu.Entries) && j < len(lv.Entries) {
		a, b := lu.Entries[i], lv.Entries[j]
		switch {
		case a.Key == b.Key:
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
	return best
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
func (o *Oracle) SpacePortals() int { return o.rows.NumPortals() }

// MaxLabelPortals returns the largest label size in portals.
func (o *Oracle) MaxLabelPortals() int {
	best := 0
	for v := 0; v < o.N; v++ {
		best = max(best, o.rows.labelPortals(v))
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
		// The tolerance is relative: float rounding in an estimate grows
		// with the weights, and an absolute one counts it as a shortfall
		// once the distances are large.
		est := o.Query(u, v)
		slots[i] = slot{ratio: est / d, under: est < d && !core.ApproxDistEq(est, d, 1e-9), ok: true}
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
