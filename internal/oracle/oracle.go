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
// Query runs the flat engine on them. links[i] is the pool index of the
// record pool record i hops to, or -1 at a path vertex's own record:
// Build resolves every hop once, when the record is born, so Freeze only
// derives the walk from the links in place, sharing the rows rather than
// copying them. The rows are immutable once Build returns.
type Oracle struct {
	N     int
	Eps   float64
	rows  Flat
	links []int32
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

// rec is one label record produced by a build task: vertex v stores a
// portal at distance dist on the separator path with key ID k, anchored
// at path vertex at (an index into the path geometry, whose path_pos
// entry is the portal's position), with hop vertex h (-1 when the record
// is a path vertex's self record) and depth d, the number of hops from v
// to that path vertex along the run that emitted the record. up names
// the hop vertex's record, which the same run emitted at the same key
// and position: its index in the task output's buffer for the hop's
// range, or, at depth 1, where the hop is the run's source, the index of
// the source's self record in the first output's (selfAt). It is -1 at a
// self record.
type rec struct {
	dist       float64
	v, k, h, d int32
	at, up     int32
}

// vertexSplit cuts the root vertices 0..n-1 into contiguous ranges of
// width vertices, one pool task each: Build's row assembly and the
// decode's vertex-range passes (eachRange). The last ranges are empty
// when n is smaller than the range count.
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

// put appends x to the range that owns its vertex and returns its index
// there.
func (b recBuf) put(s vertexSplit, x rec) int32 {
	r := s.of(x.v)
	b[r] = append(b[r], x)
	return int32(len(b[r]) - 1)
}

// rangesPerWorker over-splits the vertex-range stages so that a worker
// that finishes its share early can take another range.
const rangesPerWorker = 4

// records is what Build's first two stages hand to the third: the
// interned keys with their separator-path geometry, and every label
// record, grouped by the task that emitted it and the vertex range that
// owns it. The first output holds the path vertices' self records. Every
// other record names its hop's record by where it sits (rec.up), so stage
// 3 resolves each hop once, without a search.
type records struct {
	n     int
	split vertexSplit
	geo   tables // keys, pathOff, pathVert, pathPos
	outs  []recBuf
}

// gatherBase returns, for task output t and range r, the gather index of
// outs[t][r]'s first record at [t*ranges+r]: stage 3 gathers a range's
// records output by output, in task order, and numbers them as it reads
// them. The first output's records come first, so a self record's
// gather index is its index in that output.
func (c *records) gatherBase() []int32 {
	ranges := c.split.ranges
	base := make([]int32, len(c.outs)*ranges)
	for t := 1; t < len(c.outs); t++ {
		for r := 0; r < ranges; r++ {
			base[t*ranges+r] = base[(t-1)*ranges+r] + int32(len(c.outs[t-1][r]))
		}
	}
	return base
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
// the serving rows on the same pool, one task per range, keeping only the
// rows that can give a query its minimum and those their hop chains pass
// through (see assemble): every vertex's records are sorted under a total
// order and the kept set does not depend on the schedule, so the rows are
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
	// number to the path's key ID once every path is known, pathOff a key
	// to its first vertex in the geometry and selfAt a path vertex there
	// to the index of its self record, and the tasks read them when they
	// run.
	var paths []sepPath
	var rank, pathOff, selfAt []int32
	var tasks []func() recBuf
	for _, node := range t.Nodes {
		if node.Sep == nil {
			continue
		}
		err := core.Residuals(node.Sub.G, node.Sep, func(phaseIdx int, sub *graph.Sub, infos []core.ResidualPath) error {
			j := sub.G
			// roots[jv] is the root-graph ID of residual vertex jv,
			// precomputed once and read by every task of the phase.
			roots := make([]int32, j.N())
			for jv := range roots {
				roots[jv] = int32(node.Sub.Orig[sub.Orig[jv]])
			}
			first := len(paths)
			for pi, info := range infos {
				sp := sepPath{
					key:   Key{Node: int32(node.ID), Phase: int16(phaseIdx), Path: int16(pi)},
					verts: make([]int32, len(info.Verts)),
					pos:   info.Pos,
				}
				for x, jv := range info.Verts {
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
						base := pathOff[k]
						// Evenly spaced portals (by weight), endpoints
						// included, plus the closest attachment: at most
						// one record per residual vertex each.
						sel := selectEvenPortals(info.Pos, portalsPerPath)
						out := sizedRecBuf(split, roots, len(sel)+1)
						// Every run of the task reuses one workspace; each
						// run's tree is read before the next run starts.
						var ws shortest.Workspace
						// Each run emits one record for every vertex it
						// reaches but its sources, in residual vertex order:
						// w's at its distance, with w's parent in the run's
						// forest as its hop. The parent shares w's source,
						// so it carries a record of the run at the same
						// (key, position), and the hop chain telescopes down
						// to the source's self record. A first pass gives
						// every record its index in its range's buffer in
						// up, which holds the self records' at the sources,
						// so each record names its hop's as it is born.
						// anchor holds each path vertex's index in the
						// geometry.
						up, anchor, rangeOf := make([]int32, j.N()), make([]int32, j.N()), make([]int32, j.N())
						for jv, v := range roots {
							rangeOf[jv] = int32(split.of(v))
						}
						for x, jv := range info.Verts {
							anchor[jv] = base + int32(x)
							up[jv] = selfAt[anchor[jv]]
						}
						next := make([]int32, split.ranges)
						emit := func(tr *shortest.Tree) {
							for w, src := range tr.Source {
								if src >= 0 && src != w {
									r := rangeOf[w]
									up[w] = int32(len(out[r])) + next[r]
									next[r]++
								}
							}
							clear(next)
							for w, src := range tr.Source {
								if src >= 0 && src != w {
									p, r := tr.Parent[w], rangeOf[w]
									out[r] = append(out[r], rec{tr.Dist[w], roots[w], k, roots[p], int32(tr.Hops[w]), anchor[src], up[p]})
								}
							}
						}
						// Closest-attachment entries via one multi-source
						// run: path vertices have their self records, and
						// every other reached vertex gets one, at distance 0
						// too, since a record may hop through it.
						trQ := ws.Run(j, info.Verts, nil)
						col.Record(trQ)
						emit(trQ)
						for _, x := range sel {
							s := info.Verts[x]
							tr := ws.Run(j, info.Verts[x:x+1], nil)
							col.Record(tr)
							up[s] = selfAt[anchor[s]]
							emit(tr)
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
							base := pathOff[k]
							for _, x := range epsCover(tr.Dist, info, opt.Epsilon) {
								if info.Verts[x] == w {
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
								// Each record comes right after its hop's, so
								// up is the index put just returned, the
								// anchor's self record's at first.
								path := tr.PathTo(info.Verts[x])
								tail := 0.0
								a := base + int32(x)
								up := selfAt[a]
								for pidx := len(path) - 2; pidx >= 0; pidx-- {
									ew, _ := j.EdgeWeight(path[pidx], path[pidx+1])
									tail = ew + tail
									up = out.put(split, rec{tail, roots[path[pidx]], k, roots[path[pidx+1]], int32(len(path) - 1 - pidx), a, up})
								}
							}
						}
						return out
					})
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("oracle: node %d: %w", node.ID, err)
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
	pathOff = c.geo.pathOff
	selfAt = make([]int32, nv)
	self := sizedRecBuf(split, c.geo.pathVert, 1)
	for k := range c.geo.keys {
		for x := pathOff[k]; x < pathOff[k+1]; x++ {
			selfAt[x] = self.put(split, rec{0, c.geo.pathVert[x], int32(k), -1, 0, x, -1})
		}
	}
	c.outs[0] = self

	// Stage 2: fan out the Dijkstra tasks; each writes only its own slot.
	pool.ForEach(len(tasks), func(i int) { c.outs[1+i] = tasks[i]() })
	return c, nil
}

// labelRow is one label record in stage 3, under its vertex: its
// position and distance, which go to the lane, its key ID and hop vertex,
// and its hop count to its path vertex (rec.d), which only the sort
// reads: after it, dominate sets the depth of a row the build drops to
// dropped, and prune resets it on the rows it keeps back. link fills the
// word the other fields leave as padding. Through the sort it holds the
// record's gather index, after the dedupe the gather index of its hop's
// record, and from the link round on the index of the row the hop names
// among the rows of the hop vertex's range, or -1 at an anchor
// (linkRange).
type labelRow struct {
	pos, dist             float64
	depth, key, hop, link int32
}

// dropped is the depth that marks a row the build drops.
const dropped = -1

// rowLess orders a vertex's rows by key ID, position, distance, depth and
// hop vertex. Two rows it ties are identical but for their links, which
// resolve to the same row (see sortRange), so the order is total and a
// sort yields the same rows whatever order the records arrived in. It
// inlines, so sortRows compares without a call.
func rowLess(a, b *labelRow) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if !core.SameDist(a.pos, b.pos) {
		return a.pos < b.pos
	}
	if !core.SameDist(a.dist, b.dist) {
		return a.dist < b.dist
	}
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	return a.hop < b.hop
}

// rowCmp is rowLess as a three-way comparison, for pdqsort.
func rowCmp(a, b labelRow) int {
	switch {
	case rowLess(&a, &b):
		return -1
	case rowLess(&b, &a):
		return 1
	}
	return 0
}

// sortRows sorts one vertex's rows under rowLess. Portal-mode groups
// arrive nearly sorted: by key, and within a key one run's record, the
// closest attachment's, ahead of the rest in ascending position. An
// insertion sort finishes them in a few moves. An exact-mode vertex also
// gets closure records from the tasks of other residual vertices, so its
// keys arrive interleaved; once the moves exceed twice the group's
// length, the group goes to pdqsort instead (DESIGN §7).
func sortRows(rows []labelRow) {
	moves := 0
	for i := 1; i < len(rows); i++ {
		if !rowLess(&rows[i], &rows[i-1]) {
			continue
		}
		x := rows[i]
		j := i - 1
		for j > 0 && rowLess(&x, &rows[j-1]) {
			j--
		}
		if moves += i - j; moves > 2*len(rows) {
			slices.SortFunc(rows, rowCmp)
			return
		}
		copy(rows[j+1:i+1], rows[j:i])
		rows[j] = x
	}
}

// rangeRows is one vertex range's rows after stage 3's sort, vertex
// after vertex: vertex lo+i owns rows[ends[i]:ends[i+1]]. entries counts
// the label entries the rows form, and seeds lists the kept rows whose
// hop names a dropped row, where the hop closure starts (linkRange). fwd
// holds one word per gathered record, in gather order: the gather index
// of its hop's record while the range gathers, then, once the sort has
// deduplicated the rows, the row that stands for it — its own, or the
// duplicate kept in its place — and, from compact on, that row's index
// among the kept rows.
type rangeRows struct {
	rows    []labelRow
	ends    []int
	entries int
	seeds   []int32
	fwd     []int32
}

// sortRange gathers range r's records from every task output, sorts each
// vertex's rows under rowLess and drops repeated positions on a key,
// keeping the first — the smallest distance, then the smallest depth,
// then the smallest hop. The depth breaks the distance ties zero-weight
// edges make between rows of different runs (shortest-path trees, or
// exact mode's witness paths): a kept row's hop vertex keeps a row no
// greater than its own row from the same run, which is one hop shallower
// and no farther, so (distance, depth) decreases along every hop chain
// and the chain reaches a path vertex's self record. Breaking those ties
// by the hop vertex alone can link two kept rows to each other, and
// neither then reaches the path. Each entry's dominated rows are then
// marked (see dominate). base is gatherBase's table: with it the gather
// turns each record's up into its hop's gather index in the hop's range.
func (c *records) sortRange(r int, base []int32) rangeRows {
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
	fwd := make([]int32, ends[nv])
	next := slices.Clone(ends[:nv])
	// The rows are written field by field: a row built whole and then
	// copied is read back in 16-byte halves over its narrower stores,
	// which no store forwards, and every record then stalls.
	g := int32(0)
	for t, out := range c.outs {
		recs := out[r]
		for j := range recs {
			x := &recs[j]
			i := int(x.v) - lo
			w := &rows[next[i]]
			next[i]++
			w.pos, w.dist = c.geo.pathPos[x.at], x.dist
			w.depth, w.key, w.hop, w.link = x.d, x.k, x.h, g
			// A depth-1 record's hop is its run's source, whose self record
			// the first output holds; any other's is in its own output.
			switch {
			case x.d == 1:
				fwd[g] = x.up
			case x.d > 1:
				fwd[g] = base[t*c.split.ranges+c.split.of(x.h)] + x.up
			}
			g++
		}
	}
	// Sort and deduplicate group by group, compacting in place: the write
	// cursor never passes the row being read. A row takes its hop's gather
	// index out of fwd and leaves there the row that stands for it.
	kept, entries, start := 0, 0, 0
	for i := 0; i < nv; i++ {
		end := ends[i+1]
		group := rows[start:end]
		sortRows(group)
		first, entry := kept, kept
		for _, x := range group {
			g := x.link
			if kept > first && x.key == rows[kept-1].key {
				if core.SameDist(x.pos, rows[kept-1].pos) {
					fwd[g] = int32(kept - 1)
					continue
				}
			} else {
				dominate(rows[entry:kept])
				entry = kept
				entries++
			}
			h := fwd[g]
			fwd[g] = int32(kept)
			rows[kept] = x
			rows[kept].link = h
			kept++
		}
		dominate(rows[entry:kept])
		ends[i+1] = kept
		start = end
	}
	return rangeRows{rows: rows[:kept], ends: ends, entries: entries, fwd: fwd}
}

// dominate marks dropped every row of one entry, sorted by position, that
// another row of the entry dominates: row a is dominated when some other
// row b has b.dist + |a.pos − b.pos| < a.dist, or = with b first. For any
// partner record p, a.dist + |a.pos − p.pos| ≥ b.dist + |b.pos − p.pos|
// by the triangle inequality on path positions, so a never lowers a
// query's minimum in exact arithmetic, and every path vertex a covers
// within 1+ε, b covers too. An anchor's distance is 0, and the first of
// the smallest distances has no row below it, so neither is ever marked
// and no entry empties.
func dominate(entry []labelRow) {
	for i := range entry {
		a := &entry[i]
		for j := range entry {
			if b := &entry[j]; j != i && dominates(a.pos, a.dist, b.pos, b.dist, j < i) {
				a.depth = dropped
				break
			}
		}
	}
}

// dominates reports whether the record (bPos, bDist) of an entry
// dominates its record (aPos, aDist), first tells whether b comes first.
func dominates(aPos, aDist, bPos, bDist float64, first bool) bool {
	d := bDist + math.Abs(aPos-bPos)
	return d < aDist || first && d <= aDist
}

// linkRange sets the link of every row of range r, kept and dropped, to
// the index of the row that stands for its hop's record among the rows
// of the hop vertex's range — the row at the hop vertex's key and
// position — or -1 at an anchor, and lists the kept rows whose link
// names a dropped row in the range's seeds. It reads other ranges' fwd
// maps and rows, all sorted and marked, and writes only range r's links
// and seeds.
func (c *records) linkRange(parts []rangeRows, r int) {
	rr := &parts[r]
	for x := range rr.rows {
		w := &rr.rows[x]
		if w.hop < 0 {
			w.link = -1
			continue
		}
		hp := &parts[c.split.of(w.hop)]
		if w.link = hp.fwd[w.link]; w.depth != dropped && hp.rows[w.link].depth == dropped {
			rr.seeds = append(rr.seeds, int32(x))
		}
	}
}

// prune is the hop closure, one serial pass from every range's seeds: a
// seed's chain keeps every dropped row it passes through, until it
// reaches a row that stays, so a kept row's chain still reaches its
// anchor. The kept set is the same whatever order the seeds are visited
// in.
func (c *records) prune(parts []rangeRows) {
	for r := range parts {
		for _, x := range parts[r].seeds {
			w := &parts[r].rows[x]
			for h, t := w.hop, w.link; t >= 0; {
				y := &parts[c.split.of(h)].rows[t]
				if y.depth != dropped {
					break
				}
				y.depth = 0
				h, t = y.hop, y.link
			}
		}
	}
}

// compact moves the range's kept rows to its front, vertex by vertex, in
// place, and leaves in fwd each kept row's new index at its old one. No
// entry empties, so the entry count stands.
func (rr *rangeRows) compact() {
	kept, start := 0, 0
	for i := 1; i < len(rr.ends); i++ {
		for x := start; x < rr.ends[i]; x++ {
			if w := rr.rows[x]; w.depth != dropped {
				rr.fwd[x] = int32(kept)
				rr.rows[kept] = w
				kept++
			}
		}
		start, rr.ends[i] = rr.ends[i], kept
	}
	rr.rows = rr.rows[:kept]
}

// assemble is Build's stage 3: it writes the serving rows. One pool task
// per vertex range sorts and deduplicates the range's rows and marks the
// dominated ones (sortRange), a second links every row to the row its
// hop's record stands at (linkRange), the serial hop closure keeps back
// the dominated rows a kept row's chain passes through (prune), and a
// third task per range compacts the range's kept rows in place. One
// prefix sum over the ranges then gives every range its entry and pool
// offsets, and a last task per range fills its share of entryOff,
// entryKey and portalOff, the sweep lane (buildLane) and every kept
// row's link, remapped to the pool index of the row it names, straight
// from the kept rows. The range boundaries of portalOff are written
// before that pass, so no range reads an offset another one writes.
// Every round reads other ranges' words only where an earlier round
// wrote them.
func (c *records) assemble(opt Options, pool *par.Pool) (*Oracle, error) {
	split := c.split
	parts := make([]rangeRows, split.ranges)
	base := c.gatherBase()
	pool.ForEach(split.ranges, func(r int) { parts[r] = c.sortRange(r, base) })
	pool.ForEach(split.ranges, func(r int) { c.linkRange(parts, r) })
	c.prune(parts)
	pool.ForEach(split.ranges, func(r int) { parts[r].compact() })

	entBase := make([]int, split.ranges+1)
	portBase := make([]int, split.ranges+1)
	for r := range parts {
		entBase[r+1] = entBase[r] + parts[r].entries
		portBase[r+1] = portBase[r] + len(parts[r].rows)
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
		links: make([]int32, numPortals),
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
				w := &rr.rows[x]
				if x == rr.ends[i] || w.key != rr.rows[x-1].key {
					if e > entBase[r] {
						rows.portalOff[e] = int32(pb + x)
					}
					rows.entryKey[e] = w.key
					e++
				}
				t := int32(-1)
				if w.hop >= 0 {
					h := split.of(w.hop)
					t = int32(portBase[h]) + parts[h].fwd[w.link]
				}
				o.links[pb+x] = t
			}
			rows.entryOff[lo+i+1] = int32(e)
		}
		if err := rows.buildLane(entBase[r], e, rr.rows); err != nil {
			errs[r] = fmt.Errorf("oracle: build: %w", err)
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
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

// epsCover greedily selects indices x into the path such that every path
// vertex y reachable from w satisfies, for some selected x:
// dist[x] + |pos[x]-pos[y]| <= (1+eps) * dist[y]. A vertex certifies its
// own coverage when selected, so the invariant holds by construction.
func epsCover(dist []float64, info core.ResidualPath, eps float64) []int {
	var chosen []int
	for y := range info.Verts {
		dy := dist[info.Verts[y]]
		if math.IsInf(dy, 1) {
			continue
		}
		covered := false
		for _, x := range chosen {
			dx := dist[info.Verts[x]]
			if dx+math.Abs(info.Pos[x]-info.Pos[y]) <= (1+eps)*dy {
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
// nil when v is out of range: each portal's hop is the vertex that owns
// the record its link names. Two labels alone answer a query
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
		hops := make([]int32, phi-plo)
		for x, t := range o.links[plo:phi] {
			hops[x] = r.owner(t)
		}
		l.Entries[i] = Entry{
			Key:     r.keys[r.entryKey[e]],
			Portals: slices.Clone(r.lane[plo:phi]),
			Hops:    hops,
		}
	}
	return l
}

// owner returns the vertex whose label holds pool record t, or -1 when t
// is negative.
func (f *Flat) owner(t int32) int32 {
	if t < 0 {
		return -1
	}
	e := sort.Search(len(f.entryKey), func(e int) bool { return f.portalOff[e+1] > t })
	return int32(sort.Search(f.n, func(v int) bool { return int(f.entryOff[v+1]) > e }))
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
