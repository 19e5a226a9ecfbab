// The label reference: the []Label form of the oracle that Build's row
// assembly replaced, kept as the oracle the differential tests compare
// against. It replays the same stage-2 records into per-vertex labels
// (normalizeLabel), answers queries by walking the labels
// (queryLabels, queryLabelsArg, walkChain) and freezes them the old way:
// keys interned through a map, the CSR laid out label by label and
// every hop resolved against those tables.
package oracle

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/par"
)

// refOracle is an oracle in label form: one label per vertex, with the
// separator paths sorted by keyLess.
type refOracle struct {
	n      int
	eps    float64
	mode   Mode
	labels []Label
	paths  []sepPath
}

// refBuild runs Build's first two stages on a pool of the given width
// and replays their records into labels.
func refBuild(tb testing.TB, t *core.Tree, opt Options, workers int) *refOracle {
	tb.Helper()
	pool := par.New(workers, nil)
	c, err := collect(t, opt, pool)
	if err != nil {
		tb.Fatal(err)
	}
	ref := replayRef(c)
	ref.eps, ref.mode = opt.Epsilon, opt.Mode
	return ref
}

// replayRef gathers every record under its vertex range by range, in
// task order, then normalizes each vertex's records into its label.
func replayRef(c *records) *refOracle {
	ref := &refOracle{n: c.n, labels: make([]Label, c.n)}
	rows := make([][]refRow, c.n)
	for r := 0; r < c.split.ranges; r++ {
		for _, out := range c.outs {
			for _, x := range out[r] {
				rows[x.v] = append(rows[x.v], refRow{key: c.geo.keys[x.k], p: x.p, hop: x.h, depth: x.d})
			}
		}
	}
	for v := range ref.labels {
		ref.labels[v] = normalizeLabel(rows[v])
	}
	for k, key := range c.geo.keys {
		lo, hi := c.geo.pathOff[k], c.geo.pathOff[k+1]
		ref.paths = append(ref.paths, sepPath{key: key, verts: c.geo.pathVert[lo:hi], pos: c.geo.pathPos[lo:hi]})
	}
	return ref
}

// refRow is one replayed record of a vertex: its portal on the path with
// key, its hop vertex and its depth (hops to the path along its run).
type refRow struct {
	key        Key
	p          Portal
	hop, depth int32
}

// normalizeLabel turns a vertex's records into its label: entries sorted
// by key, portals by position, and one portal per position, keeping the
// smaller distance, then the smaller depth, then the smaller hop, so the
// result is schedule-independent. Hops travel with their portals.
func normalizeLabel(rows []refRow) Label {
	slices.SortFunc(rows, func(a, b refRow) int {
		if c := keyCmp(a.key, b.key); c != 0 {
			return c
		}
		if !core.SameDist(a.p.Pos, b.p.Pos) {
			return floatCmp(a.p.Pos, b.p.Pos)
		}
		if !core.SameDist(a.p.Dist, b.p.Dist) {
			return floatCmp(a.p.Dist, b.p.Dist)
		}
		return cmp.Or(cmp.Compare(a.depth, b.depth), cmp.Compare(a.hop, b.hop))
	})
	var l Label
	for _, x := range rows {
		if n := len(l.Entries); n > 0 && l.Entries[n-1].Key == x.key {
			e := &l.Entries[n-1]
			if core.SameDist(e.Portals[len(e.Portals)-1].Pos, x.p.Pos) {
				continue // keep the first: the smaller distance, depth, hop
			}
			e.Portals = append(e.Portals, x.p)
			e.Hops = append(e.Hops, x.hop)
			continue
		}
		l.Entries = append(l.Entries, Entry{Key: x.key, Portals: []Portal{x.p}, Hops: []int32{x.hop}})
	}
	return l
}

// Query is the label walk: the merge-join of the two labels' entries,
// pairMin on every shared key.
func (ref *refOracle) Query(u, v int) float64 {
	if u < 0 || v < 0 || u >= len(ref.labels) || v >= len(ref.labels) {
		return math.Inf(1)
	}
	if u == v {
		return 0
	}
	return queryLabels(&ref.labels[u], &ref.labels[v])
}

// pairMinArg is pairMin plus the argmin: the indices into a and b whose
// combination achieved the returned minimum (-1, -1 when none did). The
// candidate values and their fold order are exactly pairMin's, so the
// returned minimum is bit-identical to it.
func pairMinArg(a, b []Portal) (float64, int, int) {
	best := math.Inf(1)
	bestA, bestB := -1, -1
	minA, minB := math.Inf(1), math.Inf(1)
	minAi, minBi := -1, -1
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].Pos <= b[j].Pos) {
			if est := a[i].Dist + a[i].Pos + minB; est < best {
				best = est
				bestA, bestB = i, minBi
			}
			if v := a[i].Dist - a[i].Pos; v < minA {
				minA = v
				minAi = i
			}
			i++
		} else {
			if est := b[j].Dist + b[j].Pos + minA; est < best {
				best = est
				bestA, bestB = minAi, j
			}
			if v := b[j].Dist - b[j].Pos; v < minB {
				minB = v
				minBi = j
			}
			j++
		}
	}
	return best, bestA, bestB
}

// queryLabelsArg is queryLabels plus the argmin: the entry and portal
// indices on each side whose portal pair achieved the minimum.
func queryLabelsArg(lu, lv *Label) (float64, int, int, int, int) {
	best := math.Inf(1)
	entA, entB, pA, pB := -1, -1, -1, -1
	i, j := 0, 0
	for i < len(lu.Entries) && j < len(lv.Entries) {
		a, b := lu.Entries[i], lv.Entries[j]
		switch {
		case a.Key == b.Key:
			if est, ai, bi := pairMinArg(a.Portals, b.Portals); est < best {
				best = est
				entA, entB, pA, pB = i, j, ai, bi
			}
			i++
			j++
		case keyLess(a.Key, b.Key):
			i++
		default:
			j++
		}
	}
	return best, entA, entB, pA, pB
}

func reverseInt32(s []int32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// joinSegments splices the three pieces of a reported walk already
// appended to out — [u..anchorA] then [v..anchorB, mid(B→A exclusive)]
// from mark on — into [u..anchorA, mid(A→B), anchorB..v], dropping the
// duplicated anchor when the two chains meet at the same path vertex.
func joinSegments(out []int32, mark int) []int32 {
	reverseInt32(out[mark:])
	if out[mark-1] == out[mark] {
		copy(out[mark:], out[mark+1:])
		out = out[:len(out)-1]
	}
	return out
}

// findEntry locates the entry for k in a label (entries sorted by key).
func findEntry(l *Label, k Key) *Entry {
	x := sort.Search(len(l.Entries), func(i int) bool { return !keyLess(l.Entries[i].Key, k) })
	if x < len(l.Entries) && l.Entries[x].Key == k {
		return &l.Entries[x]
	}
	return nil
}

// errPathGeometry is the label walk's error for an anchor its path's
// geometry does not hold.
var errPathGeometry = errors.New("oracle: path geometry mismatch")

// pathIndexAt locates the path index whose position equals p and whose
// vertex is the walked-to anchor. Positions are copied bit-for-bit from
// the same prefix sums into both the portal records and the geometry, so
// the equality search is exact.
func pathIndexAt(pos []float64, verts []int32, p float64, anchor int32) (int, error) {
	x := sort.SearchFloat64s(pos, p)
	for ; x < len(pos) && core.SameDist(pos[x], p); x++ {
		if verts[x] == anchor {
			return x, nil
		}
	}
	return 0, errPathGeometry
}

// walkChain appends the hop chain from vertex w to its anchor on path k
// at position pos: w itself, every intermediate vertex, and the anchor.
// The step bound turns a corrupt (cyclic) hop table into an error
// instead of an unbounded loop.
func (ref *refOracle) walkChain(out []int32, w int, k Key, pos float64) ([]int32, int32, error) {
	for steps := 0; steps <= ref.n; steps++ {
		out = append(out, int32(w))
		e := findEntry(&ref.labels[w], k)
		if e == nil || len(e.Hops) != len(e.Portals) {
			return out, -1, errPathRecord
		}
		ps := e.Portals
		x := sort.Search(len(ps), func(i int) bool { return ps[i].Pos >= pos })
		if x == len(ps) || !core.SameDist(ps[x].Pos, pos) {
			return out, -1, errPathRecord
		}
		h := e.Hops[x]
		if h < 0 {
			return out, int32(w), nil
		}
		if int(h) >= ref.n {
			return out, -1, errPathRecord
		}
		w = int(h)
	}
	return out, -1, errPathCycle
}

// QueryPath is the label walk's path report: the argmin portal pair,
// both hop chains walked record by record, and the path's middle
// segment read off the geometry.
func (ref *refOracle) QueryPath(u, v int, buf []int32) (float64, []int32, error) {
	out := buf[:0]
	if u < 0 || v < 0 || u >= len(ref.labels) || v >= len(ref.labels) {
		return math.Inf(1), out, nil
	}
	if u == v {
		return 0, append(out, int32(u)), nil
	}
	est, entA, entB, pA, pB := queryLabelsArg(&ref.labels[u], &ref.labels[v])
	if math.IsInf(est, 1) {
		return est, out, nil
	}
	ea := &ref.labels[u].Entries[entA]
	eb := &ref.labels[v].Entries[entB]
	k := ea.Key
	posA := ea.Portals[pA].Pos
	posB := eb.Portals[pB].Pos
	pi := sort.Search(len(ref.paths), func(i int) bool { return !keyLess(ref.paths[i].key, k) })
	if pi == len(ref.paths) || ref.paths[pi].key != k {
		return est, out, errPathRecord
	}
	sp := &ref.paths[pi]
	out, aU, err := ref.walkChain(out, u, k, posA)
	if err != nil {
		return est, out, err
	}
	ia, err := pathIndexAt(sp.pos, sp.verts, posA, aU)
	if err != nil {
		return est, out, err
	}
	mark := len(out)
	out, aV, err := ref.walkChain(out, v, k, posB)
	if err != nil {
		return est, out, err
	}
	ib, err := pathIndexAt(sp.pos, sp.verts, posB, aV)
	if err != nil {
		return est, out, err
	}
	// Middle segment appended anchor-B-to-anchor-A exclusive; the join
	// reverses the tail into place.
	if ia < ib {
		for x := ib - 1; x > ia; x-- {
			out = append(out, sp.verts[x])
		}
	} else {
		for x := ib + 1; x < ia; x++ {
			out = append(out, sp.verts[x])
		}
	}
	return est, joinSegments(out, mark), nil
}

// freeze lays the labels out as a Flat's tables the way Freeze did
// before Build wrote rows: the distinct keys collected through a map and
// ranked by keyLess, the CSR tables and the portal pool appended label
// by label, the lane transcribed from that pool, and every hop resolved
// against the tables, which it returns beside the Flat. It derives no
// walk.
func (ref *refOracle) freeze() (*Flat, []int32, error) {
	seen := make(map[Key]int32)
	var keys []Key
	numEntries, numPortals := 0, 0
	for v := range ref.labels {
		for _, e := range ref.labels[v].Entries {
			if _, ok := seen[e.Key]; !ok {
				seen[e.Key] = 0
				keys = append(keys, e.Key)
			}
			numEntries++
			numPortals += len(e.Portals)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	for i, k := range keys {
		seen[k] = int32(i)
	}
	f := &Flat{
		n:    ref.n,
		eps:  ref.eps,
		mode: ref.mode,
		tables: tables{
			keys:      keys,
			entryOff:  make([]int32, ref.n+1),
			entryKey:  make([]int32, 0, numEntries),
			portalOff: make([]int32, 1, numEntries+1),
		},
	}
	pos, dist := make([]float64, 0, numPortals), make([]float64, 0, numPortals)
	for v := range ref.labels {
		for _, e := range ref.labels[v].Entries {
			f.entryKey = append(f.entryKey, seen[e.Key])
			for _, p := range e.Portals {
				pos, dist = append(pos, p.Pos), append(dist, p.Dist)
			}
			f.portalOff = append(f.portalOff, int32(len(pos)))
		}
		f.entryOff[v+1] = int32(len(f.entryKey))
	}
	f.lane = alignedPortals(len(pos))
	if err := f.buildLane(0, len(f.entryKey), pos, dist, anchorRuns{}); err != nil {
		return nil, nil, err
	}
	if len(ref.paths) != len(keys) {
		return nil, nil, fmt.Errorf("%d separator paths for %d keys", len(ref.paths), len(keys))
	}
	f.pathOff = make([]int32, len(keys)+1)
	for i := range ref.paths {
		if ref.paths[i].key != keys[i] {
			return nil, nil, fmt.Errorf("no separator path for key %v", keys[i])
		}
		f.pathVert = append(f.pathVert, ref.paths[i].verts...)
		f.pathPos = append(f.pathPos, ref.paths[i].pos...)
		f.pathOff[i+1] = int32(len(f.pathVert))
	}
	hops := make([]int32, len(pos))
	for v := range ref.labels {
		ei := int(f.entryOff[v])
		for j, e := range ref.labels[v].Entries {
			kid, pi := f.entryKey[ei+j], int(f.portalOff[ei+j])
			for x, h := range e.Hops {
				t := int32(-1)
				if h >= 0 {
					if t = f.findRecord(int(h), kid, e.Portals[x].Pos); t < 0 {
						return nil, nil, fmt.Errorf("vertex %d key %v: hop to %d has no record at position %v", v, e.Key, h, e.Portals[x].Pos)
					}
				}
				hops[pi+x] = t
			}
		}
	}
	return f, hops, nil
}
