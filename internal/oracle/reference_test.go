// The label reference: the []Label form of the oracle that Build's row
// assembly replaced, kept as the oracle the differential tests compare
// against. It replays the same stage-2 records into per-vertex labels
// (add, normalizeLabel), answers queries by walking the labels
// (queryLabels, queryLabelsArg, walkChain) and freezes them the old way:
// keys interned through a map, the CSR laid out label by label and
// every hop resolved against those tables.
package oracle

import (
	"cmp"
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

// replayRef appends every record to its vertex's label range by range,
// in task order, then normalizes every label.
func replayRef(c *records) *refOracle {
	ref := &refOracle{n: c.n, labels: make([]Label, c.n)}
	for r := 0; r < c.split.ranges; r++ {
		for _, out := range c.outs {
			for _, x := range out[r] {
				ref.add(x.v, c.geo.keys[x.k], x.p, x.h)
			}
		}
	}
	for v := range ref.labels {
		normalizeLabel(&ref.labels[v])
	}
	for k, key := range c.geo.keys {
		lo, hi := c.geo.pathOff[k], c.geo.pathOff[k+1]
		ref.paths = append(ref.paths, sepPath{key: key, verts: c.geo.pathVert[lo:hi], pos: c.geo.pathPos[lo:hi]})
	}
	return ref
}

// add appends one record to v's label, opening an entry when the key
// changes.
func (ref *refOracle) add(v int32, k Key, p Portal, hop int32) {
	lbl := &ref.labels[v]
	if len(lbl.Entries) == 0 || lbl.Entries[len(lbl.Entries)-1].Key != k {
		lbl.Entries = append(lbl.Entries, Entry{Key: k})
	}
	e := &lbl.Entries[len(lbl.Entries)-1]
	e.Portals = append(e.Portals, p)
	e.Hops = append(e.Hops, hop)
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
	portals := make([]Portal, 0, numPortals)
	for v := range ref.labels {
		for _, e := range ref.labels[v].Entries {
			f.entryKey = append(f.entryKey, seen[e.Key])
			portals = append(portals, e.Portals...)
			f.portalOff = append(f.portalOff, int32(len(portals)))
		}
		f.entryOff[v+1] = int32(len(f.entryKey))
	}
	f.lane = alignedFloats(3 * len(portals))
	if err := f.buildLane(0, len(f.entryKey), portals); err != nil {
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
	hops := make([]int32, len(portals))
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
