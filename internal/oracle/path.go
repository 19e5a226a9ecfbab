// Path reporting: the per-portal hop records laid down at build time
// turn the distance oracle into a path-reporting one (after the style of
// Elkin–Neiman–Wulff-Nilsen). A query first runs the usual merge-join,
// tracking the argmin instead of just the min; the reported walk is then
// assembled in O(len(path)): follow the u-side hop chain to its anchor
// on the certifying separator path, read the path's own vertices between
// the two anchors off the stored geometry, and append the v-side chain
// reversed. Every hop record's distance is an exact shortest distance to
// its anchor and every hop edge telescopes, so the walk's weight equals
// the reported (1+ε) estimate up to float rounding.
package oracle

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"pathsep/internal/core"
	"pathsep/internal/par"
)

// Static walk errors: corrupt or inconsistent path records are reported,
// never panicked on, and reporting them allocates nothing.
var (
	errPathCycle    = errors.New("oracle: path records form a cycle")
	errPathRecord   = errors.New("oracle: dangling path record")
	errPathGeometry = errors.New("oracle: path geometry mismatch")
)

// NumHops returns the hop-chain section length (one record per portal).
func (f *Flat) NumHops() int { return len(f.hops) }

// NumPathVerts returns the total separator-path geometry length across
// all keys (the CSR payload shared by the path_vert and path_pos
// sections).
func (f *Flat) NumPathVerts() int { return len(f.pathVert) }

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
func (o *Oracle) walkChain(out []int32, w int, k Key, pos float64) ([]int32, int32, error) {
	for steps := 0; steps <= o.N; steps++ {
		out = append(out, int32(w))
		e := findEntry(&o.Labels[w], k)
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
		if int(h) >= o.N {
			return out, -1, errPathRecord
		}
		w = int(h)
	}
	return out, -1, errPathCycle
}

// QueryPath returns the same (1+ε)-approximate distance as Query
// together with a witness walk from u to v realizing it, appended into
// buf (which may be nil; pass the returned slice back in to amortize
// allocations away). The walk starts at u, ends at v, steps only along
// graph edges, and its weight equals the returned distance up to float
// rounding. Out-of-range vertex IDs and disconnected pairs report
// (+Inf, empty, nil).
func (o *Oracle) QueryPath(u, v int, buf []int32) (float64, []int32, error) {
	out := buf[:0]
	if u < 0 || v < 0 || u >= len(o.Labels) || v >= len(o.Labels) {
		return math.Inf(1), out, nil
	}
	if u == v {
		return 0, append(out, int32(u)), nil
	}
	est, entA, entB, pA, pB := queryLabelsArg(&o.Labels[u], &o.Labels[v])
	if math.IsInf(est, 1) {
		return est, out, nil
	}
	ea := &o.Labels[u].Entries[entA]
	eb := &o.Labels[v].Entries[entB]
	k := ea.Key
	posA := ea.Portals[pA].Pos
	posB := eb.Portals[pB].Pos
	pi := sort.Search(len(o.paths), func(i int) bool { return !keyLess(o.paths[i].key, k) })
	if pi == len(o.paths) || o.paths[pi].key != k {
		return est, out, errPathRecord
	}
	sp := &o.paths[pi]
	out, aU, err := o.walkChain(out, u, k, posA)
	if err != nil {
		return est, out, err
	}
	ia, err := pathIndexAt(sp.pos, sp.verts, posA, aU)
	if err != nil {
		return est, out, err
	}
	mark := len(out)
	out, aV, err := o.walkChain(out, v, k, posB)
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

// queryArg is query plus the argmin: the key ID and the two portal-pool
// indices whose combination achieved the minimum. The hot sweep is
// query's, verbatim — same blocked lanes, same galloping key merge —
// with one change: each matched key folds into a key-local minimum
// first, and only the winning entry pair is remembered — per-portal
// argmin bookkeeping would cost ~30% in register pressure, so it runs
// once afterwards, replaying just the winning pair's sweep (argminPair).
// Min is associative and every fold uses strict <, so both the distance
// and the chosen candidate are bit-identical to the single-pass fold,
// and therefore to Query.
func (f *Flat) queryArg(u, v int) (float64, int32, int32, int32) {
	best := math.Inf(1)
	winI, winJ := -1, -1
	ek, po, ln := f.entryKey, f.portalOff, f.lane
	i, iEnd := int(f.entryOff[u]), int(f.entryOff[u+1])
	j, jEnd := int(f.entryOff[v]), int(f.entryOff[v+1])
	gallop := (iEnd-i) >= gallopSkew*(jEnd-j) || (jEnd-j) >= gallopSkew*(iEnd-i)
	var mA, mB [matchBuf]int32
	touch := 0.0
	nm := 0
	for i < iEnd && j < jEnd {
		a, b := ek[i], ek[j]
		switch {
		case a == b:
			if nm == matchBuf {
				best, winI, winJ = f.sweepMatchesArg(mA[:nm], mB[:nm], best, winI, winJ)
				nm = 0
			}
			mA[nm], mB[nm] = int32(i), int32(j)
			nm++
			if x := 3 * int(po[i]); x < len(ln) {
				touch += ln[x]
			}
			if x := 3 * int(po[j]); x < len(ln) {
				touch += ln[x]
			}
			i++
			j++
		case a < b:
			if i++; gallop && i < iEnd && ek[i] < b {
				i = gallopTo(ek, i, iEnd, b)
			}
		default:
			if j++; gallop && j < jEnd && ek[j] < a {
				j = gallopTo(ek, j, jEnd, a)
			}
		}
	}
	best, winI, winJ = f.sweepMatchesArg(mA[:nm], mB[:nm], best, winI, winJ)
	if touch < 0 {
		// Unreachable (positions are non-negative); keeps the touch loads
		// live, as in query.
		winI = -1
	}
	if winI < 0 {
		return best, -1, -1, -1
	}
	bpa, bpb := f.argminPair(int32(winI), int32(winJ), best)
	return best, ek[winI], bpa, bpb
}

// sweepMatchesArg is queryArg's flush of the collected matched pairs:
// sweepMatches with the per-key argmin kept — each pair folds into a
// key-local minimum first, so the winning entry pair is known without
// per-portal bookkeeping in the hot loop (see queryArg). Tracking the
// winning portal pair here directly (rather than replaying it after)
// does not work: portal distances are affine in path position along
// shortest-path segments, so distinct portal pairs routinely share the
// exact candidate bits, and the reported witness must break those ties
// in the pointer sweep's merge order — argminPair's job.
func (f *Flat) sweepMatchesArg(mA, mB []int32, best float64, winI, winJ int) (float64, int, int) {
	po, ln := f.portalOff, f.lane
	for t := 0; t < len(mA) && t < len(mB); t++ {
		mi, mj := int(mA[t]), int(mB[t])
		ia0, ka := int(po[mi]), int(po[mi+1]-po[mi])
		ib0, kb := int(po[mj]), int(po[mj+1]-po[mj])
		kA, kB := 3*ka, 3*kb
		kbest := sweepRec(ln[3*ia0:3*ia0+kA], ln[3*ib0:3*ib0+kB], kA, kB, math.Inf(1))
		if kbest < best {
			best = kbest
			winI, winJ = mi, mj
		}
	}
	return best, winI, winJ
}

// argminPair resolves the portal pair of one matched entry pair's known
// minimum: the pool indices of the first candidate in the pointer
// sweep's classic merge order achieving target — the same candidate
// pairMinArg's strict-< updates pick. It replays that merge over the
// winning pair's lane records, rounding fl(Dist+Pos) and fl(Dist−Pos)
// from each record's raw Pos and Dist exactly as pairMinArg does,
// checking each candidate against target's bits and returning at the
// first hit: target IS this pair's minimum, so the first candidate equal
// to it is exactly the strict-< fold's argmin. Float add is commutative,
// so fl(sum + diff) here carries the same bits as the suffix-min fold's
// fl(diff + sum) — the two sweeps agree on every candidate's value, only
// the fold grouping differs.
func (f *Flat) argminPair(e1, e2 int32, target float64) (int32, int32) {
	po, ln := f.portalOff, f.lane
	tbits := math.Float64bits(target)
	ia0, ka := int(po[e1]), int(po[e1+1]-po[e1])
	ib0, kb := int(po[e2]), int(po[e2+1]-po[e2])
	if ka == 0 || kb == 0 {
		return -1, -1
	}
	// Touch the winning runs' walkFrom lines before the replay: the
	// chosen portals' chain-start records are read right after this
	// returns, and the replay's run time hides their misses. startRecs
	// are 16 bytes, so stride 4 covers every line once.
	wt := int32(0)
	if wf := f.walkFrom; len(wf) >= ia0+ka && len(wf) >= ib0+kb {
		for x := ia0; x < ia0+ka; x += 4 {
			wt |= wf[x].slot
		}
		for x := ib0; x < ib0+kb; x += 4 {
			wt |= wf[x].slot
		}
	}
	if wt < -1<<30 {
		// Unreachable (slots are -1 or small indices); keeps the touch
		// loads live.
		return -1, -1
	}
	if ka == 1 && kb == 1 {
		// One candidate pair, and target is this pair's minimum — it is
		// that candidate.
		return int32(ia0), int32(ib0)
	}
	recA := ln[3*ia0 : 3*ia0+3*ka]
	recB := ln[3*ib0 : 3*ib0+3*kb]
	minA, minB := math.Inf(1), math.Inf(1)
	minAi, minBi := -1, -1
	a, b := 0, 0
	for a < ka || b < kb {
		if b >= kb || (a < ka && recA[3*a] <= recB[3*b]) {
			// A finite target never matches sum + Inf, so a hit implies
			// minBi (resp. minAi below) is a real index.
			if math.Float64bits(recA[3*a+1]+recA[3*a]+minB) == tbits {
				return int32(ia0 + a), int32(ib0 + minBi)
			}
			if v := recA[3*a+1] - recA[3*a]; v < minA {
				minA = v
				minAi = a
			}
			a++
		} else {
			if math.Float64bits(recB[3*b+1]+recB[3*b]+minA) == tbits {
				return int32(ia0 + minAi), int32(ib0 + b)
			}
			if v := recB[3*b+1] - recB[3*b]; v < minB {
				minB = v
				minBi = b
			}
			b++
		}
	}
	return -1, -1
}

// QueryPath returns the same (1+ε)-approximate distance as Query
// together with a witness walk from u to v realizing it, written into
// buf. With a reused buffer it runs at zero allocations per query: the
// merge-join is queryArg, the walk is O(len(path)), and all errors are
// static. Both chains' anchors and output lengths are known before
// either walk runs (per-record precompute), so the output is sized once
// and every piece lands directly in its final position: the u-chain
// left to right from the front, the v-chain right to left from the
// back, the path's middle segment between them. The two chains are
// walked interleaved, one segment each per turn — their lead cache
// misses overlap instead of serializing. Out-of-range vertex IDs and
// disconnected pairs report (+Inf, empty, nil).
func (f *Flat) QueryPath(u, v int, buf []int32) (float64, []int32, error) {
	out := buf[:0]
	if u < 0 || v < 0 || u >= f.n || v >= f.n {
		return math.Inf(1), out, nil
	}
	if u == v {
		return 0, append(out, int32(u)), nil
	}
	est, kid, bpa, bpb := f.queryArg(u, v)
	if math.IsInf(est, 1) {
		return est, out, nil
	}
	if bpa < 0 || bpb < 0 {
		return est, out, errPathRecord
	}
	wa, wb := f.walkFrom[bpa], f.walkFrom[bpb]
	if wa.slot < 0 || wb.slot < 0 {
		return est, out, errPathRecord
	}
	if wa.anchor < 0 || wb.anchor < 0 {
		return est, out, errPathGeometry
	}
	ia, ib := wa.anchor, wb.anchor
	mid := ib - ia - 1
	if ia > ib {
		mid = ia - ib - 1
	}
	// When the chains meet at the same path vertex (ia == ib, mid -1)
	// the v-side anchor duplicates the u-side one; the v-chain's last
	// write then lands on the u-chain's anchor cell with the same value.
	need := int(wa.depth) + int(wb.depth)
	if mid > 0 {
		need += int(mid)
	} else if ia == ib {
		need--
	}
	if cap(out) >= need {
		out = out[:need]
	} else {
		out = make([]int32, need)
	}
	blk := f.walkBlk
	xa, ea := wa.slot, wa.end
	xb, eb := wb.slot, wb.end
	wp, bp := 0, need-1
	aDone, bDone := false, false
	for segs := 0; !aDone || !bDone; segs++ {
		if segs > len(blk) {
			return est, out[:0], errPathCycle
		}
		if !aDone {
			L := int(ea-xa) + 1
			if wp+L > need {
				return est, out[:0], errPathCycle
			}
			copy(out[wp:wp+L], blk[xa:ea+1])
			wp += L
			if q := blk[ea+1]; q >= 0 {
				xa, ea = q, blk[ea+2]
			} else {
				aDone = true
			}
		}
		if !bDone {
			if bp-int(eb-xb) < 0 {
				return est, out[:0], errPathCycle
			}
			for i := xb; i <= eb; i++ {
				out[bp] = blk[i]
				bp--
			}
			if q := blk[eb+1]; q >= 0 {
				xb, eb = q, blk[eb+2]
			} else {
				bDone = true
			}
		}
	}
	if mid > 0 {
		verts := f.pathVert[f.pathOff[kid]:f.pathOff[kid+1]]
		if ia < ib {
			copy(out[wp:wp+int(mid)], verts[ia+1:ib])
		} else {
			for x := ia - 1; x > ib; x-- {
				out[wp] = verts[x]
				wp++
			}
		}
	}
	return est, out, nil
}

// QueryPathBatch answers pairs[i] into dists[i] and the vertex segment
// verts[offs[i]:offs[i+1]] (CSR form). All three buffers are reused when
// they have capacity and allocated otherwise; pass the returned slices
// back in to amortize to zero allocations. The batch runs serially —
// path queries are dominated by the walk append, not the merge-join, so
// the caller picks its own fan-out. The first walk error aborts the
// batch.
func (f *Flat) QueryPathBatch(pairs []Pair, dists []float64, verts []int32, offs []int32) ([]float64, []int32, []int32, error) {
	if cap(dists) < len(pairs) {
		dists = make([]float64, len(pairs))
	}
	dists = dists[:len(pairs)]
	if cap(offs) < len(pairs)+1 {
		offs = make([]int32, len(pairs)+1)
	}
	offs = offs[:len(pairs)+1]
	verts = verts[:0]
	offs[0] = 0
	for i, p := range pairs {
		n0 := len(verts)
		d, seg, err := f.QueryPath(int(p.U), int(p.V), verts[n0:])
		if err != nil {
			return dists, verts, offs, err
		}
		dists[i] = d
		// seg aliases verts' tail when capacity sufficed; append copies
		// it into place either way without disturbing earlier segments.
		verts = append(verts[:n0], seg...)
		offs[i+1] = int32(len(verts))
	}
	return dists, verts, offs, nil
}

// findRecord locates vertex w's pool record for key kid at position pos,
// or -1 when absent.
func (f *Flat) findRecord(w int, kid int32, pos float64) int32 {
	if w < 0 || w >= f.n {
		return -1
	}
	lo, hi := int(f.entryOff[w]), int(f.entryOff[w+1])
	e := lo + sort.Search(hi-lo, func(i int) bool { return f.entryKey[lo+i] >= kid })
	if e == hi || f.entryKey[e] != kid {
		return -1
	}
	plo, phi := int(f.portalOff[e]), int(f.portalOff[e+1])
	x := plo + sort.Search(phi-plo, func(i int) bool { return f.lane[3*(plo+i)] >= pos })
	if x < phi && core.SameDist(f.lane[3*x], pos) {
		return int32(x)
	}
	return -1
}

// freezePaths compiles the hop chains and path geometry into the flat
// form: hop vertex IDs resolve to portal-pool indices (one array lookup
// per walk step at query time), and the separator-path vertex/position
// tables land in CSR form aligned with the interned key order. Any
// inconsistency — an entry whose hops do not parallel its portals, a hop
// with no record at the target vertex, geometry that does not cover the
// key set — fails the freeze rather than produce an image that cannot
// report paths. The hops resolve on a runtime.GOMAXPROCS(0)-wide pool,
// one task per vertex range; the error reported is the first in pool
// order, as a serial pass would find it.
func (f *Flat) freezePaths(o *Oracle) error {
	if len(o.paths) != len(f.keys) {
		return fmt.Errorf("oracle: freeze: %d separator paths for %d keys", len(o.paths), len(f.keys))
	}
	nv := 0
	for i := range o.paths {
		if o.paths[i].key != f.keys[i] {
			return fmt.Errorf("oracle: freeze: no separator path for key %v", f.keys[i])
		}
		nv += len(o.paths[i].verts)
	}
	pathOff := make([]int32, len(f.keys)+1)
	pathVert := make([]int32, 0, nv)
	pathPos := make([]float64, 0, nv)
	for i := range o.paths {
		pathVert = append(pathVert, o.paths[i].verts...)
		pathPos = append(pathPos, o.paths[i].pos...)
		pathOff[i+1] = int32(len(pathVert))
	}
	hops := make([]int32, f.NumPortals())
	pool := par.New(0, nil)
	split := newVertexSplit(f.n, rangesPerWorker*pool.Workers())
	errs := make([]error, split.ranges)
	pool.ForEach(split.ranges, func(i int) {
		lo, hi := split.bounds(i)
		errs[i] = f.resolveHops(o, hops, lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	f.hops, f.pathOff, f.pathVert, f.pathPos = hops, pathOff, pathVert, pathPos
	return nil
}

// resolveHops writes the pool index of every hop target of vertices
// [lo, hi) into hops, stopping at the first inconsistency.
func (f *Flat) resolveHops(o *Oracle, hops []int32, lo, hi int) error {
	for v := lo; v < hi; v++ {
		ei := int(f.entryOff[v])
		for j, e := range o.Labels[v].Entries {
			if len(e.Hops) != len(e.Portals) {
				return fmt.Errorf("oracle: freeze: vertex %d key %v: %d hops for %d portals", v, e.Key, len(e.Hops), len(e.Portals))
			}
			kid, pi := f.entryKey[ei+j], int(f.portalOff[ei+j])
			for x, h := range e.Hops {
				t := int32(-1)
				if h >= 0 {
					if t = f.findRecord(int(h), kid, e.Portals[x].Pos); t < 0 {
						return fmt.Errorf("oracle: freeze: vertex %d key %v: hop to %d has no record at position %v", v, e.Key, h, e.Portals[x].Pos)
					}
				}
				hops[pi+x] = t
			}
		}
	}
	return nil
}
