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

// Static walk errors: inconsistent path records are reported, never
// panicked on, and reporting them allocates nothing.
var (
	errPathCycle  = errors.New("oracle: path records form a cycle")
	errPathRecord = errors.New("oracle: dangling path record")
)

// queryArg is query plus the argmin: the key ID and the two portal-pool
// indices whose combination achieved the minimum. The hot sweep is
// query's, verbatim — same lane runs, same galloping key merge —
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
			if x := int(po[i]); x < len(ln) {
				touch += ln[x].Pos
			}
			if x := int(po[j]); x < len(ln) {
				touch += ln[x].Pos
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
// in the classic sweep's merge order — argminPair's job.
func (f *Flat) sweepMatchesArg(mA, mB []int32, best float64, winI, winJ int) (float64, int, int) {
	po, ln := f.portalOff, f.lane
	for t := 0; t < len(mA) && t < len(mB); t++ {
		mi, mj := int(mA[t]), int(mB[t])
		kbest := sweepRec(ln[po[mi]:po[mi+1]], ln[po[mj]:po[mj+1]], math.Inf(1))
		if kbest < best {
			best = kbest
			winI, winJ = mi, mj
		}
	}
	return best, winI, winJ
}

// argminPair resolves the portal pair of one matched entry pair's known
// minimum: the pool indices of the first candidate in the classic
// sweep's merge order achieving target — the same candidate the strict-<
// updates of the label reference's pairMinArg pick. It replays that
// merge over the winning pair's lane records, rounding fl(Dist+Pos) and
// fl(Dist−Pos) from each record's Pos and Dist exactly as pairMin and
// sweepRec do, and tracking where each side's running minimum of
// fl(Dist−Pos) was set; it checks each candidate against target's bits
// and returns at the first hit: target IS this pair's minimum, so the
// first candidate equal to it is exactly the strict-< fold's argmin. It
// evaluates sweepRec's candidates in sweepRec's order, so the two agree
// on every candidate's bits.
func (f *Flat) argminPair(e1, e2 int32, target float64) (int32, int32) {
	po, ln := f.portalOff, f.lane
	tbits := math.Float64bits(target)
	ia0, ka := int(po[e1]), int(po[e1+1]-po[e1])
	ib0, kb := int(po[e2]), int(po[e2+1]-po[e2])
	if ka == 0 || kb == 0 {
		return -1, -1
	}
	// Touch the winning runs' walkSlot lines before the replay: the
	// chosen portals' slots are read right after this returns, and the
	// replay's run time hides their misses. Slots are 4 bytes, so stride
	// 16 covers every line once.
	wt := int32(0)
	if ws := f.walkSlot; len(ws) >= ia0+ka && len(ws) >= ib0+kb {
		for x := ia0; x < ia0+ka; x += 16 {
			wt |= ws[x]
		}
		for x := ib0; x < ib0+kb; x += 16 {
			wt |= ws[x]
		}
	}
	if wt < 0 {
		// Unreachable (slots are non-negative, and so is their OR); keeps
		// the touch loads live.
		return -1, -1
	}
	if ka == 1 && kb == 1 {
		// One candidate pair, and target is this pair's minimum — it is
		// that candidate.
		return int32(ia0), int32(ib0)
	}
	recA, recB := ln[ia0:ia0+ka], ln[ib0:ib0+kb]
	minA, minB := math.Inf(1), math.Inf(1)
	minAi, minBi := -1, -1
	a, b := 0, 0
	for a < ka || b < kb {
		if b >= kb || (a < ka && recA[a].Pos <= recB[b].Pos) {
			// A finite target never matches sum + Inf, so a hit implies
			// minBi (resp. minAi below) is a real index.
			if math.Float64bits(recA[a].Dist+recA[a].Pos+minB) == tbits {
				return int32(ia0 + a), int32(ib0 + minBi)
			}
			if v := recA[a].Dist - recA[a].Pos; v < minA {
				minA = v
				minAi = a
			}
			a++
		} else {
			if math.Float64bits(recB[b].Dist+recB[b].Pos+minA) == tbits {
				return int32(ia0 + minAi), int32(ib0 + b)
			}
			if v := recB[b].Dist - recB[b].Pos; v < minB {
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
// static. Each winning record's slot opens its first owner run, and a
// forward scan to the run's trailer hands over its chain's anchor and
// the walk length past the head, so both chains' anchors and output
// lengths are known before either walk runs: the output is sized once
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
	xa, xb := f.walkSlot[bpa], f.walkSlot[bpb]
	blk := f.walkBlk
	ea, eb := runEnd(blk, xa), runEnd(blk, xb)
	ia, ib := blk[ea+3], blk[eb+3]
	mid := ib - ia - 1
	if ia > ib {
		mid = ia - ib - 1
	}
	// When the chains meet at the same path vertex (ia == ib, mid -1)
	// the v-side anchor duplicates the u-side one; the v-chain's last
	// write then lands on the u-chain's anchor cell with the same value.
	need := int(ea-xa+1+blk[ea+4]) + int(eb-xb+1+blk[eb+4])
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
			if q := blk[ea+1]; q < -1 {
				xa, ea = -2-q, blk[ea+2]
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
			if q := blk[eb+1]; q < -1 {
				xb, eb = -2-q, blk[eb+2]
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
	x := plo + sort.Search(phi-plo, func(i int) bool { return f.lane[plo+i].Pos >= pos })
	if x < phi && core.SameDist(f.lane[x].Pos, pos) {
		return int32(x)
	}
	return -1
}

// resolveHops resolves every hop vertex to the pool index of the record
// it names: the hop vertex's record at the same key and position, the
// hop forest the walk layout is derived from. Each link goes straight to
// its record's key-major slot in kp, as a decode's hop section does (see
// keyPartition.link), and it returns the anchor count. A hop that names
// no record fails the freeze rather than produce an image that cannot
// report paths. The hops resolve on a runtime.GOMAXPROCS(0)-wide pool,
// one task per vertex range; the anchors rank in pool order, each range
// from the count of anchors before it, and the error reported is the
// first in pool order, as a serial pass would find it.
func (f *Flat) resolveHops(hopVert []int32, kp *keyPartition) (int32, error) {
	pool := par.New(0, nil)
	split := newVertexSplit(f.n, rangesPerWorker*pool.Workers())
	rank := make([]int32, split.ranges+1)
	pool.ForEach(split.ranges, func(r int) {
		lo, hi := split.bounds(r)
		for _, h := range hopVert[f.portalOff[f.entryOff[lo]]:f.portalOff[f.entryOff[hi]]] {
			if h < 0 {
				rank[r+1]++
			}
		}
	})
	for r := 0; r < split.ranges; r++ {
		rank[r+1] += rank[r]
	}
	errs := make([]error, split.ranges)
	pool.ForEach(split.ranges, func(r int) {
		lo, hi := split.bounds(r)
		errs[r] = f.resolveRange(hopVert, kp, lo, hi, rank[r])
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return rank[split.ranges], nil
}

// resolveRange links every hop record of vertices [lo, hi) in kp, the
// range's anchors ranked from rank, stopping at the first hop with no
// record.
func (f *Flat) resolveRange(hopVert []int32, kp *keyPartition, lo, hi int, rank int32) error {
	for v := lo; v < hi; v++ {
		for e := f.entryOff[v]; e < f.entryOff[v+1]; e++ {
			kid := f.entryKey[e]
			for x := f.portalOff[e]; x < f.portalOff[e+1]; x++ {
				t := int32(-1)
				if h := hopVert[x]; h >= 0 {
					pos := f.lane[x].Pos
					if t = f.findRecord(int(h), kid, pos); t < 0 {
						return fmt.Errorf("oracle: freeze: vertex %d key %v: hop to %d has no record at position %v", v, f.keys[kid], h, pos)
					}
				}
				rank = kp.link(x, t, rank)
			}
		}
	}
	return nil
}
