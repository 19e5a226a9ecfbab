package oracle

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
	"unsafe"

	"pathsep/internal/obs"
	"pathsep/internal/par"
)

// Flat is the read-only serving form of the oracle: the labels laid out
// as a struct-of-arrays so the query hot path touches only contiguous
// memory.
//
//   - Every separator-path Key is interned into keys (sorted by keyLess);
//     entries refer to keys by their dense int32 ID, so the merge-join
//     compares one int32 instead of an 8-byte struct.
//   - Per-vertex entries live in CSR form: vertex v owns entry indices
//     entryOff[v]..entryOff[v+1], and entry e owns the portal range
//     portalOff[e]..portalOff[e+1] of the single contiguous portal pool,
//     which the Flat keeps only as its sweep lane.
//
// Build writes these rows, Freeze adds the walk layout derived from the
// resolved hop links, and DecodeFlat rebuilds all of it from an image,
// the portal positions included, which the image leaves to the walk; a
// Flat never aliases an image buffer. It is immutable after construction, so
// Query and QueryBatch are safe for unbounded concurrent use. Queries
// return bit-identical results to the label-walking reference the tests
// keep (queryLabels over the same labels): the merge-join visits shared
// keys in the same order (galloping only skips keys that cannot match),
// and the portal sweep evaluates exactly the candidate values pairMin
// evaluates — every per-portal term fl(Dist+Pos) or fl(Dist−Pos) is
// rounded once from the lane's raw Pos and Dist, as pairMin rounds it,
// so every float64 comparison sees the same bits.
type Flat struct {
	n    int
	eps  float64
	mode Mode

	tables

	// The sweep lane: entry e's portal run [portalOff[e], portalOff[e+1))
	// of k records occupies lane[3*portalOff[e]:] as k three-float
	// records (pos, Dist, smin), where record x's smin is the min of
	// fl(Dist+Pos) over the run's suffix [x, k). The suffix-min collapses
	// the classic sweep's per-element fold: when the merge consumes
	// element x of one side, every legal partner is exactly the other
	// side's unconsumed suffix, so the single candidate
	// fl(fl(Dist_x−pos_x) + smin_other) covers all of them at once — min
	// is exact and rounding is monotone, so that equals the min of the
	// pairwise fl(sum+diff) candidates bit for bit. One fold per step,
	// no running min registers, and no tail pass: once either side is
	// exhausted the remainder has no partners left and is never touched.
	// The difference, and argminPair's sum, are computed where they are
	// used, with the single rounding pairMin applies. The lane is the
	// only resident copy of the portal pool (Encode writes the image's
	// distances from it) and is 64-byte aligned. Every record's pos is
	// its chain anchor's path position: a hop links records at one
	// position, and a chain ends at a path vertex's own record, so the
	// image stores no positions and DecodeFlat reads them off the walk
	// layout. schedU/schedV are the key shifts the batch locality
	// scheduler derives from the entry-table size.
	lane           []float64
	schedU, schedV uint8
	// Derived walk layout (deriveWalk), the Flat's only copy of the hop
	// forest: the forest re-laid-out in heavy-chain order, each chain one
	// contiguous block in walkBlk — its records' owning vertices
	// child-to-parent, then the trailer [−2−jumpSlot, jumpEnd, anchor,
	// tail] (see trailerWords): the segment the chain head hops into
	// (first word −1 at an anchor head), the chain's final anchor index
	// into the key's path-geometry span, and the walk length past the
	// head. A walk is a handful of bulk copies:
	// memmove the owner run, read the trailer off the cache lines the
	// copy just touched, jump. Light edges are the only jumps and a walk
	// crosses O(log P) of them. walkSlot maps a pool record to its slot;
	// QueryPath scans each winning slot's run forward to its trailer, so
	// both anchors and both output lengths are known before either walk
	// runs, and the middle segment is emitted in final order between the
	// two chains. Every record has a slot: no image in which a record
	// reaches no anchor is built or decoded. Encode writes the image's
	// hop section back from this layout: a record hops to the next slot's
	// record, a chain head to its trailer's jump, an anchor nowhere.
	walkBlk  []int32
	walkSlot []int32

	// Query-time instruments (SetMetrics); all nil-safe, and the disabled
	// path is a single nil check with no allocation.
	qLatency *obs.Histogram
	qPortals *obs.Histogram
	batchQPS *obs.Gauge

	// slow, when attached via SetSlowSampler, retains the slowest queries
	// as (u, v, dist, ns) exemplars. Like the instruments above it is
	// nil-safe and costs nothing when detached.
	slow *obs.SlowQuerySampler
}

// tables are the image sections a Flat keeps in their wire form: the
// interned keys and CSR offsets above, and the separator-path geometry
// pathOff/pathVert/pathPos in CSR form (see path.go). The distances and
// the hop links are not among them: the lane and the walk layout are
// their only resident copies.
type tables struct {
	keys      []Key   // interned keys, sorted by keyLess; ID = index
	entryOff  []int32 // len n+1: CSR offsets into entryKey/portalOff
	entryKey  []int32 // len numEntries: key ID per entry
	portalOff []int32 // len numEntries+1: CSR offsets into the portal pool
	pathOff   []int32
	pathVert  []int32
	pathPos   []float64
}

// clone copies every table into fresh memory.
func (t *tables) clone() tables {
	return tables{
		keys:      slices.Clone(t.keys),
		entryOff:  slices.Clone(t.entryOff),
		entryKey:  slices.Clone(t.entryKey),
		portalOff: slices.Clone(t.portalOff),
		pathOff:   slices.Clone(t.pathOff),
		pathVert:  slices.Clone(t.pathVert),
		pathPos:   slices.Clone(t.pathPos),
	}
}

// Freeze compiles the oracle into its flat serving form. The Flat shares
// the oracle's immutable rows — keys, CSR tables, sweep lane and path
// geometry — and adds what path reporting needs: the walk layout
// (deriveWalk), derived from every hop vertex resolved to the pool index
// of the record it names (see resolveHops); the resolved links are not
// kept. Freeze fails when a hop names no record or links records of two
// keys, when a record's hops reach no anchor, and when a key's path
// repeats a vertex: an image stores no positions, and such a record's
// would be lost. Every image Freeze returns decodes to the same lane and
// walk layout and reports paths.
func (o *Oracle) Freeze() (*Flat, error) {
	r := &o.rows
	f := &Flat{n: r.n, eps: r.eps, mode: r.mode, tables: r.tables, lane: r.lane}
	hops, err := f.resolveHops(o.hopVert)
	if err != nil {
		return nil, err
	}
	if _, err := f.derive(hops, 0); err != nil {
		return nil, fmt.Errorf("oracle: freeze: %w", err)
	}
	return f, nil
}

// alignedFloats allocates n float64s whose first element sits on a
// 64-byte boundary, so every lane run begins at a predictable cache-line
// offset. Go only guarantees 8-byte alignment for float64 backing
// arrays; the slack makes the stronger guarantee unconditional.
func alignedFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	buf := make([]float64, n+7)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%64 != 0 {
		off++
	}
	return buf[off : off+n : off+n]
}

// buildLane transcribes the portal runs of entries [e0, e1) into the
// sweep lane (see the lane layout doc on Flat); pos and dist hold those
// runs' positions and distances back to back, from pool index
// portalOff[e0]. A decoded image has no positions: with a nil pos, each
// record's is the path_pos entry of its chain's anchor, which the walk
// derivation left in anchors. It checks each record on the way: Pos and
// Dist must be NaN-free — a NaN would poison every min-fold the sweep
// computes — and positions must be non-decreasing within each entry,
// the order the merged sweep and its suffix-min rely on. +Inf stays
// legal in Dist: it is the unreachable sentinel some constructions
// store. Record x's smin is the min of fl(Dist+Pos) over the run's
// suffix [x, k), rounded exactly as pairMin rounds the sum; min is exact
// (no rounding), so the query-time fold fl(fl(Dist−Pos) + smin_other)
// equals the min of the pairwise candidates the register sweep folds one
// by one.
//
// buildLane is the sanctioned writer of the lane view: it fills the
// aligned array its caller just allocated, before the rows are
// published. Build's and DecodeFlat's range tasks each transcribe their
// own disjoint entries. The argumented directive does not opt it into
// hotalloc.
//
//pathsep:hotpath writes=views
func (f *Flat) buildLane(e0, e1 int, pos, dist []float64, anchors anchorRuns) error {
	base := int(f.portalOff[e0])
	for e := e0; e < e1; e++ {
		lo, hi := int(f.portalOff[e]), int(f.portalOff[e+1])
		// Without pos: the key's path positions, and the entry's anchors.
		var geo []float64
		var idx []int32
		if pos == nil && lo < hi {
			k := f.entryKey[e]
			geo, idx = f.pathPos[f.pathOff[k]:f.pathOff[k+1]], anchors.idx[anchors.first[e]:]
		}
		sm, next := math.Inf(1), math.Inf(1)
		for x := hi - 1; x >= lo; x-- {
			var p float64
			if pos != nil {
				p = pos[x-base]
			} else {
				p = geo[idx[x-lo]]
			}
			d := dist[x-base]
			if math.IsNaN(p) || math.IsNaN(d) {
				return fmt.Errorf("portal record %d contains NaN", x)
			}
			if p > next {
				return fmt.Errorf("portal positions of entry %d decrease at record %d", e, x)
			}
			if s := d + p; s < sm {
				sm = s
			}
			f.lane[3*x] = p
			f.lane[3*x+1] = d
			f.lane[3*x+2] = sm
			next = p
		}
	}
	return nil
}

// derive fixes the batch scheduler's key shifts — the coarser of
// (entry-table bits − 16) and 6, so a u-block names a ~64-entry portal
// region and both block numbers fit their 16-bit key lanes — and
// compiles the walk layout from the hop links on a pool of the given
// width (0 means runtime.GOMAXPROCS(0)), returning every record's
// anchor. It fails only on hop links deriveWalk refuses.
func (f *Flat) derive(hops []int32, workers int) (anchorRuns, error) {
	need := 0
	for ne := len(f.entryKey); ne>>need != 0; need++ {
	}
	f.schedU, f.schedV = 6, 0
	if need > 16 {
		f.schedV = uint8(need - 16)
		if f.schedV > f.schedU {
			f.schedU = f.schedV
		}
	}
	return f.deriveWalk(hops, workers)
}

// N returns the number of labeled vertices.
func (f *Flat) N() int { return f.n }

// Eps returns the ε the source oracle was built with.
func (f *Flat) Eps() float64 { return f.eps }

// Mode returns the portal construction the source oracle was built with.
func (f *Flat) Mode() Mode { return f.mode }

// NumKeys returns the number of interned separator-path keys.
func (f *Flat) NumKeys() int { return len(f.keys) }

// NumEntries returns the total entry count across all labels.
func (f *Flat) NumEntries() int { return len(f.entryKey) }

// NumPortals returns the size of the contiguous portal pool.
func (f *Flat) NumPortals() int { return len(f.lane) / 3 }

// labelPortals returns vertex v's label size in portals.
func (f *Flat) labelPortals(v int) int {
	return int(f.portalOff[f.entryOff[v+1]] - f.portalOff[f.entryOff[v]])
}

// ResidentBytes returns the memory the Flat holds for serving: the
// capacity of every slice it references (tables, sweep lane, walk
// layout), in bytes. A frozen Flat shares its keys, rows, lane and path
// geometry with its Oracle, so while the Oracle is alive this counts
// memory the two hold together.
func (f *Flat) ResidentBytes() int {
	t := &f.tables
	return sliceBytes(t.keys) + sliceBytes(t.entryOff) + sliceBytes(t.entryKey) +
		sliceBytes(t.portalOff) + sliceBytes(t.pathOff) +
		sliceBytes(t.pathVert) + sliceBytes(t.pathPos) +
		sliceBytes(f.lane) + sliceBytes(f.walkBlk) + sliceBytes(f.walkSlot)
}

// sliceBytes is the size of s's backing array up to its capacity.
func sliceBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// LaneAligned reports whether the sweep-lane pool starts on a 64-byte
// boundary. buildLane aligns it unconditionally, so false means the derived
// layout regressed; an empty pool counts as aligned.
func (f *Flat) LaneAligned() bool {
	return len(f.lane) == 0 || uintptr(unsafe.Pointer(&f.lane[0]))%64 == 0
}

// PortalRunLengths appends the per-entry portal-run lengths (the k of
// each blocked lane group) to dst and returns it — the distribution
// cmd/inspect reports to explain sweep cost.
func (f *Flat) PortalRunLengths(dst []int) []int {
	for e := 0; e+1 < len(f.portalOff); e++ {
		dst = append(dst, int(f.portalOff[e+1]-f.portalOff[e]))
	}
	return dst
}

// SetMetrics attaches (or, with nil, detaches) serving metrics:
// "oracle.query_ns" and "oracle.query_portals" observe single queries
// (the same instruments as Oracle.SetMetrics), "oracle.batch_qps"
// records the throughput of the last QueryBatch, and "oracle.flat_bytes"
// and "oracle.resident_bytes" are set once to the encoded size and the
// resident size (ResidentBytes) of this Flat.
func (f *Flat) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		f.qLatency, f.qPortals, f.batchQPS = nil, nil, nil
		return
	}
	f.qLatency = reg.Histogram("oracle.query_ns")
	f.qPortals = reg.Histogram("oracle.query_portals")
	f.batchQPS = reg.Gauge("oracle.batch_qps")
	reg.Gauge("oracle.flat_bytes").Set(int64(f.EncodedSize()))
	reg.Gauge("oracle.resident_bytes").Set(int64(f.ResidentBytes()))
}

// SetSlowSampler attaches (or, with nil, detaches) a slow-query exemplar
// reservoir: every instrumented Query offers its (u, v, dist, ns) tuple,
// and the sampler retains the slowest. The disabled path (no sampler, no
// metrics) stays a single nil check with no allocation; the enabled path
// is allocation-free too.
func (f *Flat) SetSlowSampler(s *obs.SlowQuerySampler) { f.slow = s }

// Query returns the same (1+ε)-approximate distance as the source
// Oracle.Query, bit for bit: it is the same engine on the same rows. It
// is goroutine-safe and allocation-free; malformed vertex IDs report
// +Inf. With metrics or a slow-query sampler attached it observes the
// query latency and portal work, including on the u == v fast path.
func (f *Flat) Query(u, v int) float64 {
	if u < 0 || v < 0 || u >= f.n || v >= f.n {
		return math.Inf(1)
	}
	if f.qLatency == nil && f.slow == nil {
		if u == v {
			return 0
		}
		est, _ := f.query(u, v)
		return est
	}
	start := time.Now()
	if u == v {
		ns := time.Since(start)
		f.qLatency.Observe(float64(ns))
		f.qPortals.Observe(0)
		f.slow.Observe(int32(u), int32(v), 0, ns.Nanoseconds())
		return 0
	}
	est, portals := f.query(u, v)
	ns := time.Since(start)
	f.qLatency.Observe(float64(ns))
	f.qPortals.Observe(float64(portals))
	f.slow.Observe(int32(u), int32(v), est, ns.Nanoseconds())
	return est
}

// gallopSkew is the length ratio at which the entry-key intersection
// switches from linear advance to galloping: with one list ≥8× longer,
// exponential probe + binary search bounds the long side's cost at
// O(short · log(long/short)) instead of O(long) — the skewed-degree
// regime where a hub vertex carries a huge label and its partner a tiny
// one.
const gallopSkew = 8

// gallopTo returns the first index in [lo, hi) with keys[x] >= target.
// The caller guarantees keys[lo] < target. Exponential probe doubles the
// step until it overshoots, then a binary search pins the boundary
// inside the last step — the classic galloping primitive, O(log gap).
//
//pathsep:hotpath
func gallopTo(keys []int32, lo, hi int, target int32) int {
	step := 1
	for lo+step < hi && keys[lo+step] < target {
		lo += step
		step <<= 1
	}
	top := lo + step
	if top > hi {
		top = hi
	}
	// Invariant: keys[lo] < target <= keys[top] (or top == hi).
	for lo+1 < top {
		mid := int(uint(lo+top) >> 1)
		if keys[mid] < target {
			lo = mid
		} else {
			top = mid
		}
	}
	return top
}

// sweepRec folds one matched key's merged sweep over two record runs
// (kA/kB are the runs' lengths in lane slots, 3 per portal; see the
// lane layout doc on Flat) and returns best folded with the run pair's
// candidates. Consuming element x of one side folds the single
// candidate fl(fl(Dist_x−pos_x) + smin_other), which covers every legal
// pairing of x at once — the other side's unconsumed suffix is exactly
// x's partner set — so each step is one subtract-add-compare on values
// the step already loads (pos_x feeds the merge comparison too), there
// are no running min registers, and when either side runs out the remainder
// has no partners and the sweep simply stops: no tail pass. The advance
// is a predicted branch on purpose: a branchless select would chain the
// next load address through the compare and serialize the memory level
// parallelism the speculative fetch down the predicted path provides.
// A separate function keeps the loop's live values inside one register
// file instead of spilling the caller's merge state around it.
//
//pathsep:hotpath
func sweepRec(recA, recB []float64, kA, kB int, best float64) float64 {
	if kA == 0 || kB == 0 {
		return best
	}
	_ = recA[kA-1]
	_ = recB[kB-1]
	xa, yb := 0, 0
	for {
		if recA[xa] <= recB[yb] {
			if est := recA[xa+1] - recA[xa] + recB[yb+2]; est < best {
				best = est
			}
			if xa += 3; xa >= kA {
				break
			}
		} else {
			if est := recB[yb+1] - recB[yb] + recA[xa+2]; est < best {
				best = est
			}
			if yb += 3; yb >= kB {
				break
			}
		}
	}
	return best
}

// matchBuf is the stack window of the two-phase merge-join: matched
// entry pairs collect here while the key merge runs, then sweep in one
// second pass. Collecting first lets the collect loop touch every
// matched run's first lane line up front, so the runs' cache misses
// resolve in parallel instead of serializing one sweep at a time; a
// typical query matches 3–4 keys, so the window rarely flushes early.
const matchBuf = 16

// query is the flat merge-join: two CSR entry ranges advance on int32 key
// IDs (galloping over the longer one when the lists are ≥8× skewed);
// matched entries run pairMin's merged sweep (sweepRec) over the blocked
// record lanes, collected first through the matchBuf window (see above).
// The candidate values are exactly queryLabels'/pairMin's — min over an
// identical multiset — which the differential tests pin down bit for bit.
//
//pathsep:hotpath
func (f *Flat) query(u, v int) (float64, int) {
	best := math.Inf(1)
	portals := 0
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
				best, portals = f.sweepMatches(mA[:nm], mB[:nm], best, portals)
				nm = 0
			}
			mA[nm], mB[nm] = int32(i), int32(j)
			nm++
			// Touch both runs' first lane lines now; the loads carry no
			// dependency, so the misses overlap with the rest of the merge.
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
	best, portals = f.sweepMatches(mA[:nm], mB[:nm], best, portals)
	if touch < 0 {
		// Unreachable (positions are non-negative), but keeps the touch
		// loads live without a data dependency into the sweep phase.
		portals = 0
	}
	return best, portals
}

// sweepMatches folds the collected matched entry pairs' sweeps into best
// (see query; portals accumulates the pool records visited for the
// query_portals histogram).
//
//pathsep:hotpath
func (f *Flat) sweepMatches(mA, mB []int32, best float64, portals int) (float64, int) {
	po, ln := f.portalOff, f.lane
	for t := 0; t < len(mA) && t < len(mB); t++ {
		i, j := int(mA[t]), int(mB[t])
		ia0, ka := int(po[i]), int(po[i+1]-po[i])
		ib0, kb := int(po[j]), int(po[j+1]-po[j])
		portals += ka + kb
		kA, kB := 3*ka, 3*kb
		best = sweepRec(ln[3*ia0:3*ia0+kA], ln[3*ib0:3*ib0+kB], kA, kB, best)
	}
	return best, portals
}

// answer is Query without instrumentation: the per-pair unit of QueryBatch.
//
//pathsep:hotpath
func (f *Flat) answer(u, v int) float64 {
	if u < 0 || v < 0 || u >= f.n || v >= f.n {
		return math.Inf(1)
	}
	if u == v {
		return 0
	}
	est, _ := f.query(u, v)
	return est
}

// Pair is one (U, V) query of a batch.
type Pair struct {
	U, V int32
}

// batchChunksPerWorker over-splits a batch so workers that hit cheap pairs
// steal further chunks instead of idling.
const batchChunksPerWorker = 8

// Batch locality scheduling: a chunk's pairs are answered in an order
// that visits the portal pool front to back instead of at the caller's
// random walk, so consecutive queries hit overlapping entry-table and
// lane regions while they are still cached. schedWindow bounds the
// reorder window (and the on-stack scratch: 8 bytes per pair);
// schedMinPairs keeps tiny batches on the straight path, where a sort
// costs more than the locality buys.
const (
	schedWindow   = 2048
	schedMinPairs = 128
)

// schedKey packs the locality sort key for one pair: the high 16 bits
// are u's entry-offset block (each block names a contiguous ~64-entry
// portal region; see derive for the shifts), the low 16 bits v's, so the
// sort clusters first by the u-side region and then by the v-side within
// it. Out-of-range pairs sort last. The key orders work only — answers
// land in their original slots regardless.
func (f *Flat) schedKey(p Pair) uint64 {
	if p.U < 0 || p.V < 0 || int(p.U) >= f.n || int(p.V) >= f.n {
		return (1 << 32) - 1
	}
	eu := uint64(f.entryOff[p.U]) >> f.schedU
	ev := uint64(f.entryOff[p.V]) >> f.schedV
	return eu<<16 | ev
}

// schedSort orders the window's packed (key, slot) records by their
// high-32 key with a 3-pass LSD radix over 11-bit digits — the generic
// comparison sort cost ~60ns/pair here, an order of magnitude more than
// counting passes over a 2048-record window. Radix is stable and the
// window is filled in slot order, so equal keys keep ascending slots:
// the exact order a full-word comparison sort of key<<32|slot produces.
// Passes whose digit is constant across the window (the common case for
// the top digits of small images) skip their scatter. tmp is caller
// scratch of the same length.
func schedSort(s, tmp []uint64) {
	const rbits, rsize = 11, 1 << 11
	src, dst := s, tmp
	for shift := uint(32); shift < 64; shift += rbits {
		var cnt [rsize]int32
		for _, v := range src {
			cnt[(v>>shift)&(rsize-1)]++
		}
		if cnt[(src[0]>>shift)&(rsize-1)] == int32(len(src)) {
			continue
		}
		pos := int32(0)
		for d := 0; d < rsize; d++ {
			c := cnt[d]
			cnt[d] = pos
			pos += c
		}
		for _, v := range src {
			d := (v >> shift) & (rsize - 1)
			dst[cnt[d]] = v
			cnt[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// touchPair pulls the pair's entry-table cache lines (its entryKey and
// portalOff run heads) without answering it. The answer loops call it
// two pairs ahead of the one they answer, so the next queries' first
// misses resolve while the current query computes; the returned sum
// only exists to keep the loads live (see runtime.KeepAlive in
// answerRange).
//
//pathsep:hotpath
func (f *Flat) touchPair(p Pair) int64 {
	if p.U < 0 || p.V < 0 || int(p.U) >= f.n || int(p.V) >= f.n {
		return 0
	}
	iu, iv := f.entryOff[p.U], f.entryOff[p.V]
	t := int64(f.portalOff[iu]) + int64(f.portalOff[iv])
	if int(iu) < len(f.entryKey) {
		t += int64(f.entryKey[iu])
	}
	if int(iv) < len(f.entryKey) {
		t += int64(f.entryKey[iv])
	}
	return t
}

// answerRange answers pairs[lo:hi] into out[lo:hi], visiting each
// schedWindow-sized window in locality order (see schedKey). The scratch
// holding the packed (key, slot) records lives on the stack, so the warm
// path allocates nothing; results are written to their original slots,
// so output order and determinism are unaffected by the schedule. Both
// answer loops run two pairs ahead of themselves through touchPair, so
// consecutive queries' entry-table misses overlap instead of chaining.
func (f *Flat) answerRange(pairs []Pair, out []float64, lo, hi int) {
	touch := int64(0)
	if hi-lo < schedMinPairs {
		for i := lo; i < hi; i++ {
			if i+2 < hi {
				touch += f.touchPair(pairs[i+2])
			}
			out[i] = f.answer(int(pairs[i].U), int(pairs[i].V))
		}
		runtime.KeepAlive(touch)
		return
	}
	var sched, scratch [schedWindow]uint64
	for wlo := lo; wlo < hi; wlo += schedWindow {
		whi := wlo + schedWindow
		if whi > hi {
			whi = hi
		}
		s := sched[:whi-wlo]
		for x := range s {
			s[x] = f.schedKey(pairs[wlo+x])<<32 | uint64(uint32(x))
		}
		schedSort(s, scratch[:len(s)])
		for x, rec := range s {
			if x+2 < len(s) {
				touch += f.touchPair(pairs[wlo+int(uint32(s[x+2]))])
			}
			i := wlo + int(uint32(rec))
			out[i] = f.answer(int(pairs[i].U), int(pairs[i].V))
		}
	}
	runtime.KeepAlive(touch)
}

// QueryBatch answers pairs[i] into out[i] for every i, fanning the work
// out over runtime.GOMAXPROCS(0) workers. out is reused when it has
// sufficient capacity and allocated otherwise; the (possibly re-sliced)
// result is returned, so callers amortize to zero allocations by passing
// the previous batch's slice back in. Each worker answers its chunk in
// locality order (see answerRange) but writes every answer to the pair's
// original slot, so results are identical to calling Query per pair (and
// therefore to Oracle.Query), for every worker count and every caller
// ordering. With metrics attached, the batch records its throughput in
// the "oracle.batch_qps" gauge; per-query histograms are not touched.
func (f *Flat) QueryBatch(pairs []Pair, out []float64) []float64 {
	return f.QueryBatchWorkers(pairs, out, 0)
}

// QueryBatchWorkers is QueryBatch with an explicit worker-pool width
// (0 means runtime.GOMAXPROCS(0), 1 runs serially on the caller).
func (f *Flat) QueryBatchWorkers(pairs []Pair, out []float64, workers int) []float64 {
	if cap(out) < len(pairs) {
		out = make([]float64, len(pairs))
	}
	out = out[:len(pairs)]
	if len(pairs) == 0 {
		return out
	}
	start := time.Now()
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		// Serial fast path: no pool, no closure — keeps the reused-buffer
		// contract at a true zero allocations per batch (answerRange's
		// scheduling scratch is on the stack).
		f.answerRange(pairs, out, 0, len(pairs))
	} else {
		pool := par.New(workers, nil)
		chunks := pool.Workers() * batchChunksPerWorker
		if chunks > len(pairs) {
			chunks = len(pairs)
		}
		size := (len(pairs) + chunks - 1) / chunks
		pool.ForEach(chunks, func(c int) {
			lo := c * size
			hi := lo + size
			if hi > len(pairs) {
				hi = len(pairs)
			}
			f.answerRange(pairs, out, lo, hi)
		})
		pool.Finish()
	}
	if f.batchQPS != nil {
		if ns := time.Since(start).Nanoseconds(); ns > 0 {
			f.batchQPS.Set(int64(float64(len(pairs)) * 1e9 / float64(ns)))
		}
	}
	return out
}
