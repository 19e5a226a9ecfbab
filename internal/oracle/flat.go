package oracle

import (
	"fmt"
	"math"
	"runtime"
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
// resolved hop links, and DecodeFlatFrom rebuilds all of it from an
// image stream, the portal positions included, which the image leaves to
// the walk; a Flat never aliases an image buffer. It is immutable after
// construction, so Query and QueryBatch are safe for unbounded
// concurrent use. Queries
// return bit-identical results to the label-walking reference the tests
// keep (queryLabels over the same labels): the merge-join visits shared
// keys in the same order (galloping only skips keys that cannot match),
// and the portal sweep is pairMin's fold over the same records — the
// same candidates, each computed by the same expression from the same
// Pos and Dist, folded in the same order — so every float64 comparison
// sees the same bits.
type Flat struct {
	n    int
	eps  float64
	mode Mode

	tables

	// The sweep lane: entry e's portal run is lane[portalOff[e]:
	// portalOff[e+1]], one 16-byte record per portal, the label's own
	// Portal, sorted by position. sweepRec folds two runs exactly as
	// pairMin folds two labels' portal lists, computing each record's
	// fl(Dist+Pos) and fl(Dist−Pos) where it uses them, so the lane holds
	// nothing a label does not. The lane is the only resident copy of the
	// portal pool (Encode writes the image's distances from it) and is
	// 64-byte aligned. Every record's Pos is its chain anchor's path
	// position: a hop links records at one position, and a chain ends at a
	// path vertex's own record, so the image stores no positions and
	// the decode reads them off the walk layout. schedU/schedV are the key
	// shifts the batch locality scheduler derives from the entry-table
	// size.
	lane           []Portal
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

// Freeze compiles the oracle into its flat serving form. The Flat shares
// the oracle's immutable rows — keys, CSR tables, sweep lane and path
// geometry — and adds what path reporting needs: the walk layout
// (deriveWalk), derived from every hop vertex resolved to the pool index
// of the record it names and scattered into the key partition as a
// decode scatters its hop section (see resolveHops); the resolved links
// are not kept. Freeze fails when a hop names no record or links records
// of two keys, when a record's hops reach no anchor, and when a key's
// path repeats a vertex: an image stores no positions, and such a
// record's would be lost. Every image Freeze returns decodes to the same
// lane and walk layout and reports paths.
func (o *Oracle) Freeze() (*Flat, error) {
	r := &o.rows
	f := &Flat{n: r.n, eps: r.eps, mode: r.mode, tables: r.tables, lane: r.lane}
	kp := f.partitionByKey()
	anchors, err := f.resolveHops(o.hopVert, kp)
	if err != nil {
		return nil, err
	}
	if _, err := f.derive(kp, anchors, 0); err != nil {
		return nil, fmt.Errorf("oracle: freeze: %w", err)
	}
	return f, nil
}

// alignedPortals allocates n lane records whose first one sits on a
// 64-byte boundary, so every lane run begins at a predictable cache-line
// offset. Go only guarantees a Portal array 8-byte alignment, and from a
// base 8 bytes past a 16-byte boundary whole records never reach a line;
// the array is therefore allocated as float64 words, whose 8-byte steps
// reach one within seven, and viewed as records from there.
func alignedPortals(n int) []Portal {
	if n == 0 {
		return nil
	}
	buf := make([]float64, 2*n+7)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%64 != 0 {
		off++
	}
	lane, _ := view[Portal](buf, off, n) // aligned, and 2n words follow off
	return lane
}

// buildLane transcribes the portal runs of entries [e0, e1) into the
// sweep lane (see the lane doc on Flat); pos and dist hold those runs'
// positions and distances back to back, from pool index portalOff[e0].
// A decoded image has no positions, and the decode has already read its
// distances into the lane: with a nil pos, each record's Dist stays, and
// its Pos is the path_pos entry of its chain's anchor, which the walk
// derivation left in anchors. It checks each record on the way: Pos and
// Dist must be NaN-free — a NaN would poison every min-fold the sweep
// computes — and positions must be non-decreasing within each entry, the
// merge order the sweep relies on. +Inf stays legal in Dist: it is the
// unreachable sentinel some constructions store.
//
// buildLane fills the aligned array its caller allocated, before the
// rows are published. Build's and the decode's range tasks each
// transcribe their own disjoint entries.
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
		prev := math.Inf(-1)
		for x := lo; x < hi; x++ {
			var p, d float64
			if pos != nil {
				p, d = pos[x-base], dist[x-base]
			} else {
				p, d = geo[idx[x-lo]], f.lane[x].Dist
			}
			if math.IsNaN(p) || math.IsNaN(d) {
				return fmt.Errorf("portal record %d contains NaN", x)
			}
			if p < prev {
				return fmt.Errorf("portal positions of entry %d decrease at record %d", e, x)
			}
			f.lane[x] = Portal{Pos: p, Dist: d}
			prev = p
		}
	}
	return nil
}

// derive fixes the batch scheduler's key shifts — the coarser of
// (entry-table bits − 16) and 6, so a u-block names a ~64-entry portal
// region and both block numbers fit their 16-bit key lanes — and
// compiles the walk layout from the hop links scattered into kp, with
// anchors anchors, on a pool of the given width (0 means
// runtime.GOMAXPROCS(0)), returning every record's anchor. It fails only
// on hop links deriveWalk refuses.
func (f *Flat) derive(kp *keyPartition, anchors int32, workers int) (anchorRuns, error) {
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
	return f.deriveWalk(kp, anchors, workers)
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
func (f *Flat) NumPortals() int { return len(f.lane) }

// labelPortals returns vertex v's label size in portals.
func (f *Flat) labelPortals(v int) int {
	return int(f.portalOff[f.entryOff[v+1]] - f.portalOff[f.entryOff[v]])
}

// ArraySize is one array a Flat holds for serving: its name and the
// bytes of its backing array up to its capacity.
type ArraySize struct {
	Name  string
	Bytes int
}

// ResidentArrays lists every array the Flat holds for serving: the CSR
// tables, the path geometry, the sweep lane and the walk layout's blocks
// and slots. A frozen Flat shares its keys, rows, lane and path geometry
// with its Oracle, so while the Oracle is alive these count memory the
// two hold together.
func (f *Flat) ResidentArrays() []ArraySize {
	t := &f.tables
	return []ArraySize{
		{"keys", sliceBytes(t.keys)},
		{"entry_off", sliceBytes(t.entryOff)},
		{"entry_key", sliceBytes(t.entryKey)},
		{"portal_off", sliceBytes(t.portalOff)},
		{"path_off", sliceBytes(t.pathOff)},
		{"path_vert", sliceBytes(t.pathVert)},
		{"path_pos", sliceBytes(t.pathPos)},
		{"lane", sliceBytes(f.lane)},
		{"walk_blk", sliceBytes(f.walkBlk)},
		{"walk_slot", sliceBytes(f.walkSlot)},
	}
}

// ResidentBytes returns the memory the Flat holds for serving: the sum
// of ResidentArrays.
func (f *Flat) ResidentBytes() int {
	n := 0
	for _, a := range f.ResidentArrays() {
		n += a.Bytes
	}
	return n
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

// sweepRec folds one matched key's merged sweep over two portal runs
// into best and returns it. It is pairMin's register fold over the lane:
// the runs are consumed in merge order, A first on ties; each consumed
// record folds fl(fl(Dist+Pos) + min_other), where min_other is the
// other side's running minimum of fl(Dist−Pos) over the records before
// it in merge order (its partners), then folds its own fl(Dist−Pos) into
// its side's minimum. Once either run is spent, the records left on the
// other side pair with the spent side's final minimum, and one loop over
// them finishes the sweep. The candidates, their expressions and their
// order are pairMin's, so the result carries its bits. Each side's
// current record stays in registers, so a step loads only the next
// record of the side it consumed. The advance is a predicted branch on
// purpose: a branchless select would chain the next load address
// through the compare and serialize the memory level parallelism the
// speculative fetch down the predicted path provides. A separate
// function keeps the loop's live values inside one register file
// instead of spilling the caller's merge state around it; it stays apart
// from pairMin, the reference the differential tests hold it to.
//
//pathsep:hotpath
func sweepRec(a, b []Portal, best float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return best
	}
	minA, minB := math.Inf(1), math.Inf(1)
	i, j := 0, 0
	pa, pb := a[0], b[0]
	var rest []Portal
	var m float64
	for {
		if pa.Pos <= pb.Pos {
			if est := pa.Dist + pa.Pos + minB; est < best {
				best = est
			}
			if d := pa.Dist - pa.Pos; d < minA {
				minA = d
			}
			if i++; i == len(a) {
				rest, m = b[j:], minA
				break
			}
			pa = a[i]
		} else {
			if est := pb.Dist + pb.Pos + minA; est < best {
				best = est
			}
			if d := pb.Dist - pb.Pos; d < minB {
				minB = d
			}
			if j++; j == len(b) {
				rest, m = a[i:], minB
				break
			}
			pb = b[j]
		}
	}
	for _, p := range rest {
		if est := p.Dist + p.Pos + m; est < best {
			best = est
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
// matched entries run pairMin's merged sweep (sweepRec) over their lane
// runs, collected first through the matchBuf window (see above).
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
		a, b := ln[po[i]:po[i+1]], ln[po[j]:po[j+1]]
		portals += len(a) + len(b)
		best = sweepRec(a, b, best)
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
