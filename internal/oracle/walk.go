package oracle

import (
	"fmt"
	"math"
	"math/bits"

	"pathsep/internal/par"
)

// trailerWords is the length of the trailer that closes every chain's
// owner run in walkBlk: [−2−jumpSlot, jumpEnd, anchor, tail]. The first
// word is always negative — −1 at an anchor head, ≤ −2 where the head
// hops into its parent chain's segment [jumpSlot, jumpEnd] — and owner
// vertices never are, so a walk finds its run's end by scanning forward
// (runEnd). anchor is the chain's final anchor index into the key's
// path-geometry span, and tail the walk's output length past the chain
// head (0 at an anchor head).
const trailerWords = 4

// runEnd returns the last slot of the owner run holding slot s: the
// slot before the run's trailer.
func runEnd(blk []int32, s int32) int32 {
	for blk[s+1] >= 0 {
		s++
	}
	return s
}

// Marks placeKey's climb leaves on a record while it orders the key. An
// ordered record's mark is 1, the subtree size it starts from.
const (
	markClimbing = -1 // on the parent-link path being climbed
	markStranded = -2 // on or behind a hop cycle: it reaches no anchor
	markOrdered  = 1
)

// deriveWalk compiles the hop forest — links holds each record's hop
// link, the pool index of the next record on its chain or a negative
// word at the chain's anchor, and linked marks every record some link
// names — into the walkBlk/walkSlot layout on a pool of the given width
// (0 means runtime.GOMAXPROCS(0)); the links themselves are not kept.
// Chains are emitted in heavy-path order — each record's heaviest child
// is placed immediately before it — so a chain from any slot to its head
// is one contiguous owner run the walk copies in bulk; only light edges
// jump, and a root-to-leaf walk crosses O(log P) of them. Each anchor
// resolves its path-geometry index here, by its own vertex on its key's
// path, into its chains' trailers, where QueryPath reads it. Where links
// is the lane, every record's word ends up holding its position: its
// chain anchor's path_pos entry.
//
// Every hop chain stays on one separator path, so the forest splits into
// one independent forest per key. A counting pass (keyRegions) checks
// that every hop stays in its key and gives each key its region of
// walkBlk, the keys in ID order; then each key is one pool task
// (placeKey), on the scratch keyTasks bounds, that writes its chains
// straight into its region, parents first. The layout is therefore the
// same word for word at every pool width and task order.
//
// The derivation fails when a hop links records of two keys, naming the
// lowest such record, before any key is laid out. Otherwise it fails,
// naming the lowest failing key, when a key's path repeats a vertex, an
// anchor's vertex is not on its key's path, or records reach no anchor
// (a hop cycle, or a chain into one). Each would leave a record without a
// position, and a cross-key hop would also make QueryPath read another
// key's geometry out of range. Where it writes positions, it also fails
// when they decrease within an entry, the merge order the sweep relies
// on.
func (f *Flat) deriveWalk(kp *keyPartition, links hopLinks, linked linkSet, workers int) error {
	f.walkBlk, f.walkSlot = nil, nil
	if len(kp.slot) == 0 {
		return nil
	}
	pool := par.New(workers, nil)
	region, err := f.keyRegions(pool, kp, links, linked)
	if err != nil {
		return err
	}
	// The slot map is read only within each key from here on: its array
	// becomes walkSlot, which each key task writes for its own records
	// once it has read their links.
	f.walkBlk, f.walkSlot = make([]int32, region[len(region)-1]), kp.slot
	tasks := newKeyTasks(kp, pool.Workers(), f.n)
	errs := make([]error, len(f.keys))
	tasks.run(pool, func(k int32, s *walkScratch) { errs[k] = f.placeKey(k, kp, links, region[k], s) })
	return firstErr(errs)
}

// firstErr returns the first non-nil error of errs, in index order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// keyRegions is the derivation's counting pass. On pool, by entry
// ranges in pool order, it refuses a hop whose target falls outside its
// record's key, naming the lowest such record; then, by key ranges, it
// counts each key's layout words: one per record and trailerWords for
// each record no link names, which ends exactly one chain. It returns
// their prefix sums: key k's layout fills walkBlk[region[k]:region[k+1]].
func (f *Flat) keyRegions(pool *par.Pool, kp *keyPartition, links hopLinks, linked linkSet) ([]int32, error) {
	entries := newVertexSplit(len(f.entryKey), rangesPerWorker*pool.Workers())
	errs := make([]error, entries.ranges)
	pool.ForEach(entries.ranges, func(i int) {
		lo, hi := entries.bounds(i)
		for e := lo; e < hi; e++ {
			k := f.entryKey[e]
			klo, khi := kp.recOff[k], kp.recOff[k+1]
			for r := f.portalOff[e]; r < f.portalOff[e+1]; r++ {
				if h := links.at(r); h >= 0 && (kp.slot[h] < klo || kp.slot[h] >= khi) {
					errs[i] = fmt.Errorf("hop of record %d links to record %d of another key", r, h)
					return
				}
			}
		}
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	nk := len(f.keys)
	region := make([]int32, nk+1)
	keys := newVertexSplit(nk, rangesPerWorker*pool.Workers())
	pool.ForEach(keys.ranges, func(i int) {
		lo, hi := keys.bounds(i)
		for k := lo; k < hi; k++ {
			n, named := kp.recOff[k+1]-kp.recOff[k], int32(0)
			for _, e := range kp.ent[kp.entOff[k]:kp.entOff[k+1]] {
				named += linked.count(f.portalOff[e], f.portalOff[e+1])
			}
			region[k+1] = n + trailerWords*(n-named)
		}
	})
	for k := range nk {
		region[k+1] += region[k]
	}
	return region, nil
}

// linkSet holds one bit per pool record, set where some record's hop
// link names it: the records that have a child in the hop forest. The
// decode marks it as the hop section streams in, and Freeze from Build's
// links; the counting pass reads it.
type linkSet []uint32

func newLinkSet(records int) linkSet { return make(linkSet, (records+31)/32) }

// add marks record h.
func (s linkSet) add(h int32) { s[h>>5] |= 1 << (h & 31) }

// count returns how many of records [lo, hi) are marked.
func (s linkSet) count(lo, hi int32) int32 {
	n := 0
	for lo < hi {
		w := s[lo>>5] >> (lo & 31)
		if take := min(32-lo&31, hi-lo); take < 32 {
			w &= 1<<take - 1
			lo += take
		} else {
			lo += 32
		}
		n += bits.OnesCount32(w)
	}
	return int32(n)
}

// keyTasks schedules the walk derivation's key tasks so that the scratch
// they hold together does not grow with the pool width w. A key of more
// than maxKey/w records is big: the big keys run one after another as
// one task on one scratch set sized to the largest key, and every other
// key is a task of its own on a set sized to the largest of them, at
// most maxKey/w records. The big task is submitted first, so the other
// workers lay out the small keys beside it, at most w−1 at a time; when
// it is done it hands its set, carved to the small size, to the small
// tasks. So at most w−1 small sets are ever allocated, and the sets hold
// at most maxKey + (w−1)·⌊maxKey/w⌋ records at any width. At width 1 no
// key is big.
type keyTasks struct {
	big, small []int32
	// bigSet is the big task's set, and carved the small set inside it
	// that the big task hands over.
	bigSet, carved *walkScratch
	// free holds the small sets, nil until a task first finds one so: a
	// task takes one, and puts it back when done. At most w tasks run at
	// once, so w slots hold every set, the carved one included.
	free     chan *walkScratch
	smallMax int32
	vertices int
}

func newKeyTasks(kp *keyPartition, w, vertices int) *keyTasks {
	t := &keyTasks{free: make(chan *walkScratch, w), vertices: vertices}
	limit := kp.maxKey / int32(w)
	for k := 0; k+1 < len(kp.recOff); k++ {
		if n := kp.recOff[k+1] - kp.recOff[k]; n > limit {
			t.big = append(t.big, int32(k))
		} else {
			t.small = append(t.small, int32(k))
			t.smallMax = max(t.smallMax, n)
		}
	}
	sets := w
	if len(t.big) > 0 {
		t.bigSet = newWalkScratch(kp.maxKey, vertices)
		t.carved = t.bigSet.carve(t.smallMax)
		sets--
	}
	for range sets {
		t.free <- nil
	}
	return t
}

// run calls fn on every key with scratch for it, on pool; the big task
// hands over the carved set once its keys are done.
func (t *keyTasks) run(pool *par.Pool, fn func(k int32, s *walkScratch)) {
	pool.ForEach(1+len(t.small), func(i int) {
		if i == 0 {
			if t.bigSet != nil {
				for _, k := range t.big {
					fn(k, t.bigSet)
				}
				t.free <- t.carved
			}
			return
		}
		s := <-t.free
		if s == nil {
			s = newWalkScratch(t.smallMax, t.vertices)
		}
		fn(t.small[i-1], s)
		t.free <- s
	})
}

// keyPartition is the pool split by key. Key k owns the entries
// ent[entOff[k]:entOff[k+1]], ascending, so its records come in pool
// order, with owning vertices vert[entOff[k]:entOff[k+1]], and the
// key-major slots recOff[k]..recOff[k+1]; slot[r] is record r's, so a hop
// target h belongs to key k exactly when slot[h] falls in k's range (the
// counting pass checks it, and placeKey maps each hop to a key-local
// parent by it before it writes the same array as walkSlot).
type keyPartition struct {
	entOff, ent, vert []int32
	recOff, slot      []int32
	maxKey            int32
}

// partitionByKey builds the key partition of f's pool on pool (nil runs
// it serially): each vertex range counts its entries and records per
// key, one prefix sum in (key, range) order gives every range its first
// entry and slot in each key, and each range then fills its own. The
// arrays are the same at every width.
func (f *Flat) partitionByKey(pool *par.Pool) *keyPartition {
	nk := len(f.keys)
	kp := &keyPartition{
		entOff: make([]int32, nk+1),
		ent:    make([]int32, len(f.entryKey)),
		vert:   make([]int32, len(f.entryKey)),
		recOff: make([]int32, nk+1),
		slot:   make([]int32, len(f.lane)),
	}
	split := newVertexSplit(f.n, pool.Workers())
	// Range i's row of each: its entries and records of key k, then its
	// next entry and next slot in key k.
	nextEnt, nextSlot := make([]int32, split.ranges*nk), make([]int32, split.ranges*nk)
	pool.ForEach(split.ranges, func(i int) {
		lo, hi := split.bounds(i)
		ents, recs := nextEnt[i*nk:(i+1)*nk], nextSlot[i*nk:(i+1)*nk]
		for e := f.entryOff[lo]; e < f.entryOff[hi]; e++ {
			k := f.entryKey[e]
			ents[k]++
			recs[k] += f.portalOff[e+1] - f.portalOff[e]
		}
	})
	var ent, slot int32
	for k := range nk {
		kp.entOff[k], kp.recOff[k] = ent, slot
		for i := k; i < len(nextEnt); i += nk {
			ent, nextEnt[i] = ent+nextEnt[i], ent
			slot, nextSlot[i] = slot+nextSlot[i], slot
		}
		kp.maxKey = max(kp.maxKey, slot-kp.recOff[k])
	}
	kp.entOff[nk], kp.recOff[nk] = ent, slot
	pool.ForEach(split.ranges, func(i int) {
		lo, hi := split.bounds(i)
		ents, recs := nextEnt[i*nk:(i+1)*nk], nextSlot[i*nk:(i+1)*nk]
		for v := lo; v < hi; v++ {
			for e := f.entryOff[v]; e < f.entryOff[v+1]; e++ {
				k := f.entryKey[e]
				kp.ent[ents[k]], kp.vert[ents[k]] = e, int32(v)
				ents[k]++
				s := recs[k]
				for r := f.portalOff[e]; r < f.portalOff[e+1]; r++ {
					kp.slot[r] = s
					s++
				}
				recs[k] = s
			}
		}
	})
	return kp
}

// hopLinks is the walk derivation's link store: one word per pool record
// that holds the record's hop link and, where the store is the lane, at
// last its position (placeKey). A decode keeps the links in the lane's
// Pos words, which hold nothing until the walk gives each record its
// position, so the links cost it no memory: a float64 holds every int32
// exactly. Freeze's lane is the Oracle's, shared, positioned and
// queryable, so Freeze reads Build's links in place, from ids, and gets
// no positions written.
type hopLinks struct {
	lane []Portal
	ids  []int32
}

// at returns record r's hop link.
func (l hopLinks) at(r int32) int32 {
	if l.lane != nil {
		return int32(l.lane[r].Pos)
	}
	return l.ids[r]
}

// walkScratch is one key task's scratch: rec and order sized to the
// task's largest key and indexed by key-local slot, and at, indexed by
// vertex, which holds 1 + the vertex's index on the path of the key being
// laid out, and 0 between keys. order lists the records parents first,
// and its tail is the climb stack until then.
type walkScratch struct {
	rec       []walkRec
	order, at []int32
}

// walkRec is one record's scratch in placeKey, four int32 words beside
// its word of order, so the fields a step reads at a parent or a child
// share one cache line. up is the parent link (−1 − the path index at an
// anchor). slot is the climb mark, then the subtree size, then the walk
// slot. heavy is the heavy child, then the run's last slot. chain is the
// heavy child's subtree size until the record's own turn in the size
// pass, then its heavy-chain length (−1 on a heavy child), then its
// anchor index.
type walkRec struct {
	up, slot, heavy, chain int32
}

func newWalkScratch(maxKey int32, vertices int) *walkScratch {
	return &walkScratch{rec: make([]walkRec, maxKey), order: make([]int32, maxKey), at: make([]int32, vertices)}
}

// carve returns a set for keys of at most m records inside s's per-record
// arrays. It shares s's vertex marks, which are 0 between keys, so it
// starts as a fresh set does; s must not be used while it is.
func (s *walkScratch) carve(m int32) *walkScratch {
	return &walkScratch{rec: s.rec[:m:m], order: s.order[:m:m], at: s.at}
}

// placeKey lays out key k's trees in walkBlk from slot at on, writes
// every record's slot into walkSlot and, where links is the lane, its
// position into its Pos word. Local slots run in pool order. It
//
//  1. marks the key's path vertices, failing on a repeat, and maps every
//     record's hop to a key-local parent, or an anchor to −1 − its
//     vertex's path index, failing on an anchor off the path;
//  2. orders the records parents first, each record after the unordered
//     ancestors a climb up its parent links finds, in local slot order;
//     a climb that meets itself has found a cycle, and the key fails
//     with the count of records on or behind one;
//  3. in one reverse pass over that order sums subtree sizes, picks each
//     record's heavy child (the largest subtree, the lowest slot on ties)
//     and counts each record's heavy chain down to its leaf;
//  4. in one forward pass places each chain when its head comes up: a
//     head is an anchor or a record that is not its parent's heavy
//     child. Its run goes child to parent, the head on its last slot,
//     then its trailer; a heavy child takes its parent's slot minus one;
//  5. in pool order writes each record's walk slot, its owning vertex
//     into that slot and, where links is the lane, its anchor's path
//     position over its link, failing on positions that decrease within
//     an entry.
func (f *Flat) placeKey(k int32, kp *keyPartition, links hopLinks, at int32, s *walkScratch) error {
	path := f.pathVert[f.pathOff[k]:f.pathOff[k+1]]
	defer func() {
		for _, v := range path {
			s.at[v] = 0
		}
	}()
	for x, v := range path {
		if s.at[v] != 0 {
			return fmt.Errorf("path of key %d repeats vertex %d", k, v)
		}
		s.at[v] = int32(x) + 1
	}
	base, n := kp.recOff[k], kp.recOff[k+1]-kp.recOff[k]
	rec, order := s.rec[:n], s.order[:n]
	x := int32(0)
	for i := kp.entOff[k]; i < kp.entOff[k+1]; i++ {
		e, v := kp.ent[i], kp.vert[i]
		for r := f.portalOff[e]; r < f.portalOff[e+1]; r, x = r+1, x+1 {
			rec[x].slot = 0
			if h := links.at(r); h >= 0 {
				rec[x].up = kp.slot[h] - base
				continue
			}
			if s.at[v] == 0 {
				return fmt.Errorf("anchor record %d: vertex %d is not on the path of key %d", r, v, k)
			}
			rec[x].up = -s.at[v]
		}
	}

	// Parents first: climb from each unmarked record to an anchor or a
	// marked record, pushing onto the stack at order's tail, then order
	// the climbed records top down. The ordered records and the stack
	// never overlap. An ordered record starts with no heavy child.
	placed, lost := int32(0), int32(0)
	for x0 := range n {
		top := n
		for y := x0; rec[y].slot == 0; y = rec[y].up {
			rec[y].slot = markClimbing
			top--
			order[top] = y
			if rec[y].up < 0 {
				break
			}
		}
		if top == n {
			continue
		}
		if p := rec[order[top]].up; p >= 0 && rec[p].slot != markOrdered {
			for _, y := range order[top:] {
				rec[y].slot = markStranded
			}
			lost += n - top
			continue
		}
		for _, y := range order[top:] {
			rec[y].slot, rec[y].heavy, rec[y].chain = markOrdered, -1, 0
			order[placed] = y
			placed++
		}
	}
	if lost > 0 {
		return fmt.Errorf("%d records of key %d reach no anchor: their hops form a cycle or lead into one", lost, k)
	}

	// Subtree sizes, heavy children and heavy chains, children before
	// parents. Each record's turn finds its subtree summed and its heavy
	// child final.
	for j := n - 1; j >= 0; j-- {
		y := order[j]
		r := &rec[y]
		c := int32(1)
		if h := r.heavy; h >= 0 {
			c += rec[h].chain
			rec[h].chain = -1
		}
		r.chain = c
		if r.up >= 0 {
			q := &rec[r.up]
			q.slot += r.slot
			if r.slot > q.chain || (r.slot == q.chain && y < q.heavy) {
				q.heavy, q.chain = y, r.slot
			}
		}
	}

	// The chains, parents first. A head — an anchor or a light child —
	// lays its chain's run down from the cursor, the head on its last
	// slot, and its trailer after it; a heavy child takes its parent's
	// slot minus one. A light child's trailer jumps to its parent's slot
	// and run end; the walk length past its head is the parent's, read off
	// the parent chain's trailer. Each placed record keeps its walk slot,
	// its run's last slot and its anchor index.
	blk := f.walkBlk
	for _, y := range order {
		r := &rec[y]
		if r.up < 0 {
			last := at + r.chain - 1
			r.slot, r.heavy, r.chain = last, last, -1-r.up
			blk[last+1], blk[last+2], blk[last+3], blk[last+4] = -1, -1, r.chain, 0
			at = last + 1 + trailerWords
			continue
		}
		q := &rec[r.up]
		if r.chain < 0 {
			r.slot, r.heavy, r.chain = q.slot-1, q.heavy, q.chain
			continue
		}
		last := at + r.chain - 1
		r.slot, r.heavy, r.chain = last, last, q.chain
		blk[last+1], blk[last+2], blk[last+3], blk[last+4] = -2-q.slot, q.heavy, q.chain, q.heavy-q.slot+1+blk[q.heavy+4]
		at = last + 1 + trailerWords
	}

	// The records in pool order, local slot by local slot: each takes its
	// walk slot, its owning vertex goes into that slot of walkBlk, and,
	// where links is the lane, its anchor's path position goes over its
	// link.
	geo := f.pathPos[f.pathOff[k]:f.pathOff[k+1]]
	x = 0
	for i := kp.entOff[k]; i < kp.entOff[k+1]; i++ {
		e, v := kp.ent[i], kp.vert[i]
		prev := math.Inf(-1)
		for r := f.portalOff[e]; r < f.portalOff[e+1]; r, x = r+1, x+1 {
			f.walkSlot[r] = rec[x].slot
			blk[rec[x].slot] = v
			if links.lane == nil {
				continue
			}
			p := geo[rec[x].chain]
			if p < prev {
				return fmt.Errorf("portal positions of entry %d decrease at record %d", e, r)
			}
			links.lane[r].Pos, prev = p, p
		}
	}
	return nil
}
