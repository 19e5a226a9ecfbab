package oracle

import (
	"fmt"

	"pathsep/internal/par"
)

// startRec is the per-pool-record walk entry: the record's slot and its
// chain's last owner slot in walkBlk (slot -1 when stranded by a corrupt
// image), the chain's final anchor index into the key's path-geometry
// span (-1 when unresolvable), and the walk's total output length from
// this record to its anchor inclusive. Knowing both walks' lengths and
// anchors up front lets QueryPath size the output once and write every
// piece straight into its final position. 16 bytes keeps the record on
// one cache line.
type startRec struct {
	slot   int32
	end    int32
	anchor int32
	depth  int32
}

// deriveWalk compiles the hop forest into the walkBlk/walkFrom layout on
// a pool of the given width (0 means runtime.GOMAXPROCS(0)). Chains are
// emitted in heavy-path order — each record's heaviest child is placed
// immediately before it — so a chain from any slot to its head is one
// contiguous owner run the walk copies in bulk; only light edges jump,
// and a root-to-leaf walk crosses O(log P) of them. Anchor heads resolve
// their path-geometry index here (the one equality search per anchor
// that QueryPath would otherwise run per query). Records on a hop cycle
// (possible only in a corrupt image: decode validates hop ranges, not
// acyclicity) are never reached from an anchor and keep walkFrom slot
// -1, which the walk reports as a dangling record.
//
// Every hop chain stays on one separator path, so the forest splits into
// one independent forest per key. Each key is a pool task (layoutKey)
// that lays its anchors' trees out at tree-relative slots, in scratch
// sized to the largest key; one descending scan over the anchors then
// gives every tree its offset, and two passes over vertex ranges write
// the owner runs and trailers and relocate walkFrom. The trees land where
// a whole-pool pass puts them — the last anchor's tree first, each tree
// whole — so the layout is the same word for word at every pool width
// and task order. A hop linking records of two keys fails the
// derivation: its chain would inherit the other key's anchor index and
// QueryPath would read that key's geometry out of range.
func (f *Flat) deriveWalk(workers int) error {
	p := len(f.hops)
	f.walkBlk, f.walkFrom = nil, make([]startRec, p)
	if p == 0 {
		return nil
	}
	kp := f.partitionByKey()
	pool := par.New(workers, nil)
	// A free list of per-worker scratch: at most Workers() tasks run at
	// once, so at most that many scratch sets are ever allocated.
	free := make(chan *walkScratch, pool.Workers())
	for range pool.Workers() {
		free <- nil
	}
	cross := make([]int32, len(f.keys))
	pool.ForEach(len(f.keys), func(k int) {
		s := <-free
		if s == nil {
			s = newWalkScratch(kp.maxKey)
		}
		cross[k] = f.layoutKey(int32(k), kp, s)
		free <- s
	})
	for _, r := range cross {
		if r >= 0 {
			return fmt.Errorf("hop of record %d links to record %d of another key", r, f.hops[r])
		}
	}
	// Tree offsets: the trees follow one another in descending anchor
	// order.
	total := int32(0)
	for a := len(kp.block) - 1; a >= 0; a-- {
		size := kp.block[a]
		kp.block[a] = total
		total += size
	}
	// Until the relocation, a placed record's anchor field holds its
	// tree's rank. The owner runs and chain trailers go first: a trailer
	// reads its parent's tree-relative slot and end (the parent is in the
	// head's tree, so both take the tree's offset), so walkFrom is
	// relocated only once every trailer is written.
	blk := make([]int32, total)
	split := newVertexSplit(f.n, rangesPerWorker*pool.Workers())
	pool.ForEach(split.ranges, func(i int) {
		lo, hi := split.bounds(i)
		for v := lo; v < hi; v++ {
			for r := f.portalOff[f.entryOff[v]]; r < f.portalOff[f.entryOff[v+1]]; r++ {
				w := f.walkFrom[r]
				if w.slot < 0 {
					continue
				}
				off := kp.block[w.anchor]
				blk[off+w.slot] = int32(v)
				if w.slot == w.end {
					jump, jumpEnd := int32(-1), int32(-1)
					if u := f.hops[r]; u >= 0 {
						jump, jumpEnd = off+f.walkFrom[u].slot, off+f.walkFrom[u].end
					}
					blk[off+w.end+1], blk[off+w.end+2] = jump, jumpEnd
				}
			}
		}
	})
	pool.ForEach(split.ranges, func(i int) {
		lo, hi := split.bounds(i)
		for r := f.portalOff[f.entryOff[lo]]; r < f.portalOff[f.entryOff[hi]]; r++ {
			if w := &f.walkFrom[r]; w.slot >= 0 {
				tree := w.anchor
				w.slot += kp.block[tree]
				w.end += kp.block[tree]
				w.anchor = kp.anchorAt[tree]
			}
		}
	})
	f.walkBlk = blk
	return nil
}

// keyPartition is the pool split by key. Key k owns the entries
// ent[entOff[k]:entOff[k+1]], ascending, so its records come in pool
// order, and the key-major slots recOff[k]..recOff[k+1]; slot[r] is
// record r's key-major slot, so a hop target h belongs to key k exactly
// when slot[h] falls in k's range. The anchors are ranked in pool order:
// anchorAt[a] is anchor a's path-geometry index (-1 when unresolvable),
// and block[a] the size of its laid-out tree until deriveWalk turns it
// into the tree's offset in walkBlk.
type keyPartition struct {
	entOff, ent     []int32
	recOff, slot    []int32
	anchorAt, block []int32
	maxKey          int32
}

// partitionByKey builds the key partition in one pass over the pool. It
// resolves each anchor's path-geometry index (a failed resolution — a
// corrupt image — stays -1 and surfaces as a walk error) and leaves the
// anchor's rank in its walkFrom anchor field for layoutKey.
func (f *Flat) partitionByKey() *keyPartition {
	nk := len(f.keys)
	kp := &keyPartition{
		entOff: make([]int32, nk+1),
		ent:    make([]int32, len(f.entryKey)),
		recOff: make([]int32, nk+1),
		slot:   make([]int32, len(f.hops)),
	}
	for e, k := range f.entryKey {
		kp.entOff[k+1]++
		kp.recOff[k+1] += f.portalOff[e+1] - f.portalOff[e]
	}
	for k := 0; k < nk; k++ {
		kp.maxKey = max(kp.maxKey, kp.recOff[k+1])
		kp.entOff[k+1] += kp.entOff[k]
		kp.recOff[k+1] += kp.recOff[k]
	}
	// Each key's next entry and next slot.
	nextEnt := append([]int32(nil), kp.entOff[:nk]...)
	nextSlot := append([]int32(nil), kp.recOff[:nk]...)
	for v := 0; v < f.n; v++ {
		for e := f.entryOff[v]; e < f.entryOff[v+1]; e++ {
			k := f.entryKey[e]
			kp.ent[nextEnt[k]] = e
			nextEnt[k]++
			s := nextSlot[k]
			for r := f.portalOff[e]; r < f.portalOff[e+1]; r++ {
				kp.slot[r] = s
				s++
				if f.hops[r] >= 0 {
					continue
				}
				f.walkFrom[r].anchor = int32(len(kp.anchorAt))
				plo, phi := f.pathOff[k], f.pathOff[k+1]
				idx, err := pathIndexAt(f.pathPos[plo:phi], f.pathVert[plo:phi], f.lane[3*r], int32(v))
				if err != nil {
					idx = -1
				}
				kp.anchorAt = append(kp.anchorAt, int32(idx))
			}
			nextSlot[k] = s
		}
	}
	kp.block = make([]int32, len(kp.anchorAt))
	return kp
}

// walkScratch is one worker's layoutKey scratch, each array sized to the
// largest key and indexed by key-local slot: the key's records, the
// parent links (reused as the breadth-first order, then as the head
// stack), the child CSR pair, and the subtree sizes (reused for the
// chain heads' walk lengths past their heads).
type walkScratch struct {
	recs, up, childOff, child, size []int32
}

func newWalkScratch(maxKey int32) *walkScratch {
	n := int(maxKey)
	buf := make([]int32, 5*n+1)
	return &walkScratch{
		recs:     buf[:n:n],
		up:       buf[n : 2*n : 2*n],
		childOff: buf[2*n : 3*n+1 : 3*n+1],
		child:    buf[3*n+1 : 4*n+1 : 4*n+1],
		size:     buf[4*n+1:],
	}
}

// layoutKey lays out key k's hop forest. Every placed record's walkFrom
// gets its tree-relative slot and end, its depth, and its tree's rank in
// the anchor field; a record no anchor reaches gets slot -1. block gets
// each of the key's trees' size: its records plus two trailer words per
// chain. layoutKey returns the first record whose hop leaves the key,
// or -1; such a key is left unfinished.
//
// Local slots run in pool order, so every child list comes out in
// ascending record order, and each anchor's tree is laid out exactly as
// a whole-pool pass lays it (deriveWalkRef in the tests): chains
// parent-first off a head stack seeded with the anchor, each record's
// light children pushed in ascending order as its chain is traced root
// to leaf.
func (f *Flat) layoutKey(k int32, kp *keyPartition, s *walkScratch) int32 {
	base, n := kp.recOff[k], kp.recOff[k+1]-kp.recOff[k]
	recs, up, childOff, child, size := s.recs[:n], s.up[:n], s.childOff[:n+1], s.child[:n], s.size[:n]
	recs = recs[:0]
	for _, e := range kp.ent[kp.entOff[k]:kp.entOff[k+1]] {
		for r := f.portalOff[e]; r < f.portalOff[e+1]; r++ {
			recs = append(recs, r)
		}
	}
	// Parent links and child lists in local slots: count into childOff,
	// prefix-sum to each list's end, then fill backwards so childOff[u]
	// lands on its start.
	clear(childOff)
	for x, r := range recs {
		up[x] = -1
		if h := f.hops[r]; h >= 0 {
			u := kp.slot[h] - base
			if u < 0 || u >= n {
				return r
			}
			up[x] = u
			childOff[u]++
		}
	}
	for x := int32(1); x <= n; x++ {
		childOff[x] += childOff[x-1]
	}
	for x := n - 1; x >= 0; x-- {
		if u := up[x]; u >= 0 {
			childOff[u]--
			child[childOff[u]] = x
		}
	}
	// The records reachable from an anchor, parents before children
	// (breadth-first from the anchors in ascending order); cycle records
	// are never reached.
	order, roots := up, 0
	for x, r := range recs {
		if f.hops[r] < 0 {
			order[roots] = int32(x)
			roots++
		}
	}
	reached := roots
	for i := 0; i < reached; i++ {
		x := order[i]
		for j := childOff[x]; j < childOff[x+1]; j++ {
			order[reached] = child[j]
			reached++
		}
	}
	// Subtree sizes in reverse order. Each record's heaviest child (the
	// first of the largest subtrees) moves to the front of its list; the
	// light children keep their ascending order behind it.
	if reached < int(n) {
		clear(size)
	}
	for i := reached - 1; i >= 0; i-- {
		x := order[i]
		lo, hi := childOff[x], childOff[x+1]
		sz, heavy, heavySz := int32(1), lo, int32(0)
		for j := lo; j < hi; j++ {
			c := size[child[j]]
			sz += c
			if c > heavySz {
				heavy, heavySz = j, c
			}
		}
		size[x] = sz
		if heavy > lo {
			c := child[heavy]
			copy(child[lo+1:heavy+1], child[lo:heavy])
			child[lo] = c
		}
	}
	if reached < int(n) {
		for x, r := range recs {
			if size[x] == 0 {
				f.walkFrom[r] = startRec{slot: -1, end: -1, anchor: -1}
			}
		}
	}
	// Lay out each anchor's tree from tree-relative slot 0, the anchors
	// waiting on the head stack below the tree in progress: every chain
	// root-to-leaf, written leaf-first so the bulk copy runs
	// child-to-parent, the chain head on the run's last slot, two trailer
	// words after it. A pushed light child's size slot takes its parent's
	// depth — the walk length past its chain's head.
	heads := order[:roots]
	for len(heads) > 0 {
		floor := len(heads) - 1
		a := heads[floor]
		tree := f.walkFrom[recs[a]].anchor
		size[a] = 0
		at := int32(0)
		for len(heads) > floor {
			h := heads[len(heads)-1]
			heads = heads[:len(heads)-1]
			end := at
			for x := h; childOff[x] < childOff[x+1]; x = child[childOff[x]] {
				end++
			}
			tail := size[h]
			for x, slot := h, end; ; x, slot = child[childOff[x]], slot-1 {
				depth := end - slot + 1 + tail
				f.walkFrom[recs[x]] = startRec{slot: slot, end: end, anchor: tree, depth: depth}
				lo, hi := childOff[x], childOff[x+1]
				if lo == hi {
					break
				}
				for _, c := range child[lo+1 : hi] {
					size[c] = depth
					heads = append(heads, c)
				}
			}
			at = end + 3
		}
		kp.block[tree] = at
	}
	return -1
}
