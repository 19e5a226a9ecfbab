package oracle

import (
	"fmt"

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

// Marks sizeKey's tree labels use besides anchor ranks.
const (
	treeStranded = -1 // on or behind a hop cycle: it reaches no anchor
	treeClimbing = -2 // on the parent-link path being climbed
	treeUnseen   = -3
)

// deriveWalk compiles the hop forest — hops[r] is the pool index of the
// next record on record r's chain, or -1 at the chain's anchor — into the
// walkBlk/walkSlot layout on a pool of the given width (0 means
// runtime.GOMAXPROCS(0)); hops itself is not kept. Chains are emitted in
// heavy-path order — each record's heaviest child is placed immediately
// before it — so a chain from any slot to its head is one contiguous
// owner run the walk copies in bulk; only light edges jump, and a
// root-to-leaf walk crosses O(log P) of them. Each anchor resolves its
// path-geometry index here, by its own vertex on its key's path, into
// its tree's trailers, where QueryPath reads it. deriveWalk also returns
// every record's anchor index, which is all a decode needs to give the
// record its position (see anchorRuns).
//
// Every hop chain stays on one separator path, so the forest splits into
// one independent forest per key, and each key is a pool task in two
// rounds, in scratch sized to the largest key. sizeKey checks the key,
// turns its hops into parent links in key-local slots and sizes its
// anchor trees (records plus one trailer per chain, and a tree has one
// chain per leaf); one descending scan over the anchors then gives every
// tree its offset, and layoutKey writes the key's trees straight into
// place. The trees land where a whole-pool pass puts them — the last
// anchor's tree first, each tree whole — so the layout is the same word
// for word at every pool width and task order.
//
// The derivation fails, naming the lowest failing key, when a key's path
// repeats a vertex, a hop links records of two keys, an anchor's vertex
// is not on its key's path, or records reach no anchor (a hop cycle, or
// a chain into one). Each would leave a record without a position, and
// a cross-key hop would also make QueryPath read another key's geometry
// out of range.
func (f *Flat) deriveWalk(hops []int32, workers int) (anchorRuns, error) {
	f.walkBlk, f.walkSlot = nil, nil
	if len(hops) == 0 {
		return anchorRuns{}, nil
	}
	kp := f.partitionByKey(hops)
	pool := par.New(workers, nil)
	// A free list of per-worker scratch: at most Workers() tasks run at
	// once, so at most that many scratch sets are ever allocated.
	free := make(chan *walkScratch, pool.Workers())
	for range pool.Workers() {
		free <- nil
	}
	scratch := func() *walkScratch {
		if s := <-free; s != nil {
			return s
		}
		return newWalkScratch(kp.maxKey, f.n)
	}
	errs := make([]error, len(f.keys))
	pool.ForEach(len(f.keys), func(k int) {
		s := scratch()
		errs[k] = f.sizeKey(int32(k), kp, hops, s)
		free <- s
	})
	for _, err := range errs {
		if err != nil {
			return anchorRuns{}, err
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
	// The slot map is dead once every key is sized: its array becomes
	// walkSlot, which the second round writes whole.
	f.walkBlk, f.walkSlot = make([]int32, total), kp.slot
	pool.ForEach(len(f.keys), func(k int) {
		s := scratch()
		f.layoutKey(int32(k), kp, s)
		free <- s
	})
	return anchorRuns{first: kp.first, idx: kp.up}, nil
}

// anchorRuns holds every record's chain anchor, as an index into its
// key's path geometry, key-major: entry e's records, which are
// consecutive in their key, find theirs in pool order at
// idx[first[e]:]. A decode reads its positions off it (see buildLane)
// one run per entry, where reading each record's anchor off its walk
// trailer is a cache miss per record.
type anchorRuns struct{ first, idx []int32 }

// keyPartition is the pool split by key. Key k owns the entries
// ent[entOff[k]:entOff[k+1]], ascending, so its records come in pool
// order, with owning vertices vert[entOff[k]:entOff[k+1]], and the
// key-major slots recOff[k]..recOff[k+1]; first[e] is entry e's first
// key-major slot, and slot[r] record r's, so a hop target h belongs to
// key k exactly when slot[h] falls in k's range (sizeKey reads it;
// layoutKey writes the same array as walkSlot). up, indexed by key-major
// slot, holds each record's parent link in key-local slots, or −1−a at
// anchor a, until layoutKey leaves each record's anchor index there; a
// key's range of it is its own task's to read and write. The anchors are
// ranked in pool order: anchorAt[a] is anchor a's path-geometry index,
// and block[a] the size of its tree until deriveWalk turns it into the
// tree's offset in walkBlk.
type keyPartition struct {
	entOff, ent, vert, first []int32
	recOff, slot, up         []int32
	anchorAt, block          []int32
	maxKey                   int32
}

// partitionByKey builds the key partition in one pass over the pool. It
// ranks the anchors into up; the key tasks fill in the parent links and
// resolve each anchor's path-geometry index.
func (f *Flat) partitionByKey(hops []int32) *keyPartition {
	nk := len(f.keys)
	kp := &keyPartition{
		entOff: make([]int32, nk+1),
		ent:    make([]int32, len(f.entryKey)),
		vert:   make([]int32, len(f.entryKey)),
		first:  make([]int32, len(f.entryKey)),
		recOff: make([]int32, nk+1),
		slot:   make([]int32, len(hops)),
		up:     make([]int32, len(hops)),
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
	anchors := int32(0)
	for v := 0; v < f.n; v++ {
		for e := f.entryOff[v]; e < f.entryOff[v+1]; e++ {
			k := f.entryKey[e]
			kp.ent[nextEnt[k]], kp.vert[nextEnt[k]] = e, int32(v)
			nextEnt[k]++
			s := nextSlot[k]
			kp.first[e] = s
			for r := f.portalOff[e]; r < f.portalOff[e+1]; r++ {
				kp.slot[r] = s
				if hops[r] < 0 {
					kp.up[s] = -1 - anchors
					anchors++
				}
				s++
			}
			nextSlot[k] = s
		}
	}
	kp.anchorAt, kp.block = make([]int32, anchors), make([]int32, anchors)
	return kp
}

// walkScratch is one worker's key-task scratch. Each array but at is
// sized to the largest key and indexed by key-local slot: the key's
// records and their owning vertices, the child CSR pair, the subtree
// sizes (reused for the pushed chain heads' jump slots, jend holding
// their jump ends and, until its tree is laid out, each anchor's rank),
// and the length of each record's heavy chain down to its leaf. sizeKey
// uses the child counts, the child array as its climb stack and the size
// array for tree labels. at, indexed by vertex, holds 1 + the vertex's
// index on the path of the key being sized, and 0 between keys.
type walkScratch struct {
	recs, own, childOff, child, size, jend, chain, at []int32
}

func newWalkScratch(maxKey int32, vertices int) *walkScratch {
	n := int(maxKey)
	buf := make([]int32, 7*n+1+vertices)
	return &walkScratch{
		recs:     buf[:n:n],
		own:      buf[n : 2*n : 2*n],
		childOff: buf[2*n : 3*n+1 : 3*n+1],
		child:    buf[3*n+1 : 4*n+1 : 4*n+1],
		size:     buf[4*n+1 : 5*n+1 : 5*n+1],
		jend:     buf[5*n+1 : 6*n+1 : 6*n+1],
		chain:    buf[6*n+1 : 7*n+1 : 7*n+1],
		at:       buf[7*n+1:],
	}
}

// sizeKey checks key k, writes its parent links into up and sizes its
// anchor trees into block: each tree's records plus trailerWords per
// leaf. It resolves each anchor's path-geometry index into anchorAt by
// the anchor's vertex, and labels every record with its tree by climbing
// the parent links to an anchor or into a cycle. It fails, leaving the
// key unfinished, when the key's path repeats a vertex, a hop leaves the
// key, an anchor's vertex is off the path, or records reach no anchor.
func (f *Flat) sizeKey(k int32, kp *keyPartition, hops []int32, s *walkScratch) error {
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
	up, kids, tree := kp.up[base:base+n], s.childOff[:n], s.size[:n]
	clear(kids)
	x := 0
	for i := kp.entOff[k]; i < kp.entOff[k+1]; i++ {
		e, v := kp.ent[i], kp.vert[i]
		for r := f.portalOff[e]; r < f.portalOff[e+1]; r, x = r+1, x+1 {
			h := hops[r]
			if h < 0 {
				if s.at[v] == 0 {
					return fmt.Errorf("anchor record %d: vertex %d is not on the path of key %d", r, v, k)
				}
				tree[x] = -1 - up[x]
				kp.anchorAt[tree[x]] = s.at[v] - 1
				continue
			}
			u := kp.slot[h] - base
			if u < 0 || u >= n {
				return fmt.Errorf("hop of record %d links to record %d of another key", r, h)
			}
			up[x] = u
			kids[u]++
			tree[x] = treeUnseen
		}
	}
	stack := s.child[:0]
	for x := range tree {
		y := int32(x)
		for tree[y] == treeUnseen {
			tree[y] = treeClimbing
			stack = append(stack, y)
			y = up[y]
		}
		t := tree[y]
		if t == treeClimbing {
			t = treeStranded
		}
		for _, z := range stack {
			tree[z] = t
		}
		stack = stack[:0]
	}
	stranded := 0
	for x, t := range tree {
		if t < 0 {
			stranded++
			continue
		}
		kp.block[t]++
		if kids[x] == 0 {
			kp.block[t] += trailerWords
		}
	}
	if stranded > 0 {
		return fmt.Errorf("%d records of key %d reach no anchor: their hops form a cycle or lead into one", stranded, k)
	}
	return nil
}

// layoutKey writes key k's anchor trees into walkBlk at the offsets in
// block, every record's slot into walkSlot and, over the key's parent
// links, every record's anchor index.
//
// Local slots run in pool order, so every child list comes out in
// ascending record order, and each anchor's tree is laid out exactly as
// a whole-pool pass lays it (deriveWalkRef in the tests): chains
// parent-first off a head stack seeded with the anchor, each record's
// light children pushed in ascending order as its chain is traced root
// to leaf.
func (f *Flat) layoutKey(k int32, kp *keyPartition, s *walkScratch) {
	base, n := kp.recOff[k], kp.recOff[k+1]-kp.recOff[k]
	up := kp.up[base : base+n]
	recs, own, childOff, child, size, jend, chain := s.recs[:0], s.own[:0], s.childOff[:n+1], s.child[:n], s.size[:n], s.jend[:n], s.chain[:n]
	// The key's records in pool order (their key-local slots), and their
	// owning vertices.
	for i := kp.entOff[k]; i < kp.entOff[k+1]; i++ {
		for r := f.portalOff[kp.ent[i]]; r < f.portalOff[kp.ent[i]+1]; r++ {
			recs = append(recs, r)
			own = append(own, kp.vert[i])
		}
	}
	// Child lists in local slots from sizeKey's parent links: count into
	// childOff, prefix-sum to each list's end, then fill backwards so
	// childOff[u] lands on its start.
	clear(childOff)
	for _, u := range up {
		if u >= 0 {
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
	// The records, parents before children (breadth-first from the
	// anchors in ascending order: sizeKey saw every record reach one),
	// written over the parent links the child lists have consumed. jend
	// keeps each anchor's rank.
	order, roots := up, int32(0)
	for x := int32(0); x < n; x++ {
		if w := up[x]; w < 0 {
			jend[x] = -1 - w
			order[roots] = x
			roots++
		}
	}
	reached := int(roots)
	for i := 0; i < reached; i++ {
		x := order[i]
		for j := childOff[x]; j < childOff[x+1]; j++ {
			order[reached] = child[j]
			reached++
		}
	}
	// Subtree sizes in reverse order. Each record's heaviest child (the
	// first of the largest subtrees) moves to the front of its list; the
	// light children keep their ascending order behind it. A record's
	// heavy chain is one longer than its heavy child's.
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
		size[x], chain[x] = sz, 1
		if heavy < hi {
			chain[x] += chain[child[heavy]]
		}
		if heavy > lo {
			c := child[heavy]
			copy(child[lo+1:heavy+1], child[lo:heavy])
			child[lo] = c
		}
	}
	// Lay out each anchor's tree at its offset, the anchors waiting on the
	// head stack below the tree in progress: every chain root-to-leaf,
	// written leaf-first so the bulk copy runs child-to-parent, the chain
	// head on the run's last slot, its trailer after it. A pushed light
	// child's size slot takes its parent's slot and its jend slot the
	// parent's run end; the walk length past its head is the parent's,
	// read off the parent chain's trailer. A placed record's chain length
	// is spent, so its slot keeps the record's anchor index instead.
	blk := f.walkBlk
	heads := order[:roots]
	for len(heads) > 0 {
		floor := len(heads) - 1
		a := heads[floor]
		tree := jend[a]
		size[a], jend[a] = -1, -1
		at := kp.block[tree]
		for len(heads) > floor {
			h := heads[len(heads)-1]
			heads = heads[:len(heads)-1]
			end := at + chain[h] - 1
			jump, jumpEnd, tail := size[h], jend[h], int32(0)
			if jump >= 0 {
				tail = jumpEnd - jump + 1 + blk[jumpEnd+4]
			}
			blk[end+1], blk[end+2], blk[end+3], blk[end+4] = -2-jump, jumpEnd, kp.anchorAt[tree], tail
			for x, slot := h, end; ; x, slot = child[childOff[x]], slot-1 {
				blk[slot] = own[x]
				f.walkSlot[recs[x]] = slot
				chain[x] = kp.anchorAt[tree]
				lo, hi := childOff[x], childOff[x+1]
				if lo == hi {
					break
				}
				for _, c := range child[lo+1 : hi] {
					size[c], jend[c] = slot, end
					heads = append(heads, c)
				}
			}
			at = end + 1 + trailerWords
		}
	}
	// The parent links are spent too: they take the anchor indices.
	copy(up, chain)
}
