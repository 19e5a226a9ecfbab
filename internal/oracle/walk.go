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

// deriveWalk compiles the hop forest — kp.up holds, at each record's
// key-major slot, the pool index of the next record on its chain, or
// −1−rank at the chain's anchor, the anchors ranked in pool order (see
// keyPartition.link) — into the walkBlk/walkSlot layout on a pool of the
// given width (0 means runtime.GOMAXPROCS(0)); the links themselves are
// not kept. Chains are emitted in heavy-path order — each record's
// heaviest child is placed immediately before it — so a chain from any
// slot to its head is one contiguous owner run the walk copies in bulk;
// only light edges jump, and a root-to-leaf walk crosses O(log P) of
// them. Each anchor resolves its path-geometry index here, by its own
// vertex on its key's path, into its tree's trailers, where QueryPath
// reads it. deriveWalk also returns every record's anchor index, which is
// all a decode needs to give the record its position (see anchorRuns).
//
// Every hop chain stays on one separator path, so the forest splits into
// one independent forest per key, and each key is a pool task in two
// rounds, on the scratch keyTasks bounds. sizeKey checks the key, turns
// its hops into parent links in key-local slots and sizes its anchor
// trees (records plus one trailer per chain, and a tree has one chain
// per leaf); one descending scan over the anchors then gives every tree
// its offset, and layoutKey writes the key's trees straight into place.
// The trees land where a whole-pool pass puts them — the last anchor's
// tree first, each tree whole — so the layout is the same word for word
// at every pool width and task order.
//
// The derivation fails, naming the lowest failing key, when a key's path
// repeats a vertex, a hop links records of two keys, an anchor's vertex
// is not on its key's path, or records reach no anchor (a hop cycle, or
// a chain into one). Each would leave a record without a position, and
// a cross-key hop would also make QueryPath read another key's geometry
// out of range.
func (f *Flat) deriveWalk(kp *keyPartition, anchors int32, workers int) (anchorRuns, error) {
	f.walkBlk, f.walkSlot = nil, nil
	if len(kp.up) == 0 {
		return anchorRuns{}, nil
	}
	kp.anchorAt, kp.block = make([]int32, anchors), make([]int32, anchors)
	pool := par.New(workers, nil)
	tasks := newKeyTasks(kp, pool.Workers(), f.n)
	errs := make([]error, len(f.keys))
	tasks.run(pool, func(k int32, s *walkScratch) { errs[k] = f.sizeKey(k, kp, s) })
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
	tasks.run(pool, func(k int32, s *walkScratch) { f.layoutKey(k, kp, s) })
	return anchorRuns{first: kp.first, idx: kp.up}, nil
}

// keyTasks schedules the walk derivation's key tasks so that the scratch
// they hold together does not grow with the pool width w. A key of more
// than maxKey/w records is big: the big keys run one after another as
// one task on one scratch set sized to the largest key, and every other
// key is a task of its own on a per-worker set sized to the largest of
// them, at most maxKey/w records. The sets hold at most twice the
// largest key's scratch at any width. The big task is submitted first,
// so the other workers lay out the small keys beside it; at width 1 no
// key is big.
type keyTasks struct {
	big, small []int32
	bigSet     *walkScratch
	// free holds the per-worker sets: at most w tasks run at once, so at
	// most w sets are ever allocated, each when a worker first finds none.
	free     chan *walkScratch
	smallMax int32
	vertices int
}

func newKeyTasks(kp *keyPartition, w, vertices int) *keyTasks {
	t := &keyTasks{free: make(chan *walkScratch, w), vertices: vertices}
	for range w {
		t.free <- nil
	}
	limit := kp.maxKey / int32(w)
	for k := 0; k+1 < len(kp.recOff); k++ {
		if n := kp.recOff[k+1] - kp.recOff[k]; n > limit {
			t.big = append(t.big, int32(k))
		} else {
			t.small = append(t.small, int32(k))
			t.smallMax = max(t.smallMax, n)
		}
	}
	if len(t.big) > 0 {
		t.bigSet = newWalkScratch(kp.maxKey, vertices)
	}
	return t
}

// run calls fn on every key with scratch for it, on pool.
func (t *keyTasks) run(pool *par.Pool, fn func(k int32, s *walkScratch)) {
	pool.ForEach(1+len(t.small), func(i int) {
		if i == 0 {
			for _, k := range t.big {
				fn(k, t.bigSet)
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
// slot, holds each record's hop link as link stores it, until sizeKey
// turns it into the record's parent link in key-local slots, or −1−a at
// anchor a, and layoutKey leaves each record's anchor index there; a
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

// partitionByKey builds the key partition of f's pool in one pass over
// the entry tables; the hop links are stored into it afterwards (link).
func (f *Flat) partitionByKey() *keyPartition {
	nk := len(f.keys)
	kp := &keyPartition{
		entOff: make([]int32, nk+1),
		ent:    make([]int32, len(f.entryKey)),
		vert:   make([]int32, len(f.entryKey)),
		first:  make([]int32, len(f.entryKey)),
		recOff: make([]int32, nk+1),
		slot:   make([]int32, len(f.lane)),
		up:     make([]int32, len(f.lane)),
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
			kp.ent[nextEnt[k]], kp.vert[nextEnt[k]] = e, int32(v)
			nextEnt[k]++
			s := nextSlot[k]
			kp.first[e] = s
			for r := f.portalOff[e]; r < f.portalOff[e+1]; r++ {
				kp.slot[r] = s
				s++
			}
			nextSlot[k] = s
		}
	}
	return kp
}

// link stores record r's hop link h at r's key-major slot in up: the
// pool index of the record it hops to, or, at an anchor (h < 0), −1−rank.
// Anchors are ranked in pool order, so a caller links them in that order
// from rank, and link returns the next anchor's rank. The decode links
// its hop section as it streams in, and Freeze its resolved hops.
func (kp *keyPartition) link(r, h, rank int32) int32 {
	if h < 0 {
		kp.up[kp.slot[r]] = -1 - rank
		return rank + 1
	}
	kp.up[kp.slot[r]] = h
	return rank
}

// walkScratch is one key task's scratch. Each array but at is sized to
// the task's largest key and indexed by key-local slot: the records'
// owning vertices, the child CSR pair, the subtree sizes (reused for the
// pushed chain heads' jump slots, jend holding their jump ends and,
// until its tree is laid out, each anchor's rank, and for each placed
// record's walk slot), and the length of each record's heavy chain down
// to its leaf. sizeKey uses the child counts, the child array as its
// climb stack and the size array for tree labels. at, indexed by vertex,
// holds 1 + the vertex's index on the path of the key being sized, and 0
// between keys.
type walkScratch struct {
	own, childOff, child, size, jend, chain, at []int32
}

func newWalkScratch(maxKey int32, vertices int) *walkScratch {
	n := int(maxKey)
	buf := make([]int32, 6*n+1+vertices)
	return &walkScratch{
		own:      buf[:n:n],
		childOff: buf[n : 2*n+1 : 2*n+1],
		child:    buf[2*n+1 : 3*n+1 : 3*n+1],
		size:     buf[3*n+1 : 4*n+1 : 4*n+1],
		jend:     buf[4*n+1 : 5*n+1 : 5*n+1],
		chain:    buf[5*n+1 : 6*n+1 : 6*n+1],
		at:       buf[6*n+1:],
	}
}

// sizeKey checks key k, turns the hop links in its range of up into
// parent links and sizes its anchor trees into block: each tree's
// records plus trailerWords per leaf. It resolves each anchor's
// path-geometry index into anchorAt by the anchor's vertex, and labels
// every record with its tree by climbing the parent links to an anchor
// or into a cycle. It fails, leaving the key unfinished, when the key's
// path repeats a vertex, a hop leaves the key, an anchor's vertex is off
// the path, or records reach no anchor.
func (f *Flat) sizeKey(k int32, kp *keyPartition, s *walkScratch) error {
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
			h := up[x]
			if h < 0 {
				if s.at[v] == 0 {
					return fmt.Errorf("anchor record %d: vertex %d is not on the path of key %d", r, v, k)
				}
				tree[x] = -1 - h
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
	own, childOff, child, size, jend, chain := s.own[:0], s.childOff[:n+1], s.child[:n], s.size[:n], s.jend[:n], s.chain[:n]
	// The owning vertex of each record, in pool order (key-local slot
	// order).
	for i := kp.entOff[k]; i < kp.entOff[k+1]; i++ {
		for r := f.portalOff[kp.ent[i]]; r < f.portalOff[kp.ent[i]+1]; r++ {
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
	// and size are spent, so their slots keep the record's anchor index
	// and its walk slot instead.
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
				size[x] = slot
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
	// The parent links are spent too: they take the anchor indices. The
	// records take their walk slots in pool order, local slot by local
	// slot.
	copy(up, chain)
	x := 0
	for i := kp.entOff[k]; i < kp.entOff[k+1]; i++ {
		for r := f.portalOff[kp.ent[i]]; r < f.portalOff[kp.ent[i]+1]; r, x = r+1, x+1 {
			f.walkSlot[r] = size[x]
		}
	}
}
