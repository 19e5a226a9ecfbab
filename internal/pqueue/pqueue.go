// Package pqueue implements an indexed binary min-heap keyed by float64
// priorities, the workhorse of every Dijkstra run in this library.
//
// Items are dense integer IDs in [0, capacity). DecreaseKey is O(log n) via
// an index table. The zero value is not usable; call New.
package pqueue

// slot is one heap position: the item and its priority side by side, so
// a sift compares keys without a second read through the item.
type slot struct {
	key  float64
	item int32
}

// PQ is an indexed min-heap over integer items with float64 keys.
type PQ struct {
	heap []slot  // heap[i] = item at heap position i, with its key
	pos  []int32 // pos[item] = heap position, or -1 if absent
}

// New returns a heap able to hold items 0..capacity-1.
func New(capacity int) *PQ {
	pos := make([]int32, capacity)
	for i := range pos {
		pos[i] = -1
	}
	return &PQ{
		heap: make([]slot, 0, capacity),
		pos:  pos,
	}
}

// Len returns the number of items currently in the heap.
func (q *PQ) Len() int { return len(q.heap) }

// Contains reports whether the item is currently in the heap.
func (q *PQ) Contains(item int) bool { return q.pos[item] >= 0 }

// Push inserts item with the given priority. If the item is already
// present, its key is updated (both decrease and increase are handled).
func (q *PQ) Push(item int, key float64) {
	if i := q.pos[item]; i >= 0 {
		q.update(int(i), key)
		return
	}
	q.pos[item] = int32(len(q.heap))
	q.heap = append(q.heap, slot{key, int32(item)})
	q.up(len(q.heap) - 1)
}

// DecreaseKey lowers the item's priority. It is a no-op if the new key is
// not lower or the item is absent.
func (q *PQ) DecreaseKey(item int, key float64) {
	i := q.pos[item]
	if i < 0 || key >= q.heap[i].key {
		return
	}
	q.heap[i].key = key
	q.up(int(i))
}

// update sets the key of the item at heap position i.
func (q *PQ) update(i int, key float64) {
	old := q.heap[i].key
	q.heap[i].key = key
	switch {
	case key < old:
		q.up(i)
	case key > old:
		q.down(i)
	}
}

// Pop removes and returns the item with the minimum key.
// It panics on an empty heap; check Len first.
func (q *PQ) Pop() (item int, key float64) {
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	q.pos[top.item] = -1
	if last > 0 {
		q.down(0)
	}
	return int(top.item), top.key
}

// Reset empties the heap so it can be reused without reallocation.
func (q *PQ) Reset() {
	for _, s := range q.heap {
		q.pos[s.item] = -1
	}
	q.heap = q.heap[:0]
}

// up and down sift the slot at position i. They make the comparisons a
// swap at every level makes, in the same order, and leave the same heap,
// but hold the sifted slot aside and write it once, where it stops.
func (q *PQ) up(i int) {
	h := q.heap
	x := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if x.key >= h[parent].key {
			break
		}
		h[i] = h[parent]
		q.pos[h[i].item] = int32(i)
		i = parent
	}
	h[i] = x
	q.pos[x.item] = int32(i)
}

func (q *PQ) down(i int) {
	h := q.heap
	n := len(h)
	x := h[i]
	for {
		l, r := 2*i+1, 2*i+2
		smallest, key := i, x.key
		if l < n && h[l].key < key {
			smallest, key = l, h[l].key
		}
		if r < n && h[r].key < key {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i] = h[smallest]
		q.pos[h[i].item] = int32(i)
		i = smallest
	}
	h[i] = x
	q.pos[x.item] = int32(i)
}
