package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrdered(t *testing.T) {
	q := New(10)
	keys := []float64{5, 3, 8, 1, 9, 2, 7, 0, 6, 4}
	for i, k := range keys {
		q.Push(i, k)
	}
	prev := -1.0
	for q.Len() > 0 {
		_, k := q.Pop()
		if k < prev {
			t.Fatalf("pop out of order: %v after %v", k, prev)
		}
		prev = k
	}
}

func TestDecreaseKey(t *testing.T) {
	q := New(3)
	q.Push(0, 10)
	q.Push(1, 20)
	q.Push(2, 30)
	q.DecreaseKey(2, 5)
	item, k := q.Pop()
	if item != 2 || k != 5 {
		t.Fatalf("got %d,%v want 2,5", item, k)
	}
	// Increase via DecreaseKey is a no-op.
	q.DecreaseKey(1, 50)
	item, k = q.Pop()
	if item != 0 || k != 10 {
		t.Fatalf("got %d,%v want 0,10", item, k)
	}
}

func TestPushUpdatesKey(t *testing.T) {
	q := New(2)
	q.Push(0, 10)
	q.Push(1, 5)
	q.Push(0, 1) // update down
	item, _ := q.Pop()
	if item != 0 {
		t.Fatalf("got %d want 0", item)
	}
	q.Push(1, 99) // update up while present
	item, k := q.Pop()
	if item != 1 || k != 99 {
		t.Fatalf("got %d,%v", item, k)
	}
}

func TestContainsAndReset(t *testing.T) {
	q := New(4)
	q.Push(1, 1)
	q.Push(3, 3)
	if !q.Contains(1) || !q.Contains(3) || q.Contains(0) {
		t.Fatal("Contains wrong")
	}
	q.Reset()
	if q.Len() != 0 || q.Contains(1) || q.Contains(3) {
		t.Fatal("Reset incomplete")
	}
	q.Push(1, 7)
	if v, k := q.Pop(); v != 1 || k != 7 {
		t.Fatal("reuse after Reset broken")
	}
}

func TestQuickHeapSortsLikeSort(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		q := New(n)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64() * 100
			q.Push(i, keys[i])
		}
		sort.Float64s(keys)
		for i := 0; i < n; i++ {
			_, k := q.Pop()
			if k != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRandomOps(t *testing.T) {
	// Random interleaving of push/decrease/pop preserves heap order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		q := New(n)
		current := make(map[int]float64)
		for step := 0; step < 300; step++ {
			switch rng.Intn(3) {
			case 0:
				it := rng.Intn(n)
				k := rng.Float64() * 100
				q.Push(it, k)
				current[it] = k
			case 1:
				it := rng.Intn(n)
				if q.Contains(it) {
					k := current[it] / 2
					q.DecreaseKey(it, k)
					if k < current[it] {
						current[it] = k
					}
				}
			case 2:
				if q.Len() > 0 {
					it, k := q.Pop()
					want, ok := current[it]
					if !ok || k != want {
						return false
					}
					// k must be the global min.
					for other, ok2 := range current {
						if q.Contains(other) && ok2 < k {
							return false
						}
					}
					delete(current, it)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// refPQ is the heap before its keys moved into the heap slots: keys in a
// per-item array, every sift comparison reading key[heap[i]]. It is kept
// as the reference for the pop order.
type refPQ struct {
	heap, pos []int
	key       []float64
}

func newRef(n int) *refPQ {
	q := &refPQ{pos: make([]int, n), key: make([]float64, n)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

func (q *refPQ) push(item int, key float64) {
	if q.pos[item] >= 0 {
		old := q.key[item]
		q.key[item] = key
		if key < old {
			q.up(q.pos[item])
		} else if key > old {
			q.down(q.pos[item])
		}
		return
	}
	q.key[item] = key
	q.pos[item] = len(q.heap)
	q.heap = append(q.heap, item)
	q.up(len(q.heap) - 1)
}

func (q *refPQ) pop() (int, float64) {
	item := q.heap[0]
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap = q.heap[:last]
	q.pos[item] = -1
	if last > 0 {
		q.down(0)
	}
	return item, q.key[item]
}

func (q *refPQ) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.key[q.heap[i]] >= q.key[q.heap[parent]] {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *refPQ) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.key[q.heap[l]] < q.key[q.heap[smallest]] {
			smallest = l
		}
		if r < n && q.key[q.heap[r]] < q.key[q.heap[smallest]] {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

func (q *refPQ) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]] = i
	q.pos[q.heap[j]] = j
}

// TestPopOrderMatchesReference pins the heap to refPQ item for item
// under random pushes, key updates both ways and pops, with keys drawn
// from eight values so that ties are common: the order ties pop in is
// what every Dijkstra's settle order, and so every tree and image, rests
// on.
func TestPopOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	for trial := 0; trial < 200; trial++ {
		q, ref := New(n), newRef(n)
		for step := 0; step < 500; step++ {
			if rng.Intn(3) > 0 {
				it, k := rng.Intn(n), float64(rng.Intn(8))
				q.Push(it, k)
				ref.push(it, k)
				continue
			}
			if q.Len() != len(ref.heap) {
				t.Fatalf("trial %d step %d: %d items, reference %d", trial, step, q.Len(), len(ref.heap))
			}
			if q.Len() == 0 {
				continue
			}
			gi, gk := q.Pop()
			wi, wk := ref.pop()
			if gi != wi || gk != wk {
				t.Fatalf("trial %d step %d: popped (%d, %v), reference (%d, %v)", trial, step, gi, gk, wi, wk)
			}
		}
	}
}
