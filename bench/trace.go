package bench

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call from the benchmark into a layer. Name is the
// layer-qualified call ("oracle.query", "serve.reload", ...), Parent the
// ID of the enclosing span (0 for a root), Req the request or repetition
// the span belongs to (-1 when it has none). Times are nanoseconds since
// the tracer started.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer hands out per-goroutine span buffers that share one ID space
// and one clock. Spans stay in memory until Spans is called.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int32
	mu    sync.Mutex
	bufs  []*SpanBuf
}

// NewTracer starts a tracer whose clock reads 0 now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Buf returns a span buffer for one goroutine, preallocated for n
// spans. A nil Tracer returns a nil buffer, which records nothing.
func (t *Tracer) Buf(n int) *SpanBuf {
	if t == nil {
		return nil
	}
	b := &SpanBuf{t: t, spans: make([]Span, 0, n)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// Spans returns every span recorded so far, ordered by ID. Call it only
// after the goroutines writing the buffers have finished.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []Span
	for _, b := range t.bufs {
		all = append(all, b.spans...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// SpanBuf records spans for a single goroutine. The nil *SpanBuf is a
// valid, disabled buffer: Begin returns -1 and End does nothing.
type SpanBuf struct {
	t     *Tracer
	spans []Span
}

// Grow makes room for n more spans, so a timed stretch that records at
// most n never reallocates the buffer.
func (b *SpanBuf) Grow(n int) {
	if b != nil {
		b.spans = slices.Grow(b.spans, n)
	}
}

// Begin opens a span and returns its handle for End and ID.
func (b *SpanBuf) Begin(name string, parent, req int32) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, Span{
		ID: b.t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(b.t.epoch)),
	})
	return len(b.spans) - 1
}

// End closes the span h.
func (b *SpanBuf) End(h int) {
	if b != nil {
		b.spans[h].End = int64(time.Since(b.t.epoch))
	}
}

// ID returns span h's ID, for use as a child's parent (0 when disabled).
func (b *SpanBuf) ID(h int) int32 {
	if b == nil {
		return 0
	}
	return b.spans[h].ID
}

// CheckSpans verifies that spans form a forest: every parent exists,
// every child lies within its parent's interval, and every span's self
// time (its duration minus its children's) is non-negative.
func CheckSpans(spans []Span) error {
	byID := make(map[int32]int, len(spans))
	for i, s := range spans {
		if s.ID <= 0 {
			return fmt.Errorf("span %q has id %d", s.Name, s.ID)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d used twice", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = i
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent == 0 {
			continue
		}
		pi, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if p := spans[pi]; s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] escapes parent %d %q [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		self[pi] -= s.End - s.Start
	}
	for i, s := range spans {
		if self[i] < 0 {
			return fmt.Errorf("span %d %q has negative self time %dns", s.ID, s.Name, self[i])
		}
	}
	return nil
}

// durations groups span durations (ns) by name.
func durations(spans []Span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}
