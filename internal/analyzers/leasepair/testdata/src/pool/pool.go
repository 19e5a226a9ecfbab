// Package pool exercises the leasepair analyzer's built-in sync.Pool
// pairs: a buffer taken with Get must reach a Put on every path, is not
// used after it, and goes back to its own pool as the array it came as.
package pool

import "sync"

type server struct {
	bufs  sync.Pool // *[]byte
	dists sync.Pool // *[]float64
}

// getBuf and putBuf are wrapper functions: exempt from the walk, and
// calls to them count as Get/Put events.
func (s *server) getBuf(n int) []byte {
	if p, ok := s.bufs.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func (s *server) putBuf(p []byte) { s.bufs.Put(&p) }

func (s *server) getDists(n int) []float64 {
	if p, ok := s.dists.Get().(*[]float64); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

func (s *server) putDists(p []float64) { s.dists.Put(&p) }

func use(b []byte)         {}
func fill(b []byte) []byte { return b }
func bad() bool            { return false }

// clean: Get, use, Put on the single path.
func straight(s *server) {
	b := s.getBuf(8)
	use(b)
	s.putBuf(b)
}

// clean: early error return happens before the Get.
func earlyBefore(s *server, fail bool) error {
	if fail {
		return errFail
	}
	b := s.getBuf(8)
	use(b)
	s.putBuf(b)
	return nil
}

var errFail error

// leak: the error path exits without a Put.
func earlyReturnLeak(s *server, fail bool) error {
	b := s.getBuf(8)
	if fail {
		return errFail // want `pool buffer b \(Get from bufs at .*\) is never released: control returns without a Put`
	}
	s.putBuf(b)
	return nil
}

// clean: the deferred Put covers every exit, including the early return
// and a panic, and permits uses after the defer statement.
func deferredPut(s *server, fail bool) error {
	b := s.getBuf(8)
	defer s.putBuf(b)
	if fail {
		return errFail
	}
	use(b)
	return nil
}

// leak: falls off the end of the function without a Put.
func fallOffLeak(s *server) {
	b := s.getBuf(8)
	use(b)
} // want `pool buffer b \(Get from bufs at .*\) is never released: control falls off the end of fallOffLeak without a Put`

// leak: a panic escapes before the (non-deferred) Put.
func panicLeak(s *server, n int) {
	b := s.getBuf(8)
	if n < 0 {
		panic("negative") // want `pool buffer b \(Get from bufs at .*\) is never released: control panics without a Put`
	}
	use(b)
	s.putBuf(b)
}

// use-after-Put: the pool may already have handed b to someone else.
func useAfterPut(s *server) {
	b := s.getBuf(8)
	s.putBuf(b)
	use(b) // want `pool buffer b used after Put at .*; the pool may have handed it to another goroutine`
}

// overwrite: rebinding b to a fresh buffer drops the pooled one.
func overwriteLeak(s *server) {
	b := s.getBuf(8)
	b = make([]byte, 16) // want `pool buffer b \(Get from bufs at .*\) is overwritten without a Put`
	use(b)
	s.putBuf(b)
}

// clean: self-slicing and self-append keep the same tracked buffer, and
// the v = f(v) dst convention keeps ownership with the caller.
func selfRebind(s *server) {
	b := s.getBuf(8)
	b = b[:4]
	b = append(b, 1, 2)
	b = fill(b)
	s.putBuf(b)
}

// foreign backing array: b no longer points at the pooled allocation.
func foreignPut(s *server, other []byte) {
	b := s.getBuf(8)
	b = append(other, b...)
	s.putBuf(b) // want `pool buffer b was rebound to a different backing array at .*; Putting the alias poisons bufs`
}

// cross-pool Put: the []byte pool fed a buffer from the dists pool.
func crossPool(s *server) {
	d := s.getDists(8)
	s.bufs.Put(&d) // want `pool buffer d from dists is Put into bufs; buffers must return to their own pool`
}

// discarded: a Get whose result is dropped never reaches a Put.
func discarded(s *server) {
	s.getBuf(8) // want `pool buffer acquired and discarded; bind the result and Put it`
}

// clean: both branches Put.
func branchesBothPut(s *server, which bool) {
	b := s.getBuf(8)
	if which {
		use(b)
		s.putBuf(b)
	} else {
		s.putBuf(b)
	}
}

// clean: returning the buffer transfers ownership to the caller.
func transferReturn(s *server) []byte {
	b := s.getBuf(8)
	use(b)
	return b
}

// clean: storing into a field transfers ownership.
type holder struct{ buf []byte }

func transferStore(s *server, h *holder) {
	b := s.getBuf(8)
	h.buf = b
}

// clean: handing the buffer to a goroutine transfers ownership.
func transferGo(s *server) {
	b := s.getBuf(8)
	go func() {
		use(b)
		s.putBuf(b)
	}()
}

// Wrapper-of-wrapper shapes: getScratch wraps getBuf wraps bufs.Get, and
// putScratch wraps putBuf wraps bufs.Put. The interprocedural summaries
// classify both through the extra level — there is no single-level
// recognizer to fall off of.
func (s *server) getScratch(n int) []byte {
	b := s.getBuf(n)
	return b
}

func (s *server) putScratch(b []byte) {
	s.putBuf(b[:0])
}

// clean: deep-wrapper Get paired with a deep-wrapper Put.
func deepStraight(s *server) {
	b := s.getScratch(8)
	use(b)
	s.putScratch(b)
}

// leak: a buffer from the two-level getter still owes a Put.
func deepLeak(s *server, fail bool) error {
	b := s.getScratch(8)
	if fail {
		return errFail // want `pool buffer b \(Get from bufs at .*\) is never released: control returns without a Put`
	}
	s.putScratch(b)
	return nil
}

// use-after-Put through the deep putter: the release is a release no
// matter how many wrappers deep the Put is.
func deepUseAfterPut(s *server) {
	b := s.getScratch(8)
	s.putScratch(b)
	use(b) // want `pool buffer b used after Put at .*; the pool may have handed it to another goroutine`
}
