// Package a exercises the leasepair analyzer's leases: values obtained
// from the declared acquire function must be released on every path,
// never used after release, never doubled up within one response, and the
// backing atomic pointer is off-limits outside the pair. Its batch
// handlers hold a lease and pool buffers at once, as the serving plane's
// do; package pool covers the sync.Pool shapes on their own.
package a

import (
	"sync"
	"sync/atomic"
)

// image is one immutable serving generation.
//
//pathsep:lease acquire=acquire release=release
type image struct {
	gen     uint64
	readers atomic.Int64
}

type server struct {
	img   atomic.Pointer[image]
	pairs sync.Pool // *[]int32
	dists sync.Pool // *[]float64
}

// acquire leases the current image: exempt from the walk, and calls to
// it open a lease.
func (s *server) acquire() *image {
	for {
		im := s.img.Load()
		im.readers.Add(1)
		if s.img.Load() == im {
			return im
		}
		im.readers.Add(-1)
	}
}

// release returns a lease taken by acquire.
func (s *server) release(im *image) { im.readers.Add(-1) }

// lease and unlease are one-level wrappers: the interprocedural
// summaries classify them as acquirer and releaser without any
// hand-listed names.
func (s *server) lease() *image { return s.acquire() }

func (s *server) unlease(im *image) { s.release(im) }

func use(im *image) uint64 { return im.gen }

var errFail error

// clean: acquire, use, release on the single path.
func straight(s *server) uint64 {
	im := s.acquire()
	g := use(im)
	s.release(im)
	return g
}

// clean: the deferred release covers every exit, including the early
// return and a panic, and permits uses after the defer statement.
func deferred(s *server, fail bool) (uint64, error) {
	im := s.acquire()
	defer s.release(im)
	if fail {
		return 0, errFail
	}
	return use(im), nil
}

// clean: both branches release.
func branches(s *server, which bool) {
	im := s.acquire()
	if which {
		use(im)
		s.release(im)
	} else {
		s.release(im)
	}
}

// leak: the error path exits without a release, wedging reload drains.
func earlyReturnLeak(s *server, fail bool) error {
	im := s.acquire()
	if fail {
		return errFail // want `lease im \(acquired at .*\) is never released: control returns without a release`
	}
	s.release(im)
	return nil
}

// leak: falls off the end without a release.
func fallOffLeak(s *server) {
	im := s.acquire()
	use(im)
} // want `lease im \(acquired at .*\) is never released: control falls off the end of fallOffLeak without a release`

// leak: a panic escapes before the (non-deferred) release.
func panicLeak(s *server, n int) {
	im := s.acquire()
	if n < 0 {
		panic("negative") // want `lease im \(acquired at .*\) is never released: control panics without a release`
	}
	use(im)
	s.release(im)
}

// use-after-release: the image may be swapped out from under im.
func useAfterRelease(s *server) uint64 {
	im := s.acquire()
	s.release(im)
	return use(im) // want `lease im used after release at .*; the image may be swapped out from under it`
}

// double acquire: two generations can disagree within one response.
func doubleAcquire(s *server) {
	a := s.acquire()
	b := s.acquire() // want `second lease generation acquired while a \(acquired at .*\) is still held; one generation per response`
	use(a)
	use(b)
	s.release(a)
	s.release(b)
}

// overwrite: rebinding im drops the open lease.
func overwriteLeak(s *server) {
	im := s.acquire()
	im = nil // want `lease im \(acquired at .*\) is overwritten without a release`
	_ = im
}

// discarded: acquiring without binding the result leaks immediately.
func discarded(s *server) {
	s.acquire() // want `lease acquired and discarded; bind the result and release it`
}

// Wrapper shapes: the summaries see the pair through one call level.
func deepStraight(s *server) {
	im := s.lease()
	use(im)
	s.unlease(im)
}

func deepLeak(s *server, fail bool) error {
	im := s.lease()
	if fail {
		return errFail // want `lease im \(acquired at .*\) is never released: control returns without a release`
	}
	s.unlease(im)
	return nil
}

func deepUseAfterRelease(s *server) uint64 {
	im := s.lease()
	s.unlease(im)
	return use(im) // want `lease im used after release at .*; the image may be swapped out from under it`
}

// clean: returning the lease transfers the obligation to the caller.
func transferReturn(s *server) *image {
	return s.acquire()
}

// clean: storing into a field transfers ownership.
type holder struct{ im *image }

func transferStore(s *server, h *holder) {
	im := s.acquire()
	h.im = im
}

// clean: handing the lease to a goroutine transfers ownership.
func transferGo(s *server) {
	im := s.acquire()
	go func() {
		use(im)
		s.release(im)
	}()
}

// raw access: Load outside acquire/release bypasses the reader count.
func rawLoad(s *server) uint64 {
	im := s.img.Load() // want `raw atomic Load of leased type image bypasses the acquire/release lease; use the lease or annotate //pathsep:lease-bypass`
	return im.gen
}

// sanctioned: the reload swap is serialized by its own mutex.
func rawSwapSanctioned(s *server, im *image) *image {
	//pathsep:lease-bypass reload path, serialized by reloadMu
	return s.img.Swap(im)
}

// sanctioned, same-line form.
func rawStoreSanctioned(s *server, im *image) {
	s.img.Store(im) //pathsep:lease-bypass initial publish before serving starts
}

// Pool wrappers, as internal/serve has them.
func (s *server) getPairs(n int) []int32 {
	if p, ok := s.pairs.Get().(*[]int32); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]int32, n)
}

func (s *server) putPairs(p []int32) { s.pairs.Put(&p) }

func (s *server) getDists(n int) []float64 {
	if p, ok := s.dists.Get().(*[]float64); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

func (s *server) putDists(p []float64) { s.dists.Put(&p) }

func query(im *image, pairs []int32, dists []float64) []float64 { return dists }

func sum(dists []float64) float64 { return 0 }

// leak: a lease and two pool buffers are live at once, and the early
// return releases the lease and pairs but not dists.
func batchLeak(s *server, n int, bad bool) float64 {
	pairs := s.getPairs(n)
	dists := s.getDists(n)
	im := s.acquire()
	if bad {
		s.release(im)
		s.putPairs(pairs)
		return 0 // want `pool buffer dists \(Get from dists at .*\) is never released: control returns without a Put`
	}
	dists = query(im, pairs, dists)
	s.release(im)
	total := sum(dists)
	s.putPairs(pairs)
	s.putDists(dists)
	return total
}

// clean: the lease is taken while a pool buffer is open (a lease, not a
// second generation), and dists outlives the lease's release, as the
// batch handlers' distances do.
func batchClean(s *server, n int, bad bool) float64 {
	pairs := s.getPairs(n)
	im := s.acquire()
	if bad {
		s.release(im)
		s.putPairs(pairs)
		return 0
	}
	dists := s.getDists(n)
	dists = query(im, pairs, dists)
	s.release(im)
	total := sum(dists)
	s.putPairs(pairs)
	s.putDists(dists)
	return total
}
