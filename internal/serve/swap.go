package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"pathsep/internal/oracle"
)

// drainTimeout bounds how long a reload waits for readers of the old
// image to finish before declaring the drain incomplete. Readers hold
// an image only across one query/batch call, so this is generous.
const drainTimeout = 5 * time.Second

// image is one immutable serving generation: a frozen flat oracle plus
// its load metadata and a live-reader count. Only Server.publish makes
// one, and it hands the image whole to the swap on Server.img, so no
// field but readers is written after it is published; readers is only
// touched through its atomic methods.
//
// Requests reach an image only through withImage, which leases it. No
// code outside this file touches Server.img: besides acquire, only the
// reloadMu-serialized Load in reload and the Swap in publish do.
type image struct {
	flat     *oracle.Flat
	gen      uint64
	source   string
	bytes    int
	loadedAt time.Time
	loadNs   int64 // decode+validate time (a file's read included)
	readers  atomic.Int64
}

// acquire leases the current image for one request. The re-check makes
// the pairing with waitDrain sound: a reader that loads the pointer,
// gets descheduled across a swap, and then increments the drained old
// image would be invisible to a drain that already sampled readers==0 —
// so after incrementing, the reader verifies the image is still
// current and backs off onto the fresh one if not. Go's atomics are
// sequentially consistent, so once the swap is visible every reader
// either re-checks onto the new image or was already counted.
func (s *Server) acquire() *image {
	for {
		im := s.img.Load()
		im.readers.Add(1)
		if s.img.Load() == im {
			return im
		}
		im.readers.Add(-1) // swapped under us; retry on the fresh image
	}
}

// release returns a lease taken by acquire.
func (s *Server) release(im *image) { im.readers.Add(-1) }

// withImage runs f on a lease of the current image and releases it when
// f returns, panic or not. It is the only holder of a lease: the query
// endpoints call it around their answer step alone, and /admin/status
// around its image fields, so a lease spans no response write.
func (s *Server) withImage(f func(im *image)) {
	im := s.acquire()
	defer s.release(im)
	f(im)
}

// publish serves fl as generation gen: it attaches the instruments, then
// swaps in an image built whole inside the Swap call, and returns the
// image it replaced (nil for the first). No caller ever holds the new
// image, so none can write through it once readers can see it.
func (s *Server) publish(fl *oracle.Flat, gen uint64, source string, loadNs int64) *image {
	// Attach instruments before the swap: once the pointer is swapped in,
	// concurrent readers are already querying this image.
	fl.SetMetrics(s.reg)
	fl.SetSlowSampler(s.slow)
	// A raw Swap, not a lease: New publishes before any lease can exist,
	// and reload holds reloadMu.
	return s.img.Swap(&image{
		flat:     fl,
		gen:      gen,
		source:   source,
		bytes:    fl.EncodedSize(),
		loadedAt: time.Now(),
		loadNs:   loadNs,
	})
}

// ReloadResult reports one image swap, echoed as the /admin/reload
// response body.
type ReloadResult struct {
	Generation uint64 `json:"generation"`
	Previous   uint64 `json:"previous"`
	N          int    `json:"n"`
	Bytes      int    `json:"bytes"`
	LoadNs     int64  `json:"load_ns"`  // decode + validate (a file's read included)
	TotalNs    int64  `json:"total_ns"` // load + flip + drain
	Drained    bool   `json:"drained"`  // old image's readers hit zero in time
}

// ReloadImage decodes, validates and publishes a new flat image without
// stopping service. The decoded image owns its memory and keeps nothing
// of data, so the caller may reuse or pool the buffer once ReloadImage
// returns.
//
// The swap sequence is: decode and fully validate off to the side (a
// corrupt image never becomes current — the old image keeps serving),
// attach instruments, then atomically flip the pointer. In-flight
// readers that acquired the old image finish on it; the reload waits
// for their count to drain before returning, so when ReloadImage
// reports Drained the old image is externally unreferenced (only the
// garbage collector holds it).
func (s *Server) ReloadImage(data []byte, source string) (ReloadResult, error) {
	return s.reload(func() (*oracle.Flat, error) { return oracle.DecodeFlat(data) }, source)
}

// ReloadFromFile decodes the image at path straight from the file and
// swaps it in as ReloadImage does: no buffer of the whole image is read
// first. The SIGHUP handler on cmd/pathsepd and operators with a shell
// both land here.
func (s *Server) ReloadFromFile(path string) (ReloadResult, error) {
	return s.reload(func() (*oracle.Flat, error) { return oracle.DecodeFlatFile(path) }, "file:"+path)
}

// reload is ReloadImage for the image decode returns. Around the decode
// it tells Config.HeapBound what is live: nothing bounds the heap while
// the new image is decoded beside the serving one, and after the old
// image has drained, or the decode has failed, the image left serving
// bounds it.
func (s *Server) reload(decode func() (*oracle.Flat, error), source string) (ReloadResult, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	// A raw Load, not a lease: reloadMu serializes all swappers, so cur
	// stays the serving image until publish below.
	cur := s.img.Load()
	s.boundHeap(0)
	fl, err := decode()
	if err != nil {
		s.reloadErrs.Inc()
		s.boundHeap(cur.flat.ResidentBytes())
		return ReloadResult{}, fmt.Errorf("serve: reload rejected, image not swapped: %w", err)
	}
	loadNs := time.Since(start).Nanoseconds()

	gen := cur.gen + 1
	old := s.publish(fl, gen, source, loadNs)
	drained := waitDrain(old, drainTimeout)
	s.boundHeap(fl.ResidentBytes())

	total := time.Since(start).Nanoseconds()
	s.reloads.Inc()
	s.reloadNs.Observe(float64(total))
	s.imageGen.Set(int64(gen))
	return ReloadResult{
		Generation: gen,
		Previous:   old.gen,
		N:          fl.N(),
		Bytes:      fl.EncodedSize(),
		LoadNs:     loadNs,
		TotalNs:    total,
		Drained:    drained,
	}, nil
}

// boundHeap passes resident, the bytes the live images hold or 0 for no
// bound, to Config.HeapBound when one is set.
func (s *Server) boundHeap(resident int) {
	if s.heapBound != nil {
		s.heapBound(resident)
	}
}

// waitDrain spins (with micro-sleeps — no goroutine, nothing to join)
// until old has no readers or the timeout passes.
func waitDrain(old *image, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for old.readers.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// handleReload answers POST /admin/reload: the body is a flat image
// (oracle.Flat encoding, as written by cmd/pathsepd -save-image or
// Flat.Encode). Invalid images are rejected with 422 and the old image
// keeps serving; success echoes the ReloadResult.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// The body is read whole before the decode: a peer on the query port
	// must not make the daemon allocate an image for bytes it never sent,
	// and a declared Content-Length does not vouch for them. The decode
	// copies what it keeps, so the body is garbage as soon as ReloadImage
	// returns.
	body, f := readBody(w, r, maxImage, nil)
	if f != nil {
		s.fail(w, f.code, f.msg)
		return
	}
	if len(body) == 0 {
		s.fail(w, http.StatusBadRequest, "empty body; POST a flat oracle image")
		return
	}
	res, err := s.ReloadImage(body, "reload:"+r.RemoteAddr)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	out, err := json.Marshal(res)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "reload result marshal: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(out)
	_, _ = w.Write([]byte("\n"))
}
