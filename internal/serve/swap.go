package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"pathsep/internal/oracle"
)

// DefaultMaxImage caps the image bytes accepted by POST /admin/reload
// when Config.MaxImage is zero: 1 GiB, far above any image this repo
// builds, far below an accidental /dev/zero upload.
const DefaultMaxImage = 1 << 30

// drainTimeout bounds how long a reload waits for readers of the old
// image to finish before declaring the drain incomplete. Readers hold
// an image only across one query/batch call, so this is generous.
const drainTimeout = 5 * time.Second

// image is one immutable serving generation: a frozen flat oracle plus
// its load metadata and a live-reader count. Every field except readers
// is written before the image is published through Server.img and never
// after (the atomicmix publish rule); readers is only touched through
// its atomic methods.
//
// The leasepair analyzer enforces the acquire/release protocol on this
// type: every handler path releases its lease, no lease is used after
// release, and nothing outside the annotated bypass sites touches
// Server.img directly.
//
//pathsep:lease acquire=acquire release=release
type image struct {
	flat     *oracle.Flat
	gen      uint64
	source   string
	bytes    int
	loadedAt time.Time
	loadNs   int64 // decode+validate time
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

// newImage wraps a decoded flat oracle with its metadata. The caller
// publishes it afterwards; nothing here escapes early.
func (s *Server) newImage(fl *oracle.Flat, gen uint64, source string, bytes int, loadNs int64) *image {
	// Attach instruments before publish: once the pointer is swapped in,
	// concurrent readers are already querying this image.
	fl.SetMetrics(s.reg)
	fl.SetSlowSampler(s.slow)
	return &image{
		flat:     fl,
		gen:      gen,
		source:   source,
		bytes:    bytes,
		loadedAt: time.Now(),
		loadNs:   loadNs,
	}
}

// ReloadResult reports one image swap, echoed as the /admin/reload
// response body.
type ReloadResult struct {
	Generation uint64 `json:"generation"`
	Previous   uint64 `json:"previous"`
	N          int    `json:"n"`
	Bytes      int    `json:"bytes"`
	LoadNs     int64  `json:"load_ns"`  // decode + validate
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
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	start := time.Now()
	fl, err := oracle.DecodeFlat(data)
	if err != nil {
		s.reloadErrs.Inc()
		return ReloadResult{}, fmt.Errorf("serve: reload rejected, image not swapped: %w", err)
	}
	loadNs := time.Since(start).Nanoseconds()

	// Raw pointer access is sanctioned here: reloadMu serializes all
	// swappers, and the Swap itself is the publish the lease guards.
	cur := s.img.Load() //pathsep:lease-bypass
	im := s.newImage(fl, cur.gen+1, source, len(data), loadNs)
	old := s.img.Swap(im) //pathsep:lease-bypass
	drained := waitDrain(old, drainTimeout)

	total := time.Since(start).Nanoseconds()
	s.reloads.Inc()
	s.reloadNs.Observe(float64(total))
	s.imageGen.Set(int64(im.gen))
	return ReloadResult{
		Generation: im.gen,
		Previous:   old.gen,
		N:          fl.N(),
		Bytes:      len(data),
		LoadNs:     loadNs,
		TotalNs:    total,
		Drained:    drained,
	}, nil
}

// ReloadFromFile reads path and swaps it in; the SIGHUP handler on
// cmd/pathsepd and operators with a shell both land here.
func (s *Server) ReloadFromFile(path string) (ReloadResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		s.reloadErrs.Inc()
		return ReloadResult{}, fmt.Errorf("serve: reload rejected, image not swapped: %w", err)
	}
	return s.ReloadImage(data, "file:"+path)
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
	// The decode copies what it keeps, so the body buffer is garbage as
	// soon as ReloadImage returns.
	body, ok := s.readBody(w, r, int64(s.maxImage))
	if !ok {
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
