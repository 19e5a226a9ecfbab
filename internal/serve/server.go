// Package serve hosts a frozen flat oracle (oracle.Flat) behind HTTP —
// the off-process serving form of the library. One Server owns one
// immutable image and exposes:
//
//	GET  /query?u=&v=      one distance query, JSON
//	GET  /query/path?u=&v= distance plus witness path, JSON
//	POST /query/batch      JSON batch: {"pairs":[[u,v],...]} -> {"dists":[...]}
//	POST /query/batchbin   binary batch: LE uint32 pairs in, LE float64 out
//	GET  /admin/status     image metadata, serving stats, slow-query
//	                       exemplars, obs snapshot, build info
//	GET  /healthz          liveness
//	GET  /metrics          Prometheus text format (via internal/obs)
//	     /debug/vars, /debug/pprof/*
//
// Everything rides the stdlib net/http server, so graceful drain is
// http.Server.Shutdown: the listener closes first, in-flight queries
// complete, then Shutdown returns.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pathsep/internal/obs"
	"pathsep/internal/oracle"
)

// DefaultMaxBatch caps the pairs accepted by one batch request when
// Config.MaxBatch is zero.
const DefaultMaxBatch = 1 << 16

// Config assembles a Server.
type Config struct {
	// Flat is the image to serve. Required. New attaches serving metrics
	// (and the sampler, when given) to it.
	Flat *oracle.Flat
	// Reg receives all serving instruments; a private registry is created
	// when nil, so /metrics always has something to say.
	Reg *obs.Registry
	// Slow, when non-nil, retains the slowest queries as exemplars,
	// surfaced by /admin/status.
	Slow *obs.SlowQuerySampler
	// Workers is the QueryBatch pool width (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// MaxBatch caps pairs per batch request (0 = DefaultMaxBatch).
	MaxBatch int
	// Source describes where the image came from ("file:oracle.flat",
	// "built:grid64"), echoed by /admin/status.
	Source string
	// HeapBound, when set, is called around every reload that reaches the
	// decode: with 0 before it, since the new image is then decoded
	// beside the serving one, and after it with the ResidentBytes of the
	// image left serving alone — the new one once the old has drained, or
	// the old one if the decode failed. cmd/pathsepd bounds its heap with
	// it; a nil HeapBound leaves the process's memory settings alone.
	HeapBound func(resident int)
}

// Connection timeouts. readHeaderTimeout bounds how long a connection
// may take to send a request's headers, so a client that opens
// connections and trickles bytes into them (a slow loris) cannot hold
// them open; readTimeout bounds the whole request, body included, so a
// client that sends its headers and then trickles a body cannot either;
// writeTimeout bounds a request from the end of its headers to the end
// of its response, so a client that reads a response slowly cannot hold
// a handler. writeTimeout outlasts a /debug/pprof/profile request's
// default 30 s (pprof refuses a profile no shorter than the timeout) and
// a reload: its body, within readTimeout, then the decode and the old
// image's 5 s drain. idleTimeout closes a keep-alive connection that
// sends no next request. A client that pauses between requests, as the
// bench's reload connection does for up to a second, stays far inside
// it. Tests shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// maxImage caps the image bytes POST /admin/reload accepts: 1 GiB, far
// above any image this repo builds, far below an accidental /dev/zero
// upload. Tests shorten it.
var maxImage int64 = 1 << 30

// Server serves a flat oracle image — the *current* one: the image
// lives behind an atomic pointer so POST /admin/reload (or SIGHUP on
// cmd/pathsepd) can swap in a new generation while in-flight requests
// finish on the old one. Create with New, start with Start (or mount
// Handler on your own server), swap with ReloadImage, stop with
// Shutdown.
type Server struct {
	img      atomic.Pointer[image]
	reg      *obs.Registry
	slow     *obs.SlowQuerySampler
	workers  int
	maxBatch int
	started  time.Time

	heapBound func(resident int)

	// reloadMu serializes image swaps: one decode+flip+drain at a time,
	// so generations are strictly increasing and drain waits don't
	// interleave. Readers never take it.
	reloadMu sync.Mutex

	mux       *http.ServeMux
	srv       *http.Server
	serveDone chan struct{} // closed when Start's serve goroutine exits

	inflight   atomic.Int64
	queries    *obs.Counter
	batches    *obs.Counter
	pairs      *obs.Counter
	errs       *obs.Counter
	errs4xx    *obs.Counter
	errs5xx    *obs.Counter
	reloads    *obs.Counter
	reloadErrs *obs.Counter
	inflightG  *obs.Gauge
	imageGen   *obs.Gauge
	reloadNs   *obs.Histogram

	// scratch holds *scratch values, one per query request in flight.
	scratch sync.Pool
}

// New wires a Server over cfg.Flat. The flat image gains the registry's
// query instruments and the slow-query sampler as a side effect.
func New(cfg Config) (*Server, error) {
	if cfg.Flat == nil {
		return nil, errors.New("serve: Config.Flat is required")
	}
	if cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("serve: negative MaxBatch %d", cfg.MaxBatch)
	}
	reg := cfg.Reg
	if reg == nil {
		reg = obs.New()
	}
	s := &Server{
		reg:      reg,
		slow:     cfg.Slow,
		workers:  cfg.Workers,
		maxBatch: cfg.MaxBatch,
		started:  time.Now(),

		heapBound: cfg.HeapBound,
		scratch:   sync.Pool{New: func() any { return new(scratch) }},
	}
	if s.maxBatch == 0 {
		s.maxBatch = DefaultMaxBatch
	}
	s.queries = reg.Counter("serve.queries")
	s.batches = reg.Counter("serve.batches")
	s.pairs = reg.Counter("serve.batch_pairs")
	s.errs = reg.Counter("serve.errors")
	s.errs4xx = reg.Counter("serve.errors_4xx")
	s.errs5xx = reg.Counter("serve.errors_5xx")
	s.reloads = reg.Counter("serve.reloads")
	s.reloadErrs = reg.Counter("serve.reload_errors")
	s.inflightG = reg.Gauge("serve.inflight")
	s.imageGen = reg.Gauge("serve.image_generation")
	s.reloadNs = reg.Histogram("serve.reload_ns")

	// Generation 1 is the image the server was born with; reloads count
	// up from here. Published before the mux exists, so no reader can
	// ever observe a nil image.
	s.publish(cfg.Flat, 1, cfg.Source, 0)
	s.imageGen.Set(1)

	s.mux = http.NewServeMux()
	s.mux.Handle("/query", s.track(endpoint{
		method: http.MethodGet, latency: "serve.query_request_ns",
		parse: parsePair, answer: answerQuery, write: writeQuery,
	}))
	s.mux.Handle("/query/path", s.track(endpoint{
		method: http.MethodGet, latency: "serve.path_request_ns",
		parse: parsePair, answer: answerPath, write: writePath,
	}))
	s.mux.Handle("/query/batch", s.track(endpoint{
		method: http.MethodPost, latency: "serve.batch_request_ns", batch: true,
		parse: s.parseBatchJSON, answer: answerBatch(s.workers, true), write: writeBatchJSON,
	}))
	s.mux.Handle("/query/batchbin", s.track(endpoint{
		method: http.MethodPost, latency: "serve.batchbin_request_ns", batch: true,
		parse: s.parseBatchBin, answer: answerBatch(s.workers, false), write: writeBatchBin,
	}))
	s.mux.HandleFunc("/admin/status", s.handleStatus)
	s.mux.HandleFunc("/admin/reload", s.handleReload)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	obs.RegisterDebug(s.mux, reg)
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	return s, nil
}

// Handler returns the server's mux, for mounting under httptest or an
// outer server. Requests served this way still count toward the serving
// instruments, but are not drained by Shutdown.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (":0" picks a free port) and serves in a background
// goroutine. It returns the bound address; failures to bind surface
// here. The goroutine is joined by Shutdown, not abandoned.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.srv.Addr = ln.Addr().String()
	s.serveDone = make(chan struct{})
	go func() {
		// http.ErrServerClosed is the normal Shutdown result; a dying
		// listener surfaces through failing requests and Shutdown itself.
		defer close(s.serveDone)
		_ = s.srv.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Shutdown drains the server: the listener closes immediately, requests
// already being served run to completion (bounded by ctx), the
// instruments keep counting until the last one finishes, and the serve
// goroutine launched by Start has exited by the time Shutdown returns
// (unless ctx expired first).
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if s.serveDone != nil {
		select {
		case <-s.serveDone:
		case <-ctx.Done():
		}
	}
	return err
}

// Inflight reports the query requests currently being served.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// track serves one query endpoint. Each request takes one scratch value
// from the pool and gives it back by defer, on every path; it holds the
// image lease only around ep.answer, so the lease is released before the
// response is written and a slow client never holds up a reload's drain.
// track also keeps the in-flight gauge and the endpoint's request latency
// histogram, which it looks up once here rather than on every request.
func (s *Server) track(ep endpoint) http.Handler {
	reqNs := s.reg.Histogram(ep.latency)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := s.inflight.Add(1)
		s.inflightG.Set(n)
		start := time.Now()
		sc := s.scratch.Get().(*scratch)
		defer s.scratch.Put(sc)
		if f := s.handle(w, r, &ep, sc); f != nil {
			s.fail(w, f.code, f.msg)
		}
		reqNs.Observe(float64(time.Since(start)))
		s.inflightG.Set(s.inflight.Add(-1))
	})
}

// handle runs ep's steps on one request and returns the failure that
// rejects it, if one does. The counters count a request once its lease
// is released.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, ep *endpoint, sc *scratch) *failure {
	if r.Method != ep.method {
		return &failure{http.StatusMethodNotAllowed, ep.method + " only"}
	}
	if f := ep.parse(w, r, sc); f != nil {
		return f
	}
	var f *failure
	s.withImage(func(im *image) { f = ep.answer(im.flat, sc) })
	if f != nil {
		return f
	}
	if ep.batch {
		s.batches.Inc()
		s.pairs.Add(int64(len(sc.pairs)))
	} else {
		s.queries.Inc()
	}
	ep.write(w, sc)
	return nil
}

// fail rejects a request with a plain-text error and counts it, in the
// total and in its status class.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.errs.Inc()
	if code >= http.StatusInternalServerError {
		s.errs5xx.Inc()
	} else {
		s.errs4xx.Inc()
	}
	http.Error(w, msg, code)
}

// readBody reads r's body, up to limit bytes, into buf's backing array
// and returns it, in a new array when buf's is too small (see fill). A
// body over the cap is a 413; any other read error (a client that stops
// mid-upload, a dropped connection) is a bad request, not a large one,
// and a 400. The buffer returned is the caller's to keep either way.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, *failure) {
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		buf, err = fill(http.MaxBytesReader(w, r.Body, limit), buf[:0], int(r.ContentLength))
	}
	if err == nil {
		return buf, nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return buf, &failure{http.StatusRequestEntityTooLarge, fmt.Sprintf("body larger than the %d-byte cap", limit)}
	}
	return buf, &failure{http.StatusBadRequest, "reading body: " + err.Error()}
}

// bodyPrealloc bounds what a declared body length allocates before its
// bytes arrive. A batch body, far below it, takes one allocation of its
// length; a longer one, such as an image on /admin/reload, grows toward
// its length as its bytes arrive, so a peer that declares more than it
// sends gets bodyPrealloc, or twice what it sent, at most.
const bodyPrealloc = 1 << 20

// fill appends r's bytes to buf until EOF or, when want is not negative
// (a declared length), until it holds want bytes; an earlier EOF is then
// an error. buf grows only when full, by doubling, never past want, and
// for a declared length from min(want, bodyPrealloc). io.ReadAll instead
// grows a fresh slice from 512 bytes through every size class on the
// way, allocating several times the body, most of it garbage.
func fill(r io.Reader, buf []byte, want int) ([]byte, error) {
	for want < 0 || len(buf) < want {
		if len(buf) == cap(buf) {
			c := max(2*cap(buf), 512)
			if want >= 0 {
				c = min(max(c, bodyPrealloc), want)
			}
			grown := make([]byte, len(buf), c)
			copy(grown, buf)
			buf = grown
		}
		end := cap(buf)
		if want >= 0 {
			end = min(end, want)
		}
		n, err := r.Read(buf[len(buf):end])
		buf = buf[:len(buf)+n]
		switch {
		case err == nil:
		case !errors.Is(err, io.EOF):
			return buf, err
		case want >= 0 && len(buf) < want:
			return buf, io.ErrUnexpectedEOF
		default:
			return buf, nil
		}
	}
	return buf, nil
}
