package bench

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
	"pathsep/internal/serve"
)

// Config describes one workload run.
type Config struct {
	Workload string
	Seed     int64         // seed of the request pairs
	Daemon   string        // pathsepd binary (see BuildDaemon)
	WorkDir  string        // directory for the image files handed to the daemon
	Side     int           // grid side; 0 keeps the workload's own
	Warmup   time.Duration // traffic before the rounds: answers checked, nothing timed
	Rounds   int           // timed rounds; rates are their median
	Round    time.Duration // length of one round
	// SetupTime is how long set-up keeps repeating (at least once);
	// setup_s is the median repetition. A longer stretch spans more of
	// the host's slow and fast phases.
	SetupTime time.Duration
	// Trace splits every round into an untraced and a traced half, records
	// a span around every call into a layer, and replays the workload's
	// own inputs in-process to fill the per-layer rows.
	Trace bool
}

// Result is what one workload run measured.
type Result struct {
	Workload  string
	Rows      []Row
	Attempted int64 // requests sent to the daemon, reloads included
	Failed    int64 // transport errors, non-2xx replies and wrong answers
	Wrong     int64 // wrong answers alone
	Spans     []Span
}

// Replay sizes and repetitions of the traced run.
const (
	minReloads    = 24   // scheduled reloads across the rounds of the reload workload
	replayPairs   = 4096 // single-pair calls replayed per layer
	replayBatches = 64   // batch calls replayed per layer
	layerReps     = 5    // in-process decodes and reloads
	healthzReqs   = 2000
	maxLogged     = 5 // failures echoed to stderr per run
)

type runner struct {
	cfg Config
	sp  spec
	res *Result
	tr  *Tracer
	sb  *SpanBuf // spans of the run's own goroutine

	g      *graph.Graph   // graph of image A, for walk checks
	imgs   [][]byte       // A and, on reload, B
	refs   []*oracle.Flat // imgs decoded: the answer key
	pairs  []oracle.Pair
	reqs   [][]byte
	d      *Daemon
	gen    uint64 // image generation the daemon serves
	logged int    // failures echoed so far
}

// Run measures one workload against a fresh pathsepd.
func Run(cfg Config) (*Result, error) {
	sp, err := specFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Side > 0 {
		sp.side = cfg.Side
	}
	if cfg.Rounds < 1 || cfg.Round <= 0 {
		return nil, fmt.Errorf("bench: need at least one round, got %+v", cfg)
	}
	r := &runner{cfg: cfg, sp: sp, res: &Result{Workload: cfg.Workload}, gen: 1}
	if cfg.Trace {
		r.tr = NewTracer()
	}
	r.sb = r.tr.Buf(1 << 16)
	defer func() {
		if r.d != nil {
			r.d.Stop()
		}
	}()

	setupS, err := r.setup()
	if err != nil {
		return nil, err
	}
	count := singleReqs
	if sp.per > 1 {
		count = bulkReqs * sp.per
	}
	r.pairs = pairStream(cfg.Seed, sp.side*sp.side, count)
	r.reqs = renderRequests(sp.endpoint, r.pairs, sp.per)
	r.row("setup_s", Median(setupS), "s", Spread(setupS), len(setupS))
	r.row("image_mb", float64(len(r.imgs[0]))/(1<<20), "MiB", math.NaN(), 1)

	t, err := r.load()
	if err != nil {
		return nil, err
	}
	r.trafficRows(t)
	if cfg.Trace {
		r.d.Stop()
		r.d = nil
		if err := r.replay(); err != nil {
			return nil, err
		}
		r.res.Spans = r.tr.Spans()
		if err := CheckSpans(r.res.Spans); err != nil {
			return nil, fmt.Errorf("bench: %s: malformed trace: %w", cfg.Workload, err)
		}
		r.layerRows()
	}
	r.row("fail_ratio", float64(r.res.Failed)/float64(r.res.Attempted), "failed/attempted", math.NaN(), int(r.res.Attempted))
	return r.res, nil
}

// setup builds the workload's images and starts the daemon on image A,
// over and over until cfg.SetupTime has passed; each repetition is timed
// from the first generated edge to the daemon's first /healthz 200. The
// last daemon keeps running.
func (r *runner) setup() ([]float64, error) {
	file := filepath.Join(r.cfg.WorkDir, r.cfg.Workload+".flat")
	nImgs := 1
	if r.sp.reloads {
		nImgs = 2
	}
	var times []float64
	began := time.Now()
	for rep := int32(0); rep == 0 || time.Since(began) < r.cfg.SetupTime; rep++ {
		if r.d != nil {
			r.d.Stop()
			r.d = nil
		}
		r.g, r.imgs = nil, nil
		runtime.GC() // start every repetition from the same heap
		start := time.Now()
		h := r.sb.Begin("setup", 0, rep)
		for k := 0; k < nImgs; k++ {
			g, img, err := buildImage(r.sp.side, imageSeed+int64(k), r.sb, r.sb.ID(h), rep)
			if err != nil {
				return nil, err
			}
			if k == 0 {
				r.g = g
			}
			r.imgs = append(r.imgs, img)
		}
		if err := os.WriteFile(file, r.imgs[0], 0o644); err != nil {
			return nil, fmt.Errorf("bench: write image: %w", err)
		}
		hs := r.sb.Begin("pathsepd.start", r.sb.ID(h), rep)
		d, err := StartDaemon(r.cfg.Daemon, file)
		r.sb.End(hs)
		r.sb.End(h)
		if err != nil {
			return nil, err
		}
		r.d = d
		times = append(times, time.Since(start).Seconds())
	}
	r.refs = nil
	for _, img := range r.imgs {
		f, err := oracle.DecodeFlat(img)
		if err != nil {
			return nil, fmt.Errorf("bench: decode own image: %w", err)
		}
		r.refs = append(r.refs, f)
	}
	return times, nil
}

// window is one stretch of closed-loop traffic.
type window struct {
	elapsed   time.Duration
	ok        int64
	lat       []float64 // µs, successful requests only
	daemonCPU time.Duration
	selfCPU   time.Duration
}

func (w window) rate() float64 { return float64(w.ok) / w.elapsed.Seconds() }

// traffic is what load measured: the untraced and traced halves of the
// rounds, the reload samples (reload workload only), and the daemon's
// peak RSS after the warm-up and after the rounds.
type traffic struct {
	plain, traced    []window
	reloadMs, lagMs  []float64
	rssMB, peakRSSMB float64
}

// load drives the daemon: warm-up, then the rounds (on reload, with the
// reload schedule beside them), and in a traced run a burst of /healthz.
func (r *runner) load() (*traffic, error) {
	nq := conns
	if r.sp.reloads {
		nq = 1
	}
	workers := make([]*worker, nq)
	for i := range workers {
		workers[i] = &worker{c: NewConn(r.d.Addr), next: i * len(r.reqs) / nq, spans: r.tr.Buf(0)}
		defer workers[i].c.Close()
	}

	if r.cfg.Warmup > 0 {
		if _, err := r.window(workers, r.cfg.Warmup, false); err != nil {
			return nil, err
		}
	}
	// Serving memory is read before the first reload: a reload's peak
	// depends on where the daemon's GC cycles fall, and moves by ±5%
	// from run to run (peak_rss_mb).
	t := &traffic{}
	var err error
	if t.rssMB, err = r.d.PeakRSSMB(); err != nil {
		return nil, err
	}

	var (
		recs    []reloadRec
		stop    = make(chan struct{})
		stopped bool
		wg      sync.WaitGroup
	)
	if r.sp.reloads {
		interval := min(time.Second, time.Duration(r.cfg.Rounds)*r.cfg.Round/minReloads)
		c := NewConn(r.d.Addr)
		defer c.Close()
		sb := r.tr.Buf(256)
		start := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs = r.reloadLoop(c, start, interval, stop, sb)
		}()
	}
	stopReloads := func() {
		if !stopped {
			stopped = true
			close(stop)
			wg.Wait()
		}
	}
	defer stopReloads()

	for k := 0; k < r.cfg.Rounds; k++ {
		d := r.cfg.Round
		if r.cfg.Trace {
			d /= 2
		}
		w, err := r.window(workers, d, false)
		if err != nil {
			return nil, err
		}
		t.plain = append(t.plain, w)
		if r.cfg.Trace {
			// Room for twice a connection's share of the untraced half,
			// so no span buffer grows while the traced half is timed.
			for _, wk := range workers {
				wk.spans.Grow(2*int(w.ok)/nq + 1024)
			}
			if w, err = r.window(workers, d, true); err != nil {
				return nil, err
			}
			t.traced = append(t.traced, w)
		}
	}
	stopReloads()
	if t.peakRSSMB, err = r.d.PeakRSSMB(); err != nil {
		return nil, err
	}
	t.reloadMs, t.lagMs = r.tallyReloads(recs)
	if r.cfg.Trace {
		r.healthz()
	}
	return t, nil
}

// trafficRows adds the end-to-end rows, and in a traced run the CPU and
// overhead rows, from the untraced halves of the rounds.
func (r *runner) trafficRows(t *traffic) {
	var rates, lat []float64
	var perRound [][]float64
	var daemonCPU, selfCPU time.Duration
	var ok int64
	for _, w := range t.plain {
		rates = append(rates, w.rate())
		lat = append(lat, w.lat...)
		perRound = append(perRound, w.lat)
		daemonCPU += w.daemonCPU
		selfCPU += w.selfCPU
		ok += w.ok
	}
	sort.Float64s(lat)
	r.row("qps", Median(rates), "req/s", Spread(rates), len(rates))
	r.row("pairs_per_s", Median(rates)*float64(r.sp.per), "pairs/s", Spread(rates), len(rates))
	for _, p := range []struct {
		name     string
		permille int
	}{{"p50_us", 500}, {"p99_us", 990}, {"p999_us", 999}} {
		if v, err := Percentile(lat, p.permille); err == nil {
			r.row(p.name, v, "us", Spread(roundPercentiles(perRound, p.permille)), len(lat))
		}
	}
	if r.sp.reloads {
		reloads := append([]float64(nil), t.reloadMs...)
		sort.Float64s(reloads)
		if v, err := Percentile(reloads, 500); err == nil {
			r.row("reload_p50_ms", v, "ms", Spread(chunkMedians(t.reloadMs, r.cfg.Rounds)), len(reloads))
		} else {
			fmt.Fprintf(os.Stderr, "bench: %s: reload_p50_ms: %v\n", r.cfg.Workload, err)
		}
	}
	r.row("rss_mb", t.rssMB, "MiB", math.NaN(), 1)
	r.row("peak_rss_mb", t.peakRSSMB, "MiB", math.NaN(), 1)

	if !r.cfg.Trace || ok == 0 {
		return
	}
	r.row("pathsepd.cpu_us_per_req", float64(daemonCPU.Microseconds())/float64(ok), "us", math.NaN(), int(ok))
	r.row("loadgen.cpu_us_per_req", float64(selfCPU.Microseconds())/float64(ok), "us", math.NaN(), int(ok))
	if len(t.lagMs) > 0 {
		r.row("loadgen.reload_lag_ms", Median(t.lagMs), "ms", math.NaN(), len(t.lagMs))
	}
	var over []float64
	for k, w := range t.traced {
		over = append(over, 100*(t.plain[k].rate()-w.rate())/t.plain[k].rate())
	}
	r.row("trace_overhead_pct", Median(over), "%", math.NaN(), len(over))
}

// roundPercentiles returns each round's percentile, skipping rounds too
// small to support it.
func roundPercentiles(rounds [][]float64, permille int) []float64 {
	var out []float64
	for _, lat := range rounds {
		s := append([]float64(nil), lat...)
		sort.Float64s(s)
		if v, err := Percentile(s, permille); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// chunkMedians splits xs into up to k consecutive chunks and returns
// their medians: the spread of a metric whose samples are too few to
// split by round.
func chunkMedians(xs []float64, k int) []float64 {
	k = min(k, len(xs))
	var out []float64
	for i := 0; i < k; i++ {
		out = append(out, Median(xs[i*len(xs)/k:(i+1)*len(xs)/k]))
	}
	return out
}

// window runs the workers' closed loops for d and checks the sampled
// answers once the traffic has stopped.
func (r *runner) window(ws []*worker, d time.Duration, traced bool) (window, error) {
	cpu0, err := r.d.CPU()
	if err != nil {
		return window{}, err
	}
	self0 := processCPU()
	every := checkSingle
	if r.sp.per > 1 {
		every = checkBulk
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			sb := w.spans
			if !traced {
				sb = nil
			}
			w.run(r.reqs, deadline, every, sb)
		}(w)
	}
	wg.Wait()
	win := window{elapsed: time.Since(start), selfCPU: processCPU() - self0}
	cpu1, err := r.d.CPU()
	if err != nil {
		return window{}, err
	}
	win.daemonCPU = cpu1 - cpu0
	for _, w := range ws {
		win.ok += w.ok
		win.lat = append(win.lat, w.lat...)
		r.res.Attempted += w.attempted
		r.res.Failed += w.failed
		if w.err != nil {
			r.logf("%d failed requests, first: %v", w.failed, w.err)
		}
		for _, s := range w.samples {
			if err := r.check(s.i, s.body); err != nil {
				r.wrong(err)
			}
		}
		w.reset()
	}
	return win, nil
}

// check verifies the response body to request i.
func (r *runner) check(i int, body []byte) error {
	if r.sp.per > 1 {
		return checkBatch(body, r.pairs[i*r.sp.per:(i+1)*r.sp.per], r.refs[0])
	}
	u, v := int(r.pairs[i].U), int(r.pairs[i].V)
	if r.sp.endpoint == "/query/path" {
		return checkPath(body, u, v, r.refs[0], r.g)
	}
	return checkQuery(body, u, v, r.refs...)
}

func (r *runner) wrong(err error) {
	r.res.Wrong++
	r.res.Failed++
	r.logf("wrong answer: %v", err)
}

// logf echoes the first maxLogged failures of the run to stderr.
func (r *runner) logf(format string, args ...any) {
	if r.logged < maxLogged {
		r.logged++
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.cfg.Workload, fmt.Sprintf(format, args...))
	}
}

// worker is one closed-loop connection.
type worker struct {
	c     *Conn
	next  int      // next request index
	seq   int      // successful responses so far, for sampling
	spans *SpanBuf // used in traced windows

	lat                   []float64
	samples               []sample
	ok, attempted, failed int64
	err                   error // first failure of the window
}

// sample is a response kept for checking after the window.
type sample struct {
	i    int
	body []byte
}

// run sends requests back to back until deadline, keeping 1 in every
// responses for the checks.
func (w *worker) run(reqs [][]byte, deadline time.Time, every int, sb *SpanBuf) {
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return
		}
		i := w.next
		w.next = (i + 1) % len(reqs)
		h := sb.Begin("loadgen.request", 0, int32(i))
		status, body, err := w.c.Do(reqs[i], nil)
		sb.End(h)
		w.attempted++
		if err == nil && status/100 != 2 {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err != nil {
			w.failed++
			if w.err == nil {
				w.err = err
			}
			continue
		}
		w.lat = append(w.lat, float64(time.Since(t0))/1e3)
		w.ok++
		if w.seq%every == 0 {
			w.samples = append(w.samples, sample{i, bytes.Clone(body)})
		}
		w.seq++
	}
}

func (w *worker) reset() {
	w.lat, w.samples = w.lat[:0], w.samples[:0]
	w.ok, w.attempted, w.failed, w.err = 0, 0, 0, nil
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reloadRec is one POST /admin/reload as the generator saw it.
type reloadRec struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

// reloadLoop posts image B, A, B, … at start+k·interval (an open-loop
// schedule) until stop closes.
func (r *runner) reloadLoop(c *Conn, start time.Time, interval time.Duration, stop <-chan struct{}, sb *SpanBuf) []reloadRec {
	heads := [][]byte{postHead("/admin/reload", len(r.imgs[0])), postHead("/admin/reload", len(r.imgs[1]))}
	var recs []reloadRec
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		t := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			t.Stop()
			return recs
		case <-t.C:
		}
		rec := reloadRec{due: due, sent: time.Now()}
		h := sb.Begin("loadgen.reload", 0, int32(k))
		status, body, err := c.Do(heads[k%2], r.imgs[k%2])
		sb.End(h)
		rec.done, rec.status, rec.body, rec.err = time.Now(), status, bytes.Clone(body), err
		recs = append(recs, rec)
	}
}

// tallyReloads counts and checks reloads, and returns each one's latency
// (from its due time) and send lag in ms.
func (r *runner) tallyReloads(recs []reloadRec) (lat, lag []float64) {
	for _, rec := range recs {
		r.res.Attempted++
		err := rec.err
		if err == nil && rec.status != http.StatusOK {
			err = fmt.Errorf("reload status %d: %.200s", rec.status, rec.body)
		}
		if err != nil {
			r.res.Failed++
			r.logf("reload failed: %v", err)
			continue
		}
		r.gen++
		if err := checkGeneration(rec.body, r.gen); err != nil {
			r.wrong(err)
			continue
		}
		lat = append(lat, float64(rec.done.Sub(rec.due))/1e6)
		lag = append(lag, float64(rec.sent.Sub(rec.due))/1e6)
	}
	return lat, lag
}

// healthz times GET /healthz over loopback: the transport and mux floor.
func (r *runner) healthz() {
	c := NewConn(r.d.Addr)
	defer c.Close()
	req := getRequest("/healthz")
	for k := int32(0); k < healthzReqs; k++ {
		h := r.sb.Begin("pathsepd.healthz", 0, k)
		status, _, err := c.Do(req, nil)
		r.sb.End(h)
		r.res.Attempted++
		if err != nil || status != http.StatusOK {
			r.res.Failed++
			r.logf("healthz: status %d, %v", status, err)
		}
	}
}

// replay calls each layer in-process on the workload's own inputs, one
// span per call: the oracle on a decoded copy of image A, the serve
// handlers through Server.Handler into a ResponseRecorder (no socket),
// then DecodeFlat and Server.ReloadImage on fresh copies of the image.
func (r *runner) replay() error {
	fl, err := oracle.DecodeFlat(bytes.Clone(r.imgs[0]))
	if err != nil {
		return err
	}
	served, err := oracle.DecodeFlat(bytes.Clone(r.imgs[0]))
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Flat: served, Reg: obs.New(), Slow: obs.NewSlowQuerySampler(16), Source: "bench"})
	if err != nil {
		return err
	}
	h := srv.Handler()
	call := func(name string, parent, req int32, hreq *http.Request) error {
		rec := httptest.NewRecorder()
		s := r.sb.Begin(name, parent, req)
		h.ServeHTTP(rec, hreq)
		r.sb.End(s)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("bench: replay %s %s: status %d: %s", hreq.Method, hreq.URL, rec.Code, rec.Body.Bytes())
		}
		return nil
	}

	var path []int32
	var verts int
	n := min(replayPairs, len(r.pairs))
	for i := int32(0); i < int32(n); i++ {
		u, v := int(r.pairs[i].U), int(r.pairs[i].V)
		qreq := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/query?u=%d&v=%d", u, v), nil)
		preq := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/query/path?u=%d&v=%d", u, v), nil)
		root := r.sb.Begin("replay", 0, i)
		id := r.sb.ID(root)
		s := r.sb.Begin("oracle.query", id, i)
		fl.Query(u, v)
		r.sb.End(s)
		s = r.sb.Begin("oracle.path", id, i)
		_, path, err = fl.QueryPath(u, v, path)
		r.sb.End(s)
		if err != nil {
			return fmt.Errorf("bench: replay QueryPath(%d,%d): %w", u, v, err)
		}
		verts += len(path)
		if err := call("serve.query_handler", id, i, qreq); err != nil {
			return err
		}
		if err := call("serve.path_handler", id, i, preq); err != nil {
			return err
		}
		r.sb.End(root)
	}
	r.row("oracle.path_verts", float64(verts)/float64(n), "verts", math.NaN(), n)

	var out []float64
	for b := int32(0); b < replayBatches; b++ {
		at := int(b) * batchPairs % (len(r.pairs) - batchPairs + 1)
		pairs := r.pairs[at : at+batchPairs]
		breq := httptest.NewRequest(http.MethodPost, "/query/batchbin", bytes.NewReader(encodePairs(pairs)))
		root := r.sb.Begin("replay", 0, b)
		id := r.sb.ID(root)
		s := r.sb.Begin("oracle.batch", id, b)
		out = fl.QueryBatchWorkers(pairs, out, 0)
		r.sb.End(s)
		if err := call("serve.batchbin_handler", id, b, breq); err != nil {
			return err
		}
		r.sb.End(root)
	}

	// Each repetition starts from a collected heap, so one rep's garbage
	// does not bill its collection to the next.
	for k := int32(0); k < layerReps; k++ {
		img := bytes.Clone(r.imgs[0])
		runtime.GC()
		s := r.sb.Begin("oracle.decode", 0, k)
		_, err := oracle.DecodeFlat(img)
		r.sb.End(s)
		if err != nil {
			return err
		}
	}
	for k := int32(0); k < layerReps; k++ {
		img := bytes.Clone(r.imgs[int(k)%len(r.imgs)])
		runtime.GC()
		s := r.sb.Begin("serve.reload", 0, k)
		_, err := srv.ReloadImage(img, "bench")
		r.sb.End(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// layerRows turns the traced spans into the per-layer rows.
func (r *runner) layerRows() {
	d := durations(r.res.Spans)
	med := func(span string) float64 { return Median(d[span]) }
	for _, m := range []struct {
		metric, span, unit string
		ns                 float64 // nanoseconds per unit
	}{
		{"core.decompose_s", "core.decompose", "s", 1e9},
		{"oracle.build_s", "oracle.build", "s", 1e9},
		{"oracle.freeze_s", "oracle.freeze", "s", 1e9},
		{"oracle.encode_ms", "oracle.encode", "ms", 1e6},
		{"oracle.decode_ms", "oracle.decode", "ms", 1e6},
		{"oracle.query_ns", "oracle.query", "ns", 1},
		{"oracle.path_ns", "oracle.path", "ns", 1},
		{"oracle.batch_ns_per_pair", "oracle.batch", "ns", batchPairs},
		{"serve.query_handler_us", "serve.query_handler", "us", 1e3},
		{"serve.path_handler_us", "serve.path_handler", "us", 1e3},
		{"serve.batchbin_handler_us", "serve.batchbin_handler", "us", 1e3},
		{"serve.reload_ms", "serve.reload", "ms", 1e6},
		{"pathsepd.start_ms", "pathsepd.start", "ms", 1e6},
		{"pathsepd.healthz_us", "pathsepd.healthz", "us", 1e3},
	} {
		xs := d[m.span]
		if len(xs) == 0 {
			continue
		}
		chunks := chunkMedians(xs, 4)
		r.row(m.metric, Median(xs)/m.ns, m.unit, Spread(chunks), len(xs))
	}
	// Self times by subtraction on the same sample.
	r.row("serve.query_self_us", (med("serve.query_handler")-med("oracle.query"))/1e3, "us", math.NaN(), len(d["serve.query_handler"]))
	r.row("serve.path_self_us", (med("serve.path_handler")-med("oracle.path"))/1e3, "us", math.NaN(), len(d["serve.path_handler"]))
	r.row("serve.batchbin_self_us", (med("serve.batchbin_handler")-med("oracle.batch"))/1e3, "us", math.NaN(), len(d["serve.batchbin_handler"]))
	r.row("serve.reload_self_ms", (med("serve.reload")-med("oracle.decode"))/1e6, "ms", math.NaN(), len(d["serve.reload"]))
	handler := map[string]string{"/query": "serve.query_handler", "/query/path": "serve.path_handler", "/query/batchbin": "serve.batchbin_handler"}[r.sp.endpoint]
	for _, row := range r.res.Rows {
		if row.Metric == "p50_us" {
			r.row("transport_us", row.Value-med(handler)/1e3, "us", math.NaN(), row.Samples)
		}
	}
}

func (r *runner) row(metric string, v float64, unit string, spread float64, samples int) {
	r.res.Rows = append(r.res.Rows, Row{Workload: r.cfg.Workload, Metric: metric, Value: v, Unit: unit, Spread: spread, Samples: samples})
}
