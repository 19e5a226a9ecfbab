package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
)

// testFlat builds and freezes a small grid oracle.
func testFlat(tb testing.TB) *oracle.Flat {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	r := embed.Grid(12, 12, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		tb.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverPortal})
	if err != nil {
		tb.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		tb.Fatal(err)
	}
	return fl
}

// newTestServer wires a Server (with sampler) plus an httptest front end.
func newTestServer(tb testing.TB, cfg Config) (*Server, *httptest.Server, *oracle.Flat) {
	tb.Helper()
	fl := cfg.Flat
	if fl == nil {
		fl = testFlat(tb)
		cfg.Flat = fl
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts, fl
}

func TestQueryEndpoint(t *testing.T) {
	_, ts, fl := newTestServer(t, Config{Slow: obs.NewSlowQuerySampler(4)})

	resp, err := http.Get(ts.URL + "/query?u=0&v=17")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got struct {
		U    int      `json:"u"`
		V    int      `json:"v"`
		Dist *float64 `json:"dist"`
		Ns   int64    `json:"ns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := fl.Query(0, 17)
	if got.U != 0 || got.V != 17 || got.Dist == nil || *got.Dist != want {
		t.Fatalf("got %+v, want dist %v", got, want)
	}
	if got.Ns < 0 {
		t.Fatalf("negative latency %d", got.Ns)
	}

	// Out-of-range vertex: a 400 naming the valid range, not a silent
	// null distance.
	resp2, err := http.Get(ts.URL + "/query?u=0&v=99999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "[0, 144)") {
		t.Fatalf("out-of-range: status=%d body=%s, want 400 naming [0, 144)", resp2.StatusCode, body)
	}

	// Malformed arguments are a 400.
	resp3, err := http.Get(ts.URL + "/query?u=zero&v=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad args: status=%d, want 400", resp3.StatusCode)
	}
}

func TestBatchJSONEndpoint(t *testing.T) {
	_, ts, fl := newTestServer(t, Config{})
	req := `{"pairs":[[0,5],[3,9],[7,7]]}`
	resp, err := http.Post(ts.URL+"/query/batch", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got struct {
		N     int        `json:"n"`
		Dists []*float64 `json:"dists"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.N != 3 || len(got.Dists) != 3 {
		t.Fatalf("n=%d len=%d, want 3/3", got.N, len(got.Dists))
	}
	for i, pair := range [][2]int{{0, 5}, {3, 9}, {7, 7}} {
		want := fl.Query(pair[0], pair[1])
		if got.Dists[i] == nil || *got.Dists[i] != want {
			t.Errorf("pair %d: got %v, want %v", i, got.Dists[i], want)
		}
	}

	// A batch with an out-of-range ID is rejected whole, with a 400
	// naming the offending index.
	for _, bad := range []string{
		`{"pairs":[[0,5],[3,9],[7,7],[0,99999]]}`,
		`{"pairs":[[0,5],[3,9],[7,7],[-2,1]]}`,
	} {
		resp, err := http.Post(ts.URL+"/query/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "pair 3") {
			t.Fatalf("out-of-range batch: status=%d body=%s, want 400 naming pair 3", resp.StatusCode, body)
		}
	}
}

func TestBatchBinEndpoint(t *testing.T) {
	_, ts, fl := newTestServer(t, Config{})
	pairs := [][2]int32{{0, 5}, {3, 9}, {143, 0}, {7, 7}, {0, 1 << 30}}
	body := make([]byte, 8*len(pairs))
	for i, p := range pairs {
		binary.LittleEndian.PutUint32(body[8*i:], uint32(p[0]))
		binary.LittleEndian.PutUint32(body[8*i+4:], uint32(p[1]))
	}
	resp, err := http.Post(ts.URL+"/query/batchbin", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out) != 8*len(pairs) {
		t.Fatalf("status=%d len=%d, want 200/%d", resp.StatusCode, len(out), 8*len(pairs))
	}
	for i, p := range pairs {
		got := math.Float64frombits(binary.LittleEndian.Uint64(out[8*i:]))
		want := fl.Query(int(p[0]), int(p[1]))
		// Bitwise: the wire carries exactly what Flat.Query answers.
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("pair %d (%d,%d): got %v, want %v", i, p[0], p[1], got, want)
		}
	}

	// A body that is not whole pairs is a 400.
	resp2, err := http.Post(ts.URL+"/query/batchbin", "application/octet-stream", bytes.NewReader(body[:13]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged body: status=%d, want 400", resp2.StatusCode)
	}
}

func TestBatchCap(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxBatch: 2})
	body := make([]byte, 8*3)
	resp, err := http.Post(ts.URL+"/query/batchbin", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap batch: status=%d, want 413", resp.StatusCode)
	}
}

// failingBody yields one pair's bytes, then fails the read the way a
// client that drops mid-upload does.
type failingBody struct{ sent bool }

func (b *failingBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, "\x00\x00\x00\x00\x01\x00\x00\x00"), nil
	}
	return 0, errors.New("connection reset mid-upload")
}

// TestBodyReadErrors pins the status of a body that fails mid-read on
// each endpoint that reads one: the request is bad (400), not too large
// (413) — only a body over the cap is.
func TestBodyReadErrors(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	for _, path := range []string{"/query/batch", "/query/batchbin", "/admin/reload"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, &failingBody{}))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: body failing mid-read: status %d (%s), want 400", path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
}

func TestAdminStatus(t *testing.T) {
	s, ts, fl := newTestServer(t, Config{
		Slow:   obs.NewSlowQuerySampler(4),
		Source: "test:grid12",
	})
	// Drive some traffic first so the counters are non-trivial.
	for i := 0; i < 5; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/query?u=%d&v=%d", ts.URL, i, 100+i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	runtime.GC()

	resp, err := http.Get(ts.URL + "/admin/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Service != "pathsepd" || st.Image.Source != "test:grid12" {
		t.Fatalf("identity fields wrong: %+v", st)
	}
	if st.Image.N != fl.N() || st.Image.Bytes != fl.EncodedSize() || st.Image.Mode != "portal" {
		t.Fatalf("image metadata wrong: %+v", st.Image)
	}
	if st.Image.ResidentBytes != fl.ResidentBytes() || st.Image.ResidentBytes < 16*fl.NumPortals() {
		t.Fatalf("resident_bytes = %d, image says %d (its %d portals alone hold %d B of lane)",
			st.Image.ResidentBytes, fl.ResidentBytes(), fl.NumPortals(), 16*fl.NumPortals())
	}
	if st.Image.LaneAligned != fl.LaneAligned() {
		t.Fatalf("lane_aligned = %v, image says %v", st.Image.LaneAligned, fl.LaneAligned())
	}
	if st.Serving.Queries != 5 {
		t.Fatalf("queries = %d, want 5", st.Serving.Queries)
	}
	if len(st.SlowQueries) == 0 || st.SlowSeen != 5 {
		t.Fatalf("slow-query exemplars missing: %+v (seen %d)", st.SlowQueries, st.SlowSeen)
	}
	if st.Metrics.Histograms["oracle.query_ns"].Count != 5 {
		t.Fatalf("obs snapshot not embedded: %+v", st.Metrics.Histograms)
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight = %d after all requests done", s.Inflight())
	}
	// The server sets no memory limit of its own: it reports the
	// process's, and at least the collection just forced.
	if limit := debug.SetMemoryLimit(-1); st.MemoryLimit != limit {
		t.Fatalf("memory_limit = %d, the process's is %d", st.MemoryLimit, limit)
	}
	if st.GCCycles == 0 {
		t.Fatal("gc_cycles = 0 after a forced collection")
	}
}

// TestBatchJSONReusedScratch pins the JSON batch answers across requests
// that share a scratch: the decoder appends into the scratch's pairs, and
// a null element leaves the pair it lands on as it finds it, so a pair
// of an earlier request must not show through. After
// {"pairs":[[11,12],[13,14]]}, the body {"pairs":[null,[7]]} must answer
// the pairs (0, 0) and (7, 0), as a fresh slice decodes it, and not
// (11, 12) and (7, 0). A repeated "pairs" key decodes twice into the
// same slice, so after {"pairs":[[11,12],[13,14]],"pairs":[[1,2]]} the
// body {"pairs":[[0,0],null]} must answer (0, 0) twice, and not (13, 14)
// second. Three rounds in one goroutine, so the pool hands the same
// scratch back at least once outside the race detector.
func TestBatchJSONReusedScratch(t *testing.T) {
	s, _, fl := newTestServer(t, Config{Workers: 1})
	post := func(body string) []*float64 {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/batch", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
		var got struct {
			Dists []*float64 `json:"dists"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		return got.Dists
	}
	for _, tc := range []struct {
		first, second string
		want          [][2]int
	}{
		{`{"pairs":[[11,12],[13,14]]}`, `{"pairs":[null,[7]]}`, [][2]int{{0, 0}, {7, 0}}},
		{`{"pairs":[[11,12],[13,14]],"pairs":[[1,2]]}`, `{"pairs":[[0,0],null]}`, [][2]int{{0, 0}, {0, 0}}},
	} {
		for round := 0; round < 3; round++ {
			post(tc.first)
			got := post(tc.second)
			if len(got) != len(tc.want) {
				t.Fatalf("%s after %s, round %d: %d answers, want %d", tc.second, tc.first, round, len(got), len(tc.want))
			}
			for i, p := range tc.want {
				if want := fl.Query(p[0], p[1]); got[i] == nil || *got[i] != want {
					t.Fatalf("%s after %s, round %d: pair %d answers %s, want %v", tc.second, tc.first, round, i, distText(got[i]), want)
				}
			}
		}
	}
}

// TestBatchJSONScratchBound pins what a JSON batch leaves in the pooled
// scratch: a body may hold more pairs than the cap, which is checked
// only once they are decoded, and the decoded slice must not stay
// behind at that size. With a cap of 4 pairs, a 64-pair body is refused
// with a 413, and the scratch the pool hands out next holds room for at
// most 4 pairs. Under the race detector the pool drops values at random,
// so there is nothing to look at.
func TestBatchJSONScratchBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values at random under the race detector")
	}
	s, _, _ := newTestServer(t, Config{MaxBatch: 4})
	body := `{"pairs":[` + strings.Repeat(`[0,1],`, 63) + `[0,1]]}`
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query/batch", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("64-pair batch under a cap of 4: status %d, want 413", rec.Code)
	}
	sc := s.scratch.Get().(*scratch)
	defer s.scratch.Put(sc)
	if c := cap(sc.batch.Pairs); c > 4 {
		t.Fatalf("the scratch keeps room for %d decoded pairs after a refused batch, want at most the cap of 4", c)
	}
}

// distText prints a JSON batch answer: its value, or null.
func distText(d *float64) string {
	if d == nil {
		return "null"
	}
	return strconv.FormatFloat(*d, 'g', -1, 64)
}

// discardWriter is a ResponseWriter that keeps nothing of the response,
// so an allocation count sees only the handler's own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestBatchBinBodyAllocs pins what a warm request allocates on each query
// endpoint. Each bound is the count the endpoint had for its input when
// the bounds were set, so none allocates more often than it did; a JSON
// batch decodes into the request scratch, not a fresh slice. A
// binary batch also allocates no bytes of its own body: a 1024-pair
// request through the handler allocates less than its 8 KiB body, which
// reading the body into a fresh buffer takes at the least, and growing
// one from 512 bytes about twice. Under the race detector the pool drops
// values at random, so there is nothing to count.
func TestBatchBinBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops values at random under the race detector")
	}
	s, _, fl := newTestServer(t, Config{Workers: 1})
	rng := rand.New(rand.NewSource(5))
	bin := make([]byte, 8*1024)
	for i := 0; i < len(bin); i += 4 {
		binary.LittleEndian.PutUint32(bin[i:], uint32(rng.Intn(fl.N())))
	}
	for _, tc := range []struct {
		method, target string
		body           []byte
		allocs         uint64 // at most, per request
		lessThanBody   bool
	}{
		{http.MethodGet, "/query?u=0&v=17", nil, 9, false},
		{http.MethodGet, "/query/path?u=0&v=17", nil, 11, false},
		{http.MethodPost, "/query/batch", []byte(`{"pairs":[[0,5],[3,9],[7,7]]}`), 9, false},
		{http.MethodPost, "/query/batchbin", bin, 9, true},
	} {
		w := &discardWriter{h: http.Header{}}
		req := httptest.NewRequest(tc.method, tc.target, nil)
		rd := bytes.NewReader(tc.body)
		serveOne := func() {
			rd.Reset(tc.body)
			req.Body, req.ContentLength = io.NopCloser(rd), int64(len(tc.body))
			s.Handler().ServeHTTP(w, req)
		}
		serveOne() // fills the pool
		errs := s.errs.Value()
		const reqs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reqs {
			serveOne()
		}
		runtime.ReadMemStats(&after)
		if s.errs.Value() != errs {
			t.Fatalf("%s %s: rejected", tc.method, tc.target)
		}
		allocs := (after.Mallocs - before.Mallocs) / reqs
		size := (after.TotalAlloc - before.TotalAlloc) / reqs
		t.Logf("%s %s: %d allocations, %d B a request", tc.method, tc.target, allocs, size)
		if allocs > tc.allocs {
			t.Errorf("%s %s: %d allocations a request, want at most %d", tc.method, tc.target, allocs, tc.allocs)
		}
		if tc.lessThanBody && size >= uint64(len(tc.body)) {
			t.Errorf("a %d-byte batchbin request allocates %d B, not less than its body", len(tc.body), size)
		}
	}
	if got := s.batches.Value(); got != 2*101 {
		t.Fatalf("%d batches answered, want %d", got, 2*101)
	}
}

// TestSlowLoris pins the header timeout: a connection that sends half a
// request line and stalls is closed within the timeout, while queries on
// other connections keep answering.
func TestSlowLoris(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond
	s, err := New(Config{Flat: testFlat(t)})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	slow, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := slow.Write([]byte("GET /query?u=0")); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < 3; i++ {
		resp, err := client.Get(fmt.Sprintf("http://%s/query?u=0&v=%d", addr, 5+i))
		if err != nil {
			t.Fatalf("query beside the stalled connection: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query beside the stalled connection: status %d", resp.StatusCode)
		}
	}
	if err := slow.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(slow); err != nil {
		t.Fatalf("stalled connection not closed by the server: %v", err)
	}
	if took := time.Since(start); took > 10*readHeaderTimeout {
		t.Fatalf("stalled connection closed after %v, header timeout %v", took, readHeaderTimeout)
	}
}

// TestSlowBody pins the request timeout: a client that sends a batch
// request's headers and then trickles its body, 8 bytes every 20 ms of a
// declared 800, is disconnected within the timeout instead of holding
// its connection and handler for the two seconds the body would take.
func TestSlowBody(t *testing.T) {
	defer func(d time.Duration) { readTimeout = d }(readTimeout)
	readTimeout = 200 * time.Millisecond
	s, err := New(Config{Flat: testFlat(t)})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	slow, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := fmt.Fprintf(slow, "POST /query/batchbin HTTP/1.1\r\nHost: x\r\nContent-Length: 800\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		for i := 0; i < 100; i++ {
			select {
			case <-done:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := slow.Write(make([]byte, 8)); err != nil {
				return
			}
		}
	}()
	if err := slow.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(slow); err != nil {
		t.Fatalf("trickling connection not closed by the server: %v", err)
	}
	if took := time.Since(start); took > 5*readTimeout {
		t.Fatalf("trickling connection closed after %v, request timeout %v", took, readTimeout)
	}
}

// TestErrorClassesAndEndpointLatency pins the serving instruments'
// names: one request latency histogram per query endpoint, and the
// rejected requests counted in serve.errors and in their status class. A
// 400 and a 413 land in serve.errors_4xx; /metrics and /admin/status
// both show them.
func TestErrorClassesAndEndpointLatency(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxBatch: 2})
	get := func(path string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	get("/query?u=0&v=9")
	get("/query/path?u=0&v=9")
	if code := post("/query/batch", `{"pairs":[[0,1]]}`); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if code := post("/query/batchbin", "1234567"); code != http.StatusBadRequest {
		t.Fatalf("7-byte batchbin body: status %d, want 400", code)
	}
	if code := post("/query/batchbin", strings.Repeat("\x00", 24)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("3-pair batchbin body over a 2-pair cap: status %d, want 413", code)
	}
	if e, e4, e5 := s.errs.Value(), s.errs4xx.Value(), s.errs5xx.Value(); e != 2 || e4 != 2 || e5 != 0 {
		t.Fatalf("errors %d, 4xx %d, 5xx %d; want 2, 2, 0", e, e4, e5)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pathsep_serve_query_request_ns_count 1\n",
		"pathsep_serve_path_request_ns_count 1\n",
		"pathsep_serve_batch_request_ns_count 1\n",
		"pathsep_serve_batchbin_request_ns_count 2\n",
		"pathsep_serve_errors 2\n",
		"pathsep_serve_errors_4xx 2\n",
		"pathsep_serve_errors_5xx 0\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(string(body), "pathsep_serve_request_ns") {
		t.Error("scrape still carries the all-endpoint pathsep_serve_request_ns")
	}
	st := s.status()
	if st.Serving.Errors != 2 || st.Serving.Errors4xx != 2 || st.Serving.Errors5xx != 0 {
		t.Errorf("status errors %d, 4xx %d, 5xx %d; want 2, 2, 0", st.Serving.Errors, st.Serving.Errors4xx, st.Serving.Errors5xx)
	}
	for _, name := range []string{"serve.query_request_ns", "serve.path_request_ns", "serve.batch_request_ns", "serve.batchbin_request_ns"} {
		if _, ok := st.Metrics.Histograms[name]; !ok {
			t.Errorf("status metrics lack %s", name)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query?u=0&v=9")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE pathsep_serve_queries counter\n",
		"pathsep_serve_queries 1\n",
		"# TYPE pathsep_oracle_query_ns histogram\n",
		`pathsep_oracle_query_ns_bucket{le="+Inf"} 1` + "\n",
		"# TYPE pathsep_oracle_query_portals histogram\n",
		`pathsep_oracle_query_portals_bucket{le="+Inf"} 1` + "\n",
		"pathsep_oracle_query_portals_count 1\n",
		"# TYPE pathsep_go_goroutines gauge\n",
		"pathsep_oracle_flat_bytes ",
		"# HELP pathsep_oracle_resident_bytes Memory the attached flat oracle image holds for serving in bytes.\n",
		"# TYPE pathsep_oracle_resident_bytes gauge\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestDrainInFlightCompletes pins graceful drain: a request already being
// served when Shutdown starts runs to completion and gets its response,
// while the listener stops accepting new work. The in-flight request is
// held open deterministically by a half-sent body (the handler blocks in
// ReadAll until the client finishes), not by sleeps.
func TestDrainInFlightCompletes(t *testing.T) {
	fl := testFlat(t)
	s, err := New(Config{Flat: fl})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	// One pair, sent in two halves through a pipe.
	var pairBuf [8]byte
	binary.LittleEndian.PutUint32(pairBuf[0:], 0)
	binary.LittleEndian.PutUint32(pairBuf[4:], 17)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/query/batchbin", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 8

	type result struct {
		resp *http.Response
		err  error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		reqDone <- result{resp, err}
	}()
	if _, err := pw.Write(pairBuf[:4]); err != nil {
		t.Fatal(err)
	}
	// The handler is now blocked reading the body; wait until the server
	// has actually accepted it before draining.
	deadline := time.Now().Add(5 * time.Second)
	for s.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()

	// New connections are refused once Shutdown has closed the listener.
	refusedDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err != nil {
			break
		}
		if time.Now().After(refusedDeadline) {
			t.Fatal("listener still accepting long after Shutdown began")
		}
		time.Sleep(time.Millisecond)
	}

	// Complete the in-flight body: the drained request must still answer.
	if _, err := pw.Write(pairBuf[4:]); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	res := <-reqDone
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	defer res.resp.Body.Close()
	out, err := io.ReadAll(res.resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.resp.StatusCode != http.StatusOK || len(out) != 8 {
		t.Fatalf("in-flight response: status=%d len=%d", res.resp.StatusCode, len(out))
	}
	got := math.Float64frombits(binary.LittleEndian.Uint64(out))
	if want := fl.Query(0, 17); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("drained answer %v, want %v", got, want)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Shutdown returned nil, so it has joined Start's serve goroutine.
	select {
	case <-s.serveDone:
	default:
		t.Fatal("Shutdown returned before Start's serve goroutine exited")
	}
}

// TestQueryValidationContract pins the status-code contract of the GET
// query endpoints: 200 only for well-formed in-range requests, 400 for
// anything non-integer, negative, or out of range — never a 500, never a
// silent null.
func TestQueryValidationContract(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}) // n = 144
	cases := []struct {
		name string
		url  string
		want int
	}{
		{"ok", "/query?u=0&v=17", http.StatusOK},
		{"self", "/query?u=7&v=7", http.StatusOK},
		{"missing-args", "/query", http.StatusBadRequest},
		{"non-integer-u", "/query?u=zero&v=1", http.StatusBadRequest},
		{"float-v", "/query?u=1&v=1.5", http.StatusBadRequest},
		{"negative-u", "/query?u=-1&v=3", http.StatusBadRequest},
		{"negative-v", "/query?u=3&v=-2", http.StatusBadRequest},
		{"u-at-n", "/query?u=144&v=0", http.StatusBadRequest},
		{"v-past-n", "/query?u=0&v=99999", http.StatusBadRequest},
		{"path-ok", "/query/path?u=0&v=17", http.StatusOK},
		{"path-self", "/query/path?u=7&v=7", http.StatusOK},
		{"path-missing-args", "/query/path", http.StatusBadRequest},
		{"path-non-integer", "/query/path?u=x&v=1", http.StatusBadRequest},
		{"path-negative", "/query/path?u=-5&v=1", http.StatusBadRequest},
		{"path-past-n", "/query/path?u=0&v=144", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.url)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("GET %s: status=%d body=%s, want %d", tc.url, resp.StatusCode, body, tc.want)
			}
		})
	}
}

func TestQueryPathEndpoint(t *testing.T) {
	_, ts, fl := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query/path?u=0&v=17")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got struct {
		U    int      `json:"u"`
		V    int      `json:"v"`
		Dist *float64 `json:"dist"`
		Len  int      `json:"len"`
		Path []int32  `json:"path"`
		Ns   int64    `json:"ns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	wantDist, wantPath, err := fl.QueryPath(0, 17, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.U != 0 || got.V != 17 || got.Dist == nil || *got.Dist != wantDist {
		t.Fatalf("got %+v, want dist %v", got, wantDist)
	}
	if got.Len != len(got.Path) || len(got.Path) != len(wantPath) {
		t.Fatalf("len=%d path=%v, want %v", got.Len, got.Path, wantPath)
	}
	for i := range wantPath {
		if got.Path[i] != wantPath[i] {
			t.Fatalf("path[%d] = %d, want %d", i, got.Path[i], wantPath[i])
		}
	}
	if got.Path[0] != 0 || got.Path[len(got.Path)-1] != 17 {
		t.Fatalf("path endpoints %v", got.Path)
	}

	// Repeat queries exercise the pooled path buffers.
	for i := 0; i < 10; i++ {
		resp, err := http.Get(ts.URL + "/query/path?u=3&v=140")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pooled query %d: status %d", i, resp.StatusCode)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a Flat must fail")
	}
	if _, err := New(Config{Flat: testFlat(t), MaxBatch: -1}); err == nil {
		t.Fatal("New with negative MaxBatch must fail")
	}
}
