package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
)

// altFlat builds a second grid image with different edge weights (a
// different seed), so it answers differently from testFlat on the same
// vertex IDs — the swap tests need two distinguishable generations.
func altFlat(tb testing.TB) *oracle.Flat {
	tb.Helper()
	rng := rand.New(rand.NewSource(29))
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

// postReload POSTs an image to /admin/reload and decodes the result.
func postReload(tb testing.TB, url string, image []byte) (ReloadResult, int) {
	tb.Helper()
	resp, err := http.Post(url+"/admin/reload", "application/octet-stream", bytes.NewReader(image))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var res ReloadResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			tb.Fatal(err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return res, resp.StatusCode
}

// TestReloadEndpoint pins a successful POST /admin/reload: the result
// describes the new generation and its phases — derive_ns inside
// load_ns, and load, flip and drain within total_ns — the new image
// serves, and /admin/status reports the swap and the image's derive_ns.
func TestReloadEndpoint(t *testing.T) {
	s, ts, flA := newTestServer(t, Config{Source: "test:gen1"})
	flB := altFlat(t)

	res, code := postReload(t, ts.URL, flB.Encode())
	if code != http.StatusOK {
		t.Fatalf("reload status %d, want 200", code)
	}
	if res.Generation != 2 || res.Previous != 1 {
		t.Fatalf("generation %d (prev %d), want 2 (prev 1)", res.Generation, res.Previous)
	}
	if res.N != flB.N() || res.Bytes != len(flB.Encode()) {
		t.Fatalf("reload result %+v does not describe the new image", res)
	}
	if !res.Drained {
		t.Fatalf("idle server did not drain the old image: %+v", res)
	}
	// The phases: the walk derivation is timed inside the load, and load,
	// flip and drain follow one another within the total.
	if res.DeriveNs <= 0 || res.DeriveNs > res.LoadNs {
		t.Fatalf("derive_ns %d, want in (0, load_ns %d]", res.DeriveNs, res.LoadNs)
	}
	if res.FlipNs < 0 || res.DrainNs < 0 || res.LoadNs+res.FlipNs+res.DrainNs > res.TotalNs {
		t.Fatalf("load_ns %d + flip_ns %d + drain_ns %d exceed total_ns %d", res.LoadNs, res.FlipNs, res.DrainNs, res.TotalNs)
	}

	// The new image is serving: answers match flB (flA only incidentally).
	resp, err := http.Get(ts.URL + "/query?u=0&v=17")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Dist *float64 `json:"dist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Dist == nil || *got.Dist != flB.Query(0, 17) {
		t.Fatalf("post-reload answer %v, want flB's %v (flA's was %v)",
			got.Dist, flB.Query(0, 17), flA.Query(0, 17))
	}

	// /admin/status reflects the swap.
	st := adminStatus(t, ts.URL)
	if st.Image.Generation != 2 || st.Serving.Reloads != 1 || st.Serving.ReloadErrors != 0 {
		t.Fatalf("status after reload: image=%+v serving=%+v", st.Image, st.Serving)
	}
	if st.Image.Bytes != len(flB.Encode()) || st.Image.N != flB.N() {
		t.Fatalf("status image metadata still describes the old image: %+v", st.Image)
	}
	if st.Image.DeriveNs != res.DeriveNs {
		t.Fatalf("status derive_ns %d, reload reported %d", st.Image.DeriveNs, res.DeriveNs)
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight %d after reload", s.Inflight())
	}
}

// adminStatus fetches and decodes /admin/status.
func adminStatus(tb testing.TB, url string) Status {
	tb.Helper()
	resp, err := http.Get(url + "/admin/status")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		tb.Fatal(err)
	}
	return st
}

// TestReloadRejectsCorrupt pins the failure contract: a corrupt or
// truncated image must be rejected with 422, the generation must not
// advance, and the old image must keep serving correct answers.
func TestReloadRejectsCorrupt(t *testing.T) {
	_, ts, flA := newTestServer(t, Config{})
	valid := flA.Encode()

	bad := [][]byte{
		[]byte("not a flat oracle image"),
		valid[:len(valid)/2],           // truncated
		append([]byte{0xFF}, valid...), // corrupted header
	}
	for i, b := range bad {
		// Copy: ReloadImage takes ownership of the buffer it accepts, and
		// these slices alias `valid`.
		body := append([]byte(nil), b...)
		if _, code := postReload(t, ts.URL, body); code != http.StatusUnprocessableEntity {
			t.Fatalf("corrupt image %d: status %d, want 422", i, code)
		}
	}

	// Empty body is a 400 (malformed request, not a failed decode).
	resp, err := http.Post(ts.URL+"/admin/reload", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", resp.StatusCode)
	}

	// GET is a 405.
	resp2, err := http.Get(ts.URL + "/admin/reload")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: status %d, want 405", resp2.StatusCode)
	}

	st := adminStatus(t, ts.URL)
	if st.Image.Generation != 1 {
		t.Fatalf("generation advanced to %d on rejected reloads", st.Image.Generation)
	}
	if st.Serving.ReloadErrors != int64(len(bad)) || st.Serving.Reloads != 0 {
		t.Fatalf("reload accounting after rejections: %+v", st.Serving)
	}

	// The original image still answers.
	respQ, err := http.Get(ts.URL + "/query?u=0&v=17")
	if err != nil {
		t.Fatal(err)
	}
	defer respQ.Body.Close()
	var got struct {
		Dist *float64 `json:"dist"`
	}
	if err := json.NewDecoder(respQ.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Dist == nil || *got.Dist != flA.Query(0, 17) {
		t.Fatalf("old image not serving after rejected reloads: got %v, want %v",
			got.Dist, flA.Query(0, 17))
	}
}

func TestReloadImageCap(t *testing.T) {
	defer func(n int64) { maxImage = n }(maxImage)
	maxImage = 64
	_, ts, fl := newTestServer(t, Config{})
	if _, code := postReload(t, ts.URL, fl.Encode()); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap image: status %d, want 413", code)
	}
}

// TestSwapHammer is the -race generation-consistency gate: four clients
// hammer /query/batchbin while the main goroutine swaps between two
// differently-built images ~40 times. Every batch response must agree
// bitwise with exactly one of the two images across ALL its pairs — a
// response mixing generations means a batch observed the swap mid-flight.
func TestSwapHammer(t *testing.T) {
	flA := testFlat(t)
	flB := altFlat(t)
	encA, encB := flA.Encode(), flB.Encode()

	// Pairs whose answers differ between the images: only these can
	// betray a torn batch. The differing set is large (different edge
	// weights), but verify rather than assume.
	type pair struct{ u, v int32 }
	var ps []pair
	var wantA, wantB []float64
	n := flA.N()
	for u := 0; u < n && len(ps) < 64; u += 3 {
		for v := 1; v < n && len(ps) < 64; v += 7 {
			dA, dB := flA.Query(u, v), flB.Query(u, v)
			if math.Float64bits(dA) != math.Float64bits(dB) {
				ps = append(ps, pair{int32(u), int32(v)})
				wantA = append(wantA, dA)
				wantB = append(wantB, dB)
			}
		}
	}
	if len(ps) < 8 {
		t.Fatalf("only %d distinguishing pairs between the two images; need a better second image", len(ps))
	}
	body := make([]byte, 8*len(ps))
	for i, p := range ps {
		binary.LittleEndian.PutUint32(body[8*i:], uint32(p.u))
		binary.LittleEndian.PutUint32(body[8*i+4:], uint32(p.v))
	}

	_, ts, _ := newTestServer(t, Config{Flat: flA})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(ts.URL+"/query/batchbin", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					t.Errorf("batchbin: %v", err)
					return
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(out) != 8*len(ps) {
					t.Errorf("batchbin: status=%d len=%d err=%v", resp.StatusCode, len(out), err)
					return
				}
				matchA, matchB := true, true
				for i := range ps {
					got := binary.LittleEndian.Uint64(out[8*i:])
					if got != math.Float64bits(wantA[i]) {
						matchA = false
					}
					if got != math.Float64bits(wantB[i]) {
						matchB = false
					}
				}
				if !matchA && !matchB {
					t.Errorf("torn batch: response matches neither image generation entirely")
					return
				}
			}
		}()
	}

	// Alternate the serving image under the load.
	const swaps = 40
	for i := 0; i < swaps; i++ {
		img := encA
		if i%2 == 0 {
			img = encB
		}
		if res, code := postReload(t, ts.URL, img); code != http.StatusOK {
			t.Fatalf("swap %d: status %d (%+v)", i, code, res)
		}
	}
	close(stop)
	wg.Wait()

	st := adminStatus(t, ts.URL)
	if st.Image.Generation != 1+swaps {
		t.Fatalf("generation %d after %d swaps, want %d", st.Image.Generation, swaps, 1+swaps)
	}
	if st.Serving.ReloadErrors != 0 {
		t.Fatalf("%d reload errors under the hammer", st.Serving.ReloadErrors)
	}
}

// TestReloadHeapBound pins when the server calls Config.HeapBound: with
// 0 before each decode, and after it with the resident bytes of the image
// left serving — the new one after a swap, the old one after a corrupt
// image or an unreadable file.
func TestReloadHeapBound(t *testing.T) {
	var calls []int
	s, ts, fl := newTestServer(t, Config{HeapBound: func(resident int) { calls = append(calls, resident) }})
	alt := altFlat(t)
	if _, code := postReload(t, ts.URL, alt.Encode()); code != http.StatusOK {
		t.Fatalf("reload status %d", code)
	}
	bad := alt.Encode()
	bad[0] ^= 0xFF
	if _, code := postReload(t, ts.URL, bad); code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload status %d", code)
	}
	if _, err := s.ReloadFromFile(filepath.Join(t.TempDir(), "missing.flat")); err == nil {
		t.Fatal("reload from a missing file succeeded")
	}
	path := filepath.Join(t.TempDir(), "image.flat")
	if err := os.WriteFile(path, fl.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := s.ReloadFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != fl.EncodedSize() {
		t.Fatalf("file reload reports %d bytes, image has %d", res.Bytes, fl.EncodedSize())
	}
	want := []int{0, alt.ResidentBytes(), 0, alt.ResidentBytes(), 0, alt.ResidentBytes(), 0, fl.ResidentBytes()}
	if !slices.Equal(calls, want) {
		t.Fatalf("HeapBound calls %v, want %v", calls, want)
	}
}

// TestReloadRaceHTTPAndSIGHUP races the two reload front doors — POST
// /admin/reload and the SIGHUP path (ReloadFromFile, exactly what
// cmd/pathsepd's signal handler calls) — against each other from the
// same starting generation. reloadMu must serialize them: every reload
// gets a unique, gap-free generation, Previous always names the
// generation it replaced, and the reloads counter counts each swap
// exactly once. Run under -race (make check does) this also proves the
// decode/publish/drain sequence is data-race-free across both doors.
func TestReloadRaceHTTPAndSIGHUP(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Source: "test:gen1"})
	img := altFlat(t).Encode()
	path := filepath.Join(t.TempDir(), "image.bin")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	const rounds = 6
	var wg sync.WaitGroup
	results := make(chan ReloadResult, 2*rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, code := postReload(t, ts.URL, img)
			if code != http.StatusOK {
				t.Errorf("HTTP reload status %d, want 200", code)
				return
			}
			results <- res
		}()
		go func() {
			defer wg.Done()
			res, err := s.ReloadFromFile(path)
			if err != nil {
				t.Errorf("SIGHUP reload: %v", err)
				return
			}
			results <- res
		}()
	}
	wg.Wait()
	close(results)

	gens := map[uint64]bool{}
	for res := range results {
		if gens[res.Generation] {
			t.Errorf("generation %d issued twice", res.Generation)
		}
		gens[res.Generation] = true
		if res.Previous != res.Generation-1 {
			t.Errorf("generation %d reports previous %d, want %d",
				res.Generation, res.Previous, res.Generation-1)
		}
	}
	// Gap-free: generations 2..2*rounds+1, each exactly once.
	for g := uint64(2); g <= 2*rounds+1; g++ {
		if !gens[g] {
			t.Errorf("generation %d never issued", g)
		}
	}
	if got := s.reloads.Value(); got != 2*rounds {
		t.Errorf("reloads counter = %d, want %d (no double-counting)", got, 2*rounds)
	}
	if errs := s.reloadErrs.Value(); errs != 0 {
		t.Errorf("reload_errors = %d, want 0", errs)
	}
	if gen := s.status().Image.Generation; gen != 2*rounds+1 {
		t.Errorf("final generation %d, want %d", gen, 2*rounds+1)
	}
}

// TestEveryPathReleasesLease drives each query endpoint and /admin/status
// through every outcome it has, one request at a time, and after each
// requires the serving image to have no readers left and a reload right
// after it to drain. A request that kept its lease on any path would
// hold the count up and time the drain out.
func TestEveryPathReleasesLease(t *testing.T) {
	s, _, fl := newTestServer(t, Config{MaxBatch: 2})
	img := fl.Encode()
	pairs := func(n int) io.Reader { return bytes.NewReader(make([]byte, 8*n)) }
	far := make([]byte, 8)
	binary.LittleEndian.PutUint32(far[4:], 1<<30)
	for _, tc := range []struct {
		name, method, target string
		body                 io.Reader
		want                 int
	}{
		{"query", http.MethodGet, "/query?u=0&v=17", nil, http.StatusOK},
		{"query-method", http.MethodPost, "/query?u=0&v=17", nil, http.StatusMethodNotAllowed},
		{"query-params", http.MethodGet, "/query?u=zero&v=1", nil, http.StatusBadRequest},
		{"query-range", http.MethodGet, "/query?u=0&v=99999", nil, http.StatusBadRequest},
		{"path", http.MethodGet, "/query/path?u=0&v=17", nil, http.StatusOK},
		{"path-method", http.MethodPost, "/query/path?u=0&v=17", nil, http.StatusMethodNotAllowed},
		{"path-params", http.MethodGet, "/query/path?u=0", nil, http.StatusBadRequest},
		{"path-range", http.MethodGet, "/query/path?u=-1&v=3", nil, http.StatusBadRequest},
		{"batch", http.MethodPost, "/query/batch", strings.NewReader(`{"pairs":[[0,5],[3,9]]}`), http.StatusOK},
		{"batch-method", http.MethodGet, "/query/batch", nil, http.StatusMethodNotAllowed},
		{"batch-params", http.MethodPost, "/query/batch", strings.NewReader(`{"pairs":[[0,`), http.StatusBadRequest},
		{"batch-range", http.MethodPost, "/query/batch", strings.NewReader(`{"pairs":[[0,5],[0,99999]]}`), http.StatusBadRequest},
		{"batch-cap", http.MethodPost, "/query/batch", strings.NewReader(`{"pairs":[[0,1],[0,2],[0,3]]}`), http.StatusRequestEntityTooLarge},
		{"batch-drop", http.MethodPost, "/query/batch", &failingBody{}, http.StatusBadRequest},
		{"batchbin", http.MethodPost, "/query/batchbin", pairs(2), http.StatusOK},
		{"batchbin-far", http.MethodPost, "/query/batchbin", bytes.NewReader(far), http.StatusOK},
		{"batchbin-method", http.MethodGet, "/query/batchbin", nil, http.StatusMethodNotAllowed},
		{"batchbin-ragged", http.MethodPost, "/query/batchbin", strings.NewReader("1234567"), http.StatusBadRequest},
		{"batchbin-cap", http.MethodPost, "/query/batchbin", pairs(3), http.StatusRequestEntityTooLarge},
		{"batchbin-body-cap", http.MethodPost, "/query/batchbin", pairs(4), http.StatusRequestEntityTooLarge},
		{"batchbin-drop", http.MethodPost, "/query/batchbin", &failingBody{}, http.StatusBadRequest},
		{"status", http.MethodGet, "/admin/status", nil, http.StatusOK},
		{"status-method", http.MethodPost, "/admin/status", nil, http.StatusMethodNotAllowed},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, tc.body))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
		}
		if n := s.img.Load().readers.Load(); n != 0 {
			t.Fatalf("%s: %d readers left on the serving image", tc.name, n)
		}
		res, err := s.ReloadImage(img, "test")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Drained {
			t.Fatalf("%s: the reload after it did not drain: %+v", tc.name, res)
		}
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight %d after every request returned", s.Inflight())
	}
}
