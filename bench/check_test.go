package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pathsep/internal/graph"
	"pathsep/internal/oracle"
	"pathsep/internal/serve"
)

// fixture is a small grid image served in-process.
type fixture struct {
	g   *graph.Graph
	ref *oracle.Flat
	h   http.Handler
}

func newFixture(t *testing.T, seed int64) fixture {
	t.Helper()
	g, img, err := buildImage(8, seed, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.DecodeFlat(img)
	if err != nil {
		t.Fatal(err)
	}
	served, err := oracle.DecodeFlat(bytes.Clone(img))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Flat: served})
	if err != nil {
		t.Fatal(err)
	}
	return fixture{g, ref, srv.Handler()}
}

func (f fixture) do(t *testing.T, method, target string, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// flipDist rewrites the JSON "dist" of body with its lowest mantissa bit
// flipped.
func flipDist(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	d, err := strconv.ParseFloat(string(m["dist"]), 64)
	if err != nil {
		t.Fatal(err)
	}
	m["dist"] = json.RawMessage(strconv.FormatFloat(math.Float64frombits(math.Float64bits(d)^1), 'g', -1, 64))
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckQuery(t *testing.T) {
	a, b := newFixture(t, 1), newFixture(t, 2)
	u, v := 3, 60
	body := a.do(t, http.MethodGet, fmt.Sprintf("/query?u=%d&v=%d", u, v), nil)
	if err := checkQuery(body, u, v, a.ref); err != nil {
		t.Fatal(err)
	}
	if err := checkQuery(flipDist(t, body), u, v, a.ref); err == nil {
		t.Fatal("a distance one bit off passed")
	}
	if err := checkQuery(body, u, v+1, a.ref); err == nil {
		t.Fatal("an answer naming another pair passed")
	}
	// The reload workload accepts an answer from either image, and only those.
	fromB := b.do(t, http.MethodGet, fmt.Sprintf("/query?u=%d&v=%d", u, v), nil)
	if err := checkQuery(fromB, u, v, a.ref, b.ref); err != nil {
		t.Fatal(err)
	}
	if a.ref.Query(u, v) != b.ref.Query(u, v) {
		if err := checkQuery(fromB, u, v, a.ref); err == nil {
			t.Fatal("image B's answer passed as image A's")
		}
	}
}

func TestCheckPath(t *testing.T) {
	f := newFixture(t, 1)
	u, v := 0, 63 // opposite corners: a walk of at least 15 hops
	body := f.do(t, http.MethodGet, fmt.Sprintf("/query/path?u=%d&v=%d", u, v), nil)
	if err := checkPath(body, u, v, f.ref, f.g); err != nil {
		t.Fatal(err)
	}
	if err := checkPath(flipDist(t, body), u, v, f.ref, f.g); err == nil {
		t.Fatal("a distance one bit off passed")
	}

	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(p []int32){
		"non-edge hop": func(p []int32) { p[1] = 36 }, // (4,4): no corner neighbour
		"wrong start":  func(p []int32) { p[0] = 1 },
		"reversed":     func(p []int32) { p[0], p[len(p)-1] = p[len(p)-1], p[0] },
	} {
		p := append([]int32(nil), r.Path...)
		mutate(p)
		if err := checkPath(withPath(t, body, p), u, v, f.ref, f.g); err == nil {
			t.Errorf("%s: walk %v passed", name, p)
		}
	}
	// A detour over real edges still fails: it re-weighs to another sum.
	p := append([]int32(nil), r.Path[:2]...)
	p = append(p, r.Path[0])
	p = append(p, r.Path[1:]...)
	if err := checkPath(withPath(t, body, p), u, v, f.ref, f.g); err == nil || !strings.Contains(err.Error(), "weighs") {
		t.Fatalf("detour %v: got %v, want a weight mismatch", p, err)
	}
}

// withPath rewrites the JSON "path" of body.
func withPath(t *testing.T, body []byte, p []int32) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m["path"] = p
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckBatch(t *testing.T) {
	f := newFixture(t, 1)
	pairs := pairStream(1, 64, 256)
	body := f.do(t, http.MethodPost, "/query/batchbin", encodePairs(pairs))
	if err := checkBatch(body, pairs, f.ref); err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(body)
	bad[8*17] ^= 1 // lowest bit of pair 17's float64
	if err := checkBatch(bad, pairs, f.ref); err == nil || !strings.Contains(err.Error(), "pair 17") {
		t.Fatalf("flipped bit in pair 17: got %v", err)
	}
	if err := checkBatch(body[:len(body)-8], pairs, f.ref); err == nil {
		t.Fatal("a short batch passed")
	}
}

func TestCheckGeneration(t *testing.T) {
	if err := checkGeneration([]byte(`{"generation":3,"previous":2}`), 3); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"generation":4,"previous":3}`, `{"generation":3,"previous":1}`, `not json`} {
		if err := checkGeneration([]byte(body), 3); err == nil {
			t.Errorf("%s passed as generation 3", body)
		}
	}
}
