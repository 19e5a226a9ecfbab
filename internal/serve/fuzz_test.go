package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzReloadImage throws arbitrary bytes at the reload path. The
// contract under fuzzing: ReloadImage never panics, never replaces the
// live image with an invalid one (a rejected reload leaves the
// generation untouched), and the server keeps answering queries
// correctly either way. Valid images advance the generation by one.
func FuzzReloadImage(f *testing.F) {
	fl := testFlat(f)
	valid := fl.Encode()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("FLAT"))

	s, err := New(Config{Flat: fl})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The server persists across iterations, so an accepted reload (a
		// mutated-but-decodable image) legitimately changes the serving
		// image; all invariants compare against the state at the top of
		// THIS iteration.
		before := s.img.Load()
		wantOnReject := before.flat.Query(0, 17)

		// The fuzzer reuses data after this iteration; ReloadImage keeps
		// nothing of its buffer, so data is handed over as is.
		res, err := s.ReloadImage(data, "fuzz")
		after := s.img.Load()
		if err != nil {
			// Rejected: the live image must be untouched, same pointer,
			// same generation, same answers.
			if after != before || after.gen != before.gen {
				t.Fatalf("rejected reload replaced the image: generation %d -> %d", before.gen, after.gen)
			}
			if d := after.flat.Query(0, 17); math.Float64bits(d) != math.Float64bits(wantOnReject) {
				t.Fatalf("rejected reload changed answers: got %v, want %v", d, wantOnReject)
			}
		} else {
			if after.gen != before.gen+1 || res.Generation != after.gen {
				t.Fatalf("accepted reload: generation %d -> %d, result %+v", before.gen, after.gen, res)
			}
		}
		// Whatever image is current must answer without panicking — a
		// fuzzer-built valid image may answer anything finite-or-Inf,
		// including on out-of-range vertices.
		_ = after.flat.Query(0, 17)
		_ = after.flat.Query(-1, 1<<30)
	})
}

// FuzzQueryHandlers throws arbitrary requests at the four query endpoints
// through the server's handler: a method, a path picked by which, a raw
// query string and a body. The contract under fuzzing: no panic; every
// status is 200, 400, 405 or 413; a 200 from /query or /query/batchbin
// carries Flat.Query's answers bit for bit; and no request, accepted or
// rejected, leaves the image leased.
func FuzzQueryHandlers(f *testing.F) {
	fl := testFlat(f)
	s, err := New(Config{Flat: fl, Workers: 1, MaxBatch: 64})
	if err != nil {
		f.Fatal(err)
	}
	bin := make([]byte, 16)
	binary.LittleEndian.PutUint32(bin[4:], 17)
	binary.LittleEndian.PutUint32(bin[8:], 143)
	f.Add("GET", uint8(0), "u=0&v=17", []byte(nil))
	f.Add("GET", uint8(1), "u=3&v=140", []byte(nil))
	f.Add("POST", uint8(2), "", []byte(`{"pairs":[[0,5],[3,9]]}`))
	f.Add("POST", uint8(3), "", bin)
	f.Add("GET", uint8(0), "u=-1&v=x", []byte("x"))
	f.Add("GET", uint8(1), "u=0&v=144", []byte(nil))
	f.Add("POST", uint8(2), "", []byte(`{"pairs":[[0,5],[-1,9]]}`))
	f.Add("PUT", uint8(3), "", bin[:13])

	paths := [...]string{"/query", "/query/path", "/query/batch", "/query/batchbin"}
	f.Fuzz(func(t *testing.T, method string, which uint8, query string, body []byte) {
		path := paths[int(which)%len(paths)]
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Method = method
		req.URL.RawQuery = query
		req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if n := s.img.Load().readers.Load(); n != 0 {
			t.Fatalf("%s %s?%s: %d readers left on the image", method, path, query, n)
		}
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %s?%s: status %d (%s)", method, path, query, rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		switch path {
		case "/query":
			var got struct {
				U, V int
				Dist *float64
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("/query?%s: %v in %s", query, err, rec.Body.Bytes())
			}
			d := math.Inf(1)
			if got.Dist != nil {
				d = *got.Dist
			}
			if want := fl.Query(got.U, got.V); math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("/query?%s: dist %v, Flat.Query(%d, %d) = %v", query, d, got.U, got.V, want)
			}
		case "/query/batchbin":
			out := rec.Body.Bytes()
			if len(out) != len(body) {
				t.Fatalf("/query/batchbin: %d bytes for a %d-byte body", len(out), len(body))
			}
			for i := 0; i < len(body); i += 8 {
				u := int32(binary.LittleEndian.Uint32(body[i:]))
				v := int32(binary.LittleEndian.Uint32(body[i+4:]))
				want := fl.Query(int(u), int(v))
				if got := binary.LittleEndian.Uint64(out[i:]); got != math.Float64bits(want) {
					t.Fatalf("/query/batchbin pair %d (%d,%d): %v, Flat.Query = %v", i/8, u, v, math.Float64frombits(got), want)
				}
			}
		}
	})
}
