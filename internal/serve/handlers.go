package serve

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"pathsep/internal/oracle"
)

// endpoint is one query endpoint as three steps, which track runs in
// order on one scratch value: parse reads the request into it, answer
// computes the response on the leased image, and write sends it. answer
// sees the image and the scratch only, so it can take no second lease
// and touch no pool; write runs after the lease is released. A step that
// rejects the request returns the failure to answer it with.
type endpoint struct {
	method  string // the one method accepted; any other is a 405
	latency string // the request latency histogram
	batch   bool   // counted in serve.batches and serve.batch_pairs, not serve.queries
	parse   func(w http.ResponseWriter, r *http.Request, sc *scratch) *failure
	answer  func(fl *oracle.Flat, sc *scratch) *failure
	write   func(w http.ResponseWriter, sc *scratch)
}

// scratch is what one query request holds: its parsed input, the buffers
// its answer is computed in and the bytes of its response. The slices
// grow in place and go back to the pool with the struct, so a buffer
// always goes back with its own backing array.
type scratch struct {
	u, v  int
	dist  float64
	ns    int64 // the Flat call's time
	pairs []oracle.Pair
	dists []float64
	path  []int32
	body  []byte
	out   []byte
	batch batchRequest // a JSON batch as decoded; its pairs are zero between requests
}

// failure is a rejected request: its status and plain-text message.
type failure struct {
	code int
	msg  string
}

// parsePair reads integer u and v query parameters. Their range is
// checked against the leased image, not here: the image (and so the
// valid ID range) can change across reloads.
func parsePair(_ http.ResponseWriter, r *http.Request, sc *scratch) *failure {
	q := r.URL.Query()
	u, errU := strconv.Atoi(q.Get("u"))
	v, errV := strconv.Atoi(q.Get("v"))
	if errU != nil || errV != nil {
		return &failure{http.StatusBadRequest, "u and v must be integer vertex IDs"}
	}
	sc.u, sc.v = u, v
	return nil
}

// outOfRange rejects vertex IDs outside [0, n).
func outOfRange(u, v, n int) *failure {
	if u < 0 || v < 0 || u >= n || v >= n {
		return &failure{http.StatusBadRequest,
			"vertex IDs must be in [0, " + strconv.Itoa(n) + "): got u=" + strconv.Itoa(u) + " v=" + strconv.Itoa(v)}
	}
	return nil
}

// answerQuery answers GET /query?u=&v= with one distance:
//
//	{"u":3,"v":9,"dist":4.25,"ns":810}
//
// dist is null when v is unreachable from u. Non-integer or out-of-range
// IDs are client errors (400), not null distances: an ID outside the
// image is a malformed request, and answering it with a 200 hides caller
// bugs.
func answerQuery(fl *oracle.Flat, sc *scratch) *failure {
	if f := outOfRange(sc.u, sc.v, fl.N()); f != nil {
		return f
	}
	start := time.Now()
	sc.dist = fl.Query(sc.u, sc.v)
	sc.ns = time.Since(start).Nanoseconds()
	return nil
}

func writeQuery(w http.ResponseWriter, sc *scratch) {
	b := appendPair(sc.out[:0], sc)
	b = append(b, `,"ns":`...)
	b = strconv.AppendInt(b, sc.ns, 10)
	sc.out = append(b, "}\n"...)
	writeJSON(w, sc.out)
}

// answerPath answers GET /query/path?u=&v= with the approximate distance
// and a witness walk realizing it:
//
//	{"u":3,"v":9,"dist":4.25,"len":5,"path":[3,7,2,8,9],"ns":2100}
//
// dist is null and path empty when v is unreachable from u. Non-integer
// or out-of-range IDs are 400s (as on /query).
func answerPath(fl *oracle.Flat, sc *scratch) *failure {
	if f := outOfRange(sc.u, sc.v, fl.N()); f != nil {
		return f
	}
	start := time.Now()
	d, path, err := fl.QueryPath(sc.u, sc.v, sc.path)
	sc.ns = time.Since(start).Nanoseconds()
	sc.dist, sc.path = d, path
	if err != nil {
		return &failure{http.StatusInternalServerError, "path walk: " + err.Error()}
	}
	return nil
}

func writePath(w http.ResponseWriter, sc *scratch) {
	b := appendPair(sc.out[:0], sc)
	b = append(b, `,"len":`...)
	b = strconv.AppendInt(b, int64(len(sc.path)), 10)
	b = append(b, `,"path":[`...)
	for i, x := range sc.path {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	b = append(b, `],"ns":`...)
	b = strconv.AppendInt(b, sc.ns, 10)
	sc.out = append(b, "}\n"...)
	writeJSON(w, sc.out)
}

// appendPair appends the fields /query and /query/path share:
// {"u":…,"v":…,"dist":…
func appendPair(b []byte, sc *scratch) []byte {
	b = append(b, `{"u":`...)
	b = strconv.AppendInt(b, int64(sc.u), 10)
	b = append(b, `,"v":`...)
	b = strconv.AppendInt(b, int64(sc.v), 10)
	b = append(b, `,"dist":`...)
	return appendDist(b, sc.dist)
}

// appendDist appends a JSON distance value: a number, or null for +Inf
// (unreachable or out-of-range vertices), which no JSON number can carry.
func appendDist(b []byte, d float64) []byte {
	if math.IsInf(d, 1) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, d, 'g', -1, 64)
}

func writeJSON(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(b)
}

// batchRequest is the JSON batch body: {"pairs":[[u,v],...]}.
type batchRequest struct {
	Pairs [][2]int32 `json:"pairs"`
}

// parseBatchJSON reads POST /query/batch:
//
//	{"pairs":[[0,5],[3,9]]}  ->  {"n":2,"dists":[1.5,null]}
//
// dists align with pairs; null marks unreachable pairs. A pair with an
// out-of-range vertex ID rejects the whole batch with a 400 naming the
// offending index (see answerBatch).
func (s *Server) parseBatchJSON(w http.ResponseWriter, r *http.Request, sc *scratch) *failure {
	var f *failure
	if sc.body, f = readBody(w, r, int64(s.maxBatch)*64+4096, sc.body); f != nil {
		return f
	}
	// Unmarshal appends the pairs into the scratch's capacity, but a null
	// element leaves the pair it lands on as it finds it, so the whole
	// capacity is zeroed again before the scratch is reused: a repeated
	// "pairs" key decodes twice, and the first decode's pairs past the
	// second's length stay behind. A body may hold more pairs than the
	// cap, which is checked only once they are decoded; the scratch keeps
	// no more than the cap's worth.
	req := &sc.batch
	req.Pairs = req.Pairs[:0]
	if err := json.Unmarshal(sc.body, req); err != nil {
		f = &failure{http.StatusBadRequest, "bad JSON: " + err.Error()}
	} else if f = s.overCap(len(req.Pairs)); f == nil {
		sc.pairs = slices.Grow(sc.pairs[:0], len(req.Pairs))
		for _, p := range req.Pairs {
			sc.pairs = append(sc.pairs, oracle.Pair{U: p[0], V: p[1]})
		}
	}
	clear(req.Pairs[:cap(req.Pairs)])
	if cap(req.Pairs) > s.maxBatch {
		req.Pairs = nil
	}
	return f
}

func writeBatchJSON(w http.ResponseWriter, sc *scratch) {
	b := append(sc.out[:0], `{"n":`...)
	b = strconv.AppendInt(b, int64(len(sc.dists)), 10)
	b = append(b, `,"dists":[`...)
	for i, d := range sc.dists {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendDist(b, d)
	}
	sc.out = append(b, "]}\n"...)
	writeJSON(w, sc.out)
}

// parseBatchBin reads POST /query/batchbin, the wire format for bulk
// traffic: the body is little-endian (uint32 u, uint32 v) pairs, the
// response is one little-endian float64 per pair (+Inf for unreachable),
// in order. No framing, no escaping — length is the pair count.
func (s *Server) parseBatchBin(w http.ResponseWriter, r *http.Request, sc *scratch) *failure {
	var f *failure
	if sc.body, f = readBody(w, r, int64(s.maxBatch)*8+8, sc.body); f != nil {
		return f
	}
	if len(sc.body)%8 != 0 {
		return &failure{http.StatusBadRequest, "body length must be a multiple of 8 (uint32 u, uint32 v per pair)"}
	}
	n := len(sc.body) / 8
	if f := s.overCap(n); f != nil {
		return f
	}
	sc.pairs = slices.Grow(sc.pairs[:0], n)[:n]
	decodePairs(sc.pairs, sc.body)
	return nil
}

func writeBatchBin(w http.ResponseWriter, sc *scratch) {
	n := 8 * len(sc.dists)
	sc.out = slices.Grow(sc.out[:0], n)[:n]
	encodeDists(sc.out, sc.dists)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	_, _ = w.Write(sc.out)
}

// overCap rejects a batch of more than the server's MaxBatch pairs.
func (s *Server) overCap(n int) *failure {
	if n > s.maxBatch {
		return &failure{http.StatusRequestEntityTooLarge,
			"batch of " + strconv.Itoa(n) + " pairs exceeds the cap of " + strconv.Itoa(s.maxBatch)}
	}
	return nil
}

// answerBatch returns the batch endpoints' answer step: one lease for the
// whole batch, so every distance in a response comes from a single image
// generation, even mid-reload, on a QueryBatch pool of workers. With
// check set (the JSON endpoint) a pair with a vertex outside the image
// rejects the batch with a 400 naming its index: the structured endpoint
// reports caller bugs instead of papering over them. The binary endpoint
// keeps the +Inf convention for bulk traffic.
func answerBatch(workers int, check bool) func(*oracle.Flat, *scratch) *failure {
	return func(fl *oracle.Flat, sc *scratch) *failure {
		if check {
			n := int32(fl.N())
			for i, p := range sc.pairs {
				if p.U < 0 || p.V < 0 || p.U >= n || p.V >= n {
					return &failure{http.StatusBadRequest,
						"pair " + strconv.Itoa(i) + " [" + strconv.Itoa(int(p.U)) + "," + strconv.Itoa(int(p.V)) +
							"] out of range: vertex IDs must be in [0, " + strconv.Itoa(int(n)) + ")"}
				}
			}
		}
		sc.dists = fl.QueryBatchWorkers(sc.pairs, sc.dists, workers)
		return nil
	}
}

// decodePairs parses len(dst) little-endian (uint32, uint32) pairs from
// src into dst. The caller sizes both; the loop stays allocation-free so
// the binary batch path costs only its pooled buffers.
//
//pathsep:hotpath
func decodePairs(dst []oracle.Pair, src []byte) {
	for i := range dst {
		u := binary.LittleEndian.Uint32(src[8*i:])
		v := binary.LittleEndian.Uint32(src[8*i+4:])
		dst[i] = oracle.Pair{U: int32(u), V: int32(v)}
	}
}

// encodeDists writes src as little-endian float64 bits into dst, which
// the caller has sized to 8*len(src).
//
//pathsep:hotpath
func encodeDists(dst []byte, src []float64) {
	for i, d := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(d))
	}
}
