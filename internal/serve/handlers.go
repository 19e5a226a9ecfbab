package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"time"

	"pathsep/internal/oracle"
)

// writeDist appends a JSON distance value: a number, or null for +Inf
// (unreachable or out-of-range vertices), which no JSON number can carry.
func writeDist(buf *bytes.Buffer, d float64) {
	if math.IsInf(d, 1) {
		buf.WriteString("null")
		return
	}
	buf.WriteString(strconv.FormatFloat(d, 'g', -1, 64))
}

// parseVertexPair reads integer u and v query parameters. It reports
// ok=false after writing the 400 response itself, so handlers just
// return. Range validation happens against the leased image, not here —
// the image (and so the valid ID range) can change across reloads.
func (s *Server) parseVertexPair(w http.ResponseWriter, r *http.Request) (u, v int, ok bool) {
	q := r.URL.Query()
	u, errU := strconv.Atoi(q.Get("u"))
	v, errV := strconv.Atoi(q.Get("v"))
	if errU != nil || errV != nil {
		s.fail(w, http.StatusBadRequest, "u and v must be integer vertex IDs")
		return 0, 0, false
	}
	return u, v, true
}

// rejectOutOfRange writes the 400 response for vertex IDs outside
// [0, n) and reports whether it did.
func (s *Server) rejectOutOfRange(w http.ResponseWriter, u, v, n int) bool {
	if u < 0 || v < 0 || u >= n || v >= n {
		s.fail(w, http.StatusBadRequest,
			"vertex IDs must be in [0, "+strconv.Itoa(n)+"): got u="+strconv.Itoa(u)+" v="+strconv.Itoa(v))
		return true
	}
	return false
}

// handleQuery answers GET /query?u=&v= with one distance:
//
//	{"u":3,"v":9,"dist":4.25,"ns":810}
//
// dist is null when v is unreachable from u. Non-integer or out-of-range
// IDs are client errors (400), not null distances: an ID outside the
// image is a malformed request, and answering it with a 200 hides caller
// bugs.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	u, v, ok := s.parseVertexPair(w, r)
	if !ok {
		return
	}
	im := s.acquire()
	if s.rejectOutOfRange(w, u, v, im.flat.N()) {
		s.release(im)
		return
	}
	start := time.Now()
	d := im.flat.Query(u, v)
	ns := time.Since(start).Nanoseconds()
	s.release(im)
	s.queries.Inc()

	var buf bytes.Buffer
	buf.WriteString(`{"u":`)
	buf.WriteString(strconv.Itoa(u))
	buf.WriteString(`,"v":`)
	buf.WriteString(strconv.Itoa(v))
	buf.WriteString(`,"dist":`)
	writeDist(&buf, d)
	buf.WriteString(`,"ns":`)
	buf.WriteString(strconv.FormatInt(ns, 10))
	buf.WriteString("}\n")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// batchRequest is the JSON batch body: {"pairs":[[u,v],...]}.
type batchRequest struct {
	Pairs [][2]int32 `json:"pairs"`
}

// handleBatchJSON answers POST /query/batch:
//
//	{"pairs":[[0,5],[3,9]]}  ->  {"n":2,"dists":[1.5,null]}
//
// dists align with pairs; null marks unreachable pairs. A pair with an
// out-of-range vertex ID rejects the whole batch with a 400 naming the
// offending index — the structured endpoint reports caller bugs instead
// of papering over them (the binary endpoint keeps the +Inf convention
// for bulk traffic).
func (s *Server) handleBatchJSON(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body := s.getBytes(0)
	body, ok := s.readBody(w, r, int64(s.maxBatch)*64+4096, body)
	if !ok {
		s.putBytes(body)
		return
	}
	var req batchRequest
	err := json.Unmarshal(body, &req)
	s.putBytes(body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(req.Pairs) > s.maxBatch {
		s.fail(w, http.StatusRequestEntityTooLarge,
			"batch of "+strconv.Itoa(len(req.Pairs))+" pairs exceeds the cap of "+strconv.Itoa(s.maxBatch))
		return
	}
	pairs := s.getPairs(len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = oracle.Pair{U: p[0], V: p[1]}
	}
	// One lease for the whole batch: validation and every distance in
	// this response come from a single image generation, even mid-reload.
	im := s.acquire()
	n := int32(im.flat.N())
	for i, p := range pairs {
		if p.U < 0 || p.V < 0 || p.U >= n || p.V >= n {
			s.release(im)
			s.putPairs(pairs)
			s.fail(w, http.StatusBadRequest,
				"pair "+strconv.Itoa(i)+" ["+strconv.Itoa(int(p.U))+","+strconv.Itoa(int(p.V))+
					"] out of range: vertex IDs must be in [0, "+strconv.Itoa(int(n))+")")
			return
		}
	}
	dists := s.getDists(len(pairs))
	dists = im.flat.QueryBatchWorkers(pairs, dists, s.workers)
	s.release(im)
	s.batches.Inc()
	s.pairs.Add(int64(len(pairs)))

	var buf bytes.Buffer
	buf.WriteString(`{"n":`)
	buf.WriteString(strconv.Itoa(len(dists)))
	buf.WriteString(`,"dists":[`)
	for i, d := range dists {
		if i > 0 {
			buf.WriteByte(',')
		}
		writeDist(&buf, d)
	}
	buf.WriteString("]}\n")
	s.putPairs(pairs)
	s.putDists(dists)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// handleBatchBin answers POST /query/batchbin, the wire format for bulk
// traffic: the body is little-endian (uint32 u, uint32 v) pairs, the
// response is one little-endian float64 per pair (+Inf for unreachable),
// in order. No framing, no escaping — length is the pair count.
func (s *Server) handleBatchBin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body := s.getBytes(0)
	body, ok := s.readBody(w, r, int64(s.maxBatch)*8+8, body)
	if !ok {
		s.putBytes(body)
		return
	}
	if len(body)%8 != 0 {
		s.putBytes(body)
		s.fail(w, http.StatusBadRequest, "body length must be a multiple of 8 (uint32 u, uint32 v per pair)")
		return
	}
	n := len(body) / 8
	if n > s.maxBatch {
		s.putBytes(body)
		s.fail(w, http.StatusRequestEntityTooLarge,
			"batch of "+strconv.Itoa(n)+" pairs exceeds the cap of "+strconv.Itoa(s.maxBatch))
		return
	}
	pairs := s.getPairs(n)
	decodePairs(pairs, body)
	s.putBytes(body)
	dists := s.getDists(n)
	// One lease for the whole batch (see handleBatchJSON).
	im := s.acquire()
	dists = im.flat.QueryBatchWorkers(pairs, dists, s.workers)
	s.release(im)
	out := s.getBytes(8 * n)
	encodeDists(out, dists)
	s.batches.Inc()
	s.pairs.Add(int64(n))

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	_, _ = w.Write(out)
	s.putPairs(pairs)
	s.putDists(dists)
	s.putBytes(out)
}

// handleQueryPath answers GET /query/path?u=&v= with the approximate
// distance and a witness walk realizing it:
//
//	{"u":3,"v":9,"dist":4.25,"len":5,"path":[3,7,2,8,9],"ns":2100}
//
// dist is null and path empty when v is unreachable from u. Non-integer
// or out-of-range IDs are 400s (as on /query).
func (s *Server) handleQueryPath(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	u, v, ok := s.parseVertexPair(w, r)
	if !ok {
		return
	}
	im := s.acquire()
	if s.rejectOutOfRange(w, u, v, im.flat.N()) {
		s.release(im)
		return
	}
	buf := s.getPath()
	start := time.Now()
	d, buf, err := im.flat.QueryPath(u, v, buf)
	ns := time.Since(start).Nanoseconds()
	s.release(im)
	if err != nil {
		s.putPath(buf)
		s.fail(w, http.StatusInternalServerError, "path walk: "+err.Error())
		return
	}
	s.queries.Inc()

	var out bytes.Buffer
	out.WriteString(`{"u":`)
	out.WriteString(strconv.Itoa(u))
	out.WriteString(`,"v":`)
	out.WriteString(strconv.Itoa(v))
	out.WriteString(`,"dist":`)
	writeDist(&out, d)
	out.WriteString(`,"len":`)
	out.WriteString(strconv.Itoa(len(buf)))
	out.WriteString(`,"path":[`)
	for i, w := range buf {
		if i > 0 {
			out.WriteByte(',')
		}
		out.WriteString(strconv.FormatInt(int64(w), 10))
	}
	out.WriteString(`],"ns":`)
	out.WriteString(strconv.FormatInt(ns, 10))
	out.WriteString("}\n")
	s.putPath(buf)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(out.Bytes())
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
