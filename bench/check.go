package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"pathsep/internal/core"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
)

// queryReply is the JSON body of GET /query and GET /query/path.
type queryReply struct {
	U    int      `json:"u"`
	V    int      `json:"v"`
	Dist *float64 `json:"dist"` // null means unreachable (+Inf)
	Path []int32  `json:"path"`
}

// parseReply decodes a query response and checks it names pair (u, v).
func parseReply(body []byte, u, v int) (queryReply, float64, error) {
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return r, 0, fmt.Errorf("(%d,%d): bad response %q: %w", u, v, body, err)
	}
	if r.U != u || r.V != v {
		return r, 0, fmt.Errorf("(%d,%d): response names pair (%d,%d)", u, v, r.U, r.V)
	}
	d := math.Inf(1)
	if r.Dist != nil {
		d = *r.Dist
	}
	return r, d, nil
}

// sameBits reports whether a and b are the same float64 bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkQuery verifies a GET /query body: its distance must equal one of
// the reference images' Query answers bit for bit (one image outside
// the reload workload, image A or B inside it).
func checkQuery(body []byte, u, v int, refs ...*oracle.Flat) error {
	_, d, err := parseReply(body, u, v)
	if err != nil {
		return err
	}
	for _, f := range refs {
		if sameBits(d, f.Query(u, v)) {
			return nil
		}
	}
	return fmt.Errorf("(%d,%d): served distance %v (bits %#x) matches no reference image (want %v)",
		u, v, d, math.Float64bits(d), refs[0].Query(u, v))
}

// checkPath verifies a GET /query/path body: the distance equals
// ref.Query bit for bit, and the walk runs from u to v over edges of g
// and re-weighs to the distance (up to summation order, the tolerance
// the library's own path gates use).
func checkPath(body []byte, u, v int, ref *oracle.Flat, g *graph.Graph) error {
	r, d, err := parseReply(body, u, v)
	if err != nil {
		return err
	}
	if want := ref.Query(u, v); !sameBits(d, want) {
		return fmt.Errorf("(%d,%d): path distance %v (bits %#x), Query says %v", u, v, d, math.Float64bits(d), want)
	}
	p := r.Path
	if math.IsInf(d, 1) {
		if len(p) != 0 {
			return fmt.Errorf("(%d,%d): unreachable pair with path %v", u, v, p)
		}
		return nil
	}
	if len(p) == 0 || int(p[0]) != u || int(p[len(p)-1]) != v {
		return fmt.Errorf("(%d,%d): walk %v does not run from u to v", u, v, p)
	}
	var sum float64
	for i := 0; i+1 < len(p); i++ {
		w, ok := g.EdgeWeight(int(p[i]), int(p[i+1]))
		if !ok {
			return fmt.Errorf("(%d,%d): hop %d->%d of the walk is not an edge", u, v, p[i], p[i+1])
		}
		sum += w
	}
	if !core.ApproxDistEq(sum, d, 1e-9) {
		return fmt.Errorf("(%d,%d): walk weighs %v, distance says %v", u, v, sum, d)
	}
	return nil
}

// checkBatch verifies a POST /query/batchbin response: one little-endian
// float64 per pair, each equal to ref.Query bit for bit.
func checkBatch(body []byte, pairs []oracle.Pair, ref *oracle.Flat) error {
	if len(body) != 8*len(pairs) {
		return fmt.Errorf("batch of %d pairs answered with %d bytes", len(pairs), len(body))
	}
	for i, p := range pairs {
		got := binary.LittleEndian.Uint64(body[8*i:])
		if want := ref.Query(int(p.U), int(p.V)); got != math.Float64bits(want) {
			return fmt.Errorf("batch pair %d (%d,%d): served bits %#x, want %v", i, p.U, p.V, got, want)
		}
	}
	return nil
}

// checkGeneration verifies a POST /admin/reload reply: the swap must
// install generation want, directly after want-1.
func checkGeneration(body []byte, want uint64) error {
	var r struct {
		Generation uint64 `json:"generation"`
		Previous   uint64 `json:"previous"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("reload reply %q: %w", body, err)
	}
	if r.Generation != want || r.Previous+1 != want {
		return fmt.Errorf("reload installed generation %d after %d, want %d after %d",
			r.Generation, r.Previous, want, want-1)
	}
	return nil
}
