package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
)

// Workloads lists the traffic mixes in the order the command runs them.
//
//   - point: single-pair GET /query on a 64×64 grid. The oracle is under
//     1% of a request, so this isolates the HTTP and serve stack; an
//     oracle-only change should show nothing here.
//   - route: the same image and pairs on GET /query/path. It differs from
//     point only in the path layer and the walk's JSON, so it guards
//     witness reporting and separates walk cost from distance cost.
//   - bulk: POST /query/batchbin with 1024 pairs per request on a 128×128
//     grid (image ~10× the L2). Oracle-bound, and its build makes
//     setup_s build-bound.
//   - reload: GET /query on one connection while the other swaps images A
//     and B in through POST /admin/reload on a fixed schedule: writes
//     beside reads, and how decode, flip and drain disturb queries.
var Workloads = []string{"point", "route", "bulk", "reload"}

// Traffic shape. The reference machine has 2 cores, so the closed loop
// uses 2 connections from one process (reload: 1 query + 1 reloader).
const (
	conns         = 2
	batchPairs    = 1024 // pairs per bulk request
	singleReqs    = 1 << 14
	bulkReqs      = 128
	checkSingle   = 64 // 1 in checkSingle single-pair responses is checked
	checkBulk     = 16 // 1 in checkBulk batch responses is checked
	buildEps      = 0.25
	pairSeedShift = 1 << 32 // pair streams use seed+pairSeedShift, apart from every image's stream

	// imageSeed draws image A's weights, and imageSeed+1 image B's. The
	// images do not follow the run's seed, which varies only the
	// requests: image size is then the same on every run of a revision,
	// and daemon memory and set-up time differ between seeds only by
	// host noise, not by how each seed's graph decomposes.
	imageSeed = 1
)

// spec is one workload's fixed parameters.
type spec struct {
	side     int    // grid side of the served image
	endpoint string // request path
	per      int    // pairs per request
	reloads  bool   // second image swapped in on a schedule
}

func specFor(name string) (spec, error) {
	switch name {
	case "point":
		return spec{side: 64, endpoint: "/query", per: 1}, nil
	case "route":
		return spec{side: 64, endpoint: "/query/path", per: 1}, nil
	case "bulk":
		return spec{side: 128, endpoint: "/query/batchbin", per: batchPairs}, nil
	case "reload":
		return spec{side: 64, endpoint: "/query", per: 1, reloads: true}, nil
	}
	return spec{}, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, Workloads)
}

// buildImage generates the side×side grid with uniform [1,4) weights drawn
// from seed and builds, freezes and encodes its (1+ε) oracle the way pathsepd
// -graph does. Each library call is a span under parent.
func buildImage(side int, seed int64, sb *SpanBuf, parent, rep int32) (*graph.Graph, []byte, error) {
	rot := embed.Grid(side, side, graph.UniformWeights(1, 4), rand.New(rand.NewSource(seed)))
	h := sb.Begin("core.decompose", parent, rep)
	dec, err := core.Decompose(rot.G, core.Options{Strategy: core.Auto{}, Rot: rot})
	sb.End(h)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: decompose: %w", err)
	}
	h = sb.Begin("oracle.build", parent, rep)
	o, err := oracle.Build(dec, oracle.Options{Epsilon: buildEps, Mode: oracle.CoverPortal})
	sb.End(h)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: build: %w", err)
	}
	h = sb.Begin("oracle.freeze", parent, rep)
	fl, err := o.Freeze()
	sb.End(h)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: freeze: %w", err)
	}
	h = sb.Begin("oracle.encode", parent, rep)
	img := fl.Encode()
	sb.End(h)
	return rot.G, img, nil
}

// pairStream returns count uniform pairs over [0, n) drawn from seed.
func pairStream(seed int64, n, count int) []oracle.Pair {
	rng := rand.New(rand.NewSource(seed + pairSeedShift))
	out := make([]oracle.Pair, count)
	for i := range out {
		out[i] = oracle.Pair{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return out
}

// renderRequests pre-renders one whole HTTP request per group of per
// pairs, so the load loop only writes bytes.
func renderRequests(endpoint string, pairs []oracle.Pair, per int) [][]byte {
	reqs := make([][]byte, len(pairs)/per)
	for i := range reqs {
		if per == 1 {
			p := pairs[i]
			reqs[i] = getRequest(fmt.Sprintf("%s?u=%d&v=%d", endpoint, p.U, p.V))
			continue
		}
		body := encodePairs(pairs[i*per : (i+1)*per])
		reqs[i] = append(postHead(endpoint, len(body)), body...)
	}
	return reqs
}

// encodePairs renders pairs in the /query/batchbin wire format.
func encodePairs(pairs []oracle.Pair) []byte {
	body := make([]byte, 8*len(pairs))
	for j, p := range pairs {
		binary.LittleEndian.PutUint32(body[8*j:], uint32(p.U))
		binary.LittleEndian.PutUint32(body[8*j+4:], uint32(p.V))
	}
	return body
}
