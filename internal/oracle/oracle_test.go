package oracle

import (
	"math"
	"math/rand"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/shortest"
)

// auditStretch checks every pair (u,v): Query >= true distance, and in
// exact mode Query <= (1+eps) * true distance.
func auditStretch(t *testing.T, g *graph.Graph, o *Oracle, eps float64, guarantee bool) (worst float64) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		tr := shortest.Dijkstra(g, u)
		for v := 0; v < g.N(); v++ {
			if u == v {
				if got := o.Query(u, v); got != 0 {
					t.Fatalf("Query(%d,%d) = %v, want 0", u, v, got)
				}
				continue
			}
			d := tr.Dist[v]
			est := o.Query(u, v)
			if math.IsInf(d, 1) {
				if !math.IsInf(est, 1) {
					t.Fatalf("Query(%d,%d) = %v for disconnected pair", u, v, est)
				}
				continue
			}
			if est < d-1e-9 {
				t.Fatalf("Query(%d,%d) = %v < true %v (underestimate)", u, v, est, d)
			}
			if ratio := est / d; ratio > worst {
				worst = ratio
			}
			if guarantee && est > (1+eps)*d+1e-9 {
				t.Fatalf("Query(%d,%d) = %v > (1+%v)*%v (stretch %v)", u, v, est, eps, d, est/d)
			}
		}
	}
	return worst
}

func buildFor(t *testing.T, g *graph.Graph, rot *embed.Rotation, opt Options) *Oracle {
	t.Helper()
	tree, err := core.Decompose(g, core.Options{Strategy: core.Auto{}, Rot: rot})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestExactModeGridGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := embed.Grid(7, 7, graph.UniformWeights(1, 3), rng)
	for _, eps := range []float64{0.5, 0.25, 0.1} {
		o := buildFor(t, r.G, r, Options{Epsilon: eps, Mode: CoverExact})
		auditStretch(t, r.G, o, eps, true)
	}
}

func TestExactModeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomTree(80, graph.UniformWeights(1, 5), rng)
	o := buildFor(t, g, nil, Options{Epsilon: 0.2, Mode: CoverExact})
	worst := auditStretch(t, g, o, 0.2, true)
	// Trees: estimates should actually be exact (every path crosses the
	// centroid separator at the crossing vertex itself).
	if worst > 1+1e-9 {
		t.Errorf("tree oracle worst stretch %v, want exact", worst)
	}
}

func TestExactModeKTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.KTree(60, 2, graph.UniformWeights(1, 4), rng)
	o := buildFor(t, g, nil, Options{Epsilon: 0.3, Mode: CoverExact})
	auditStretch(t, g, o, 0.3, true)
}

func TestExactModeApollonian(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := embed.Apollonian(70, graph.UniformWeights(1, 3), rng)
	o := buildFor(t, r.G, r, Options{Epsilon: 0.25, Mode: CoverExact})
	auditStretch(t, r.G, o, 0.25, true)
}

func TestExactModeRandomGraphs(t *testing.T) {
	// Greedy strategy on arbitrary graphs: guarantee still holds because
	// the separator satisfies Definition 1 regardless of k.
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.ConnectedGNM(40, 90, graph.UniformWeights(0.5, 2), rng)
		o := buildFor(t, g, nil, Options{Epsilon: 0.4, Mode: CoverExact})
		auditStretch(t, g, o, 0.4, true)
	}
}

func TestPortalModeNeverUnderestimates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := embed.Grid(8, 8, graph.UniformWeights(1, 2), rng)
	o := buildFor(t, r.G, r, Options{Epsilon: 0.25, Mode: CoverPortal})
	worst := auditStretch(t, r.G, o, 0.25, false)
	// Closest-attachment entries cap the stretch at 3 even in portal mode.
	if worst > 3+1e-9 {
		t.Errorf("portal mode worst stretch %v > 3", worst)
	}
}

func TestPortalModeMorePortalsLowerStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := embed.Grid(9, 9, graph.UniformWeights(1, 2), rng)
	tree, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(p int) float64 {
		o, err := Build(tree, Options{Epsilon: 0.25, Mode: CoverPortal, PortalsPerPath: p})
		if err != nil {
			t.Fatal(err)
		}
		return auditStretch(t, r.G, o, 0, false)
	}
	few := measure(2)
	many := measure(16)
	if many > few+1e-9 {
		t.Errorf("more portals should not hurt: 2 portals %v, 16 portals %v", few, many)
	}
}

func TestDisconnectedPairs(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g := b.Build()
	tree, err := core.Decompose(g, core.Options{Strategy: core.Greedy{}})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(tree, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Query(0, 5); !math.IsInf(got, 1) {
		t.Fatalf("Query across components = %v, want +Inf", got)
	}
	if got := o.Query(0, 2); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Query(0,2) = %v, want 2", got)
	}
}

func TestLabelSizesLogarithmic(t *testing.T) {
	// Label portal counts should grow roughly like log n for grids, not n.
	rng := rand.New(rand.NewSource(7))
	sizes := []int{16, 64, 256}
	var maxPortals []int
	for _, n := range sizes {
		side := isqrtTest(n)
		r := embed.Grid(side, side, graph.UnitWeights(), rng)
		o := buildFor(t, r.G, r, Options{Epsilon: 0.5, Mode: CoverExact})
		maxPortals = append(maxPortals, o.MaxLabelPortals())
	}
	// 16x growth in n should produce far less than 16x growth in label size.
	if maxPortals[2] > 8*maxPortals[0] {
		t.Errorf("label growth not logarithmic: %v", maxPortals)
	}
}

func isqrtTest(n int) int {
	x := 1
	for x*x < n {
		x++
	}
	return x
}

func TestInvalidEpsilon(t *testing.T) {
	g := graph.Path(4, graph.UnitWeights(), rand.New(rand.NewSource(1)))
	tree, _ := core.Decompose(g, core.Options{})
	if _, err := Build(tree, Options{Epsilon: 0}); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := Build(tree, Options{Epsilon: -1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
}

func TestPairMin(t *testing.T) {
	a := []Portal{{Pos: 0, Dist: 5}, {Pos: 10, Dist: 1}}
	b := []Portal{{Pos: 2, Dist: 3}, {Pos: 9, Dist: 4}}
	// Candidates: 5+2+3=10, 5+9+4=18, 1+8+3=12, 1+1+4=6 -> 6.
	if got := pairMin(a, b); got != 6 {
		t.Fatalf("pairMin = %v, want 6", got)
	}
	if got := pairMin(nil, b); !math.IsInf(got, 1) {
		t.Fatalf("pairMin empty = %v", got)
	}
}

// TestPairMinMatchesBruteForce checks pairMin, and sweepRec over a lane
// buildLane wrote, against a brute-force minimum over every portal pair.
// Each candidate is rounded as pairMin rounds it —
// fl(fl(Dist_later+Pos_later) + fl(Dist_earlier−Pos_earlier)), where the
// earlier record comes first in merge order, A first on ties — so both
// folds must match it bit for bit; the unrounded distance
// Dist + |Pos−Pos'| + Dist' must match within 1e-9. The random runs draw
// strictly increasing positions, then positions from a small grid, so
// the two runs tie and a run repeats a position (a zero-weight path
// edge), with +Inf distances and singleton runs among them; the fixed
// cases put each run's minimum where only a tail pass past the other
// run's end finds it.
func TestPairMinMatchesBruteForce(t *testing.T) {
	type pairCase struct{ a, b []Portal }
	inf := math.Inf(1)
	cases := []pairCase{
		{[]Portal{{0, 9}}, []Portal{{1, 9}, {2, 9}, {3, 0.5}}},
		{[]Portal{{1, 9}, {2, 9}, {3, 0.5}}, []Portal{{0, 9}}},
		{[]Portal{{0, 9}, {0, 4}}, []Portal{{0, 3}}},
		{[]Portal{{2, inf}}, []Portal{{2, 1}, {2, inf}}},
		{[]Portal{{1, inf}}, []Portal{{1, inf}}},
	}
	rng := rand.New(rand.NewSource(8))
	mk := func(n int, grid bool) []Portal {
		ps := make([]Portal, n)
		pos := 0.0
		for i := range ps {
			if grid {
				pos += 0.1 * float64(rng.Intn(3))
			} else {
				pos += rng.Float64() * 3
			}
			ps[i] = Portal{Pos: pos, Dist: rng.Float64() * 10}
			if grid && rng.Intn(5) == 0 {
				ps[i].Dist = inf
			}
		}
		return ps
	}
	for trial := 0; trial < 600; trial++ {
		grid := trial >= 200
		na, nb := 1+rng.Intn(6), 1+rng.Intn(6)
		if trial%7 == 0 {
			na = 1
		}
		cases = append(cases, pairCase{mk(na, grid), mk(nb, grid)})
	}
	for c, pc := range cases {
		a, b := pc.a, pc.b
		want, exact := inf, inf
		for _, p := range a {
			for _, q := range b {
				est := q.Dist + q.Pos + (p.Dist - p.Pos)
				if p.Pos > q.Pos {
					est = p.Dist + p.Pos + (q.Dist - q.Pos)
				}
				if est < want {
					want = est
				}
				if d := p.Dist + math.Abs(p.Pos-q.Pos) + q.Dist; d < exact {
					exact = d
				}
			}
		}
		if math.Abs(want-exact) > 1e-9 {
			t.Fatalf("case %d: rounded minimum %v, exact %v", c, want, exact)
		}
		f := &Flat{tables: tables{portalOff: []int32{0, int32(len(a)), int32(len(a) + len(b))}}, lane: alignedPortals(len(a) + len(b))}
		var pos, dist []float64
		for _, run := range [][]Portal{a, b} {
			for _, p := range run {
				pos, dist = append(pos, p.Pos), append(dist, p.Dist)
			}
		}
		if err := f.buildLane(0, 2, pos, dist, anchorRuns{}); err != nil {
			t.Fatalf("case %d: buildLane: %v", c, err)
		}
		for _, got := range []struct {
			name string
			v    float64
		}{
			{"pairMin", pairMin(a, b)},
			{"sweepRec", sweepRec(f.lane[:len(a)], f.lane[len(a):], inf)},
		} {
			if math.Float64bits(got.v) != math.Float64bits(want) {
				t.Fatalf("case %d: %s = %v, brute force %v\na = %v\nb = %v", c, got.name, got.v, want, a, b)
			}
		}
	}
}

func TestSpaceAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := embed.Grid(5, 5, graph.UnitWeights(), rng)
	o := buildFor(t, r.G, r, Options{Epsilon: 0.5})
	total := 0
	for v := 0; v < r.G.N(); v++ {
		total += o.Label(v).NumPortals()
	}
	if total != o.SpacePortals() {
		t.Fatalf("SpacePortals %d != sum %d", o.SpacePortals(), total)
	}
	if o.MaxLabelPortals() == 0 || o.MaxLabelPortals() > total {
		t.Fatalf("MaxLabelPortals %d", o.MaxLabelPortals())
	}
}

func TestAuditAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	r := embed.Grid(6, 6, graph.UniformWeights(1, 3), rng)
	o := buildFor(t, r.G, r, Options{Epsilon: 0.25, Mode: CoverExact})
	res := o.Audit(r.G, 200, rng.Intn)
	if res.Pairs == 0 {
		t.Fatal("no pairs audited")
	}
	if res.Underestimates != 0 {
		t.Fatalf("%d underestimates", res.Underestimates)
	}
	if res.MaxStretch > 1.25+1e-9 || res.MeanStretch > res.MaxStretch {
		t.Fatalf("audit: %+v", res)
	}
}

// TestAuditScaleInvariant pins Audit's underestimate check to a relative
// tolerance. The 24×24 grid of seed 3 with weights uniform in [1, 4), and
// the same grid with every weight scaled by 1e6, are audited over 4000
// pairs at ε = 0.25 in both modes: neither scale may report an
// underestimate, and both must report the same MaxStretch up to
// rounding. An absolute tolerance counted the scaled estimates' float
// rounding — about 1e-15 of the distance — as shortfalls.
func TestAuditScaleInvariant(t *testing.T) {
	for _, mode := range []Mode{CoverExact, CoverPortal} {
		var stretch [2]float64
		for i, scale := range []float64{1, 1e6} {
			w := func(_, _ int, rng *rand.Rand) float64 { return scale * (1 + 3*rng.Float64()) }
			r := embed.Grid(24, 24, w, rand.New(rand.NewSource(3)))
			o := buildFor(t, r.G, r, Options{Epsilon: 0.25, Mode: mode})
			res := o.Audit(r.G, 4000, rand.New(rand.NewSource(4)).Intn)
			if res.Pairs < 3900 || res.Underestimates != 0 {
				t.Errorf("%s scale %g: %d underestimates over %d pairs", mode, scale, res.Underestimates, res.Pairs)
			}
			stretch[i] = res.MaxStretch
		}
		if !core.ApproxDistEq(stretch[0], stretch[1], 1e-9) {
			t.Errorf("%s: MaxStretch %v at scale 1, %v at scale 1e6", mode, stretch[0], stretch[1])
		}
	}
}
