package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/shortest"
)

// pruneDiff checks what dropping dominated records must keep, against
// the unpruned labels of the same build: every vertex keeps every entry,
// none of them empty; every anchor record stays; and every kept record's
// hop names a kept record at its key and position. It describes the first
// violation, or returns "".
func pruneDiff(o *Oracle, full *refOracle) string {
	labels := make([]*Label, o.N)
	for v := range labels {
		labels[v] = o.Label(v)
	}
	for v, l := range labels {
		want := &full.labels[v]
		if len(l.Entries) != len(want.Entries) {
			return fmt.Sprintf("vertex %d keeps %d of its %d entries", v, len(l.Entries), len(want.Entries))
		}
		for i, e := range l.Entries {
			if len(e.Portals) == 0 {
				return fmt.Sprintf("vertex %d entry %d emptied", v, i)
			}
			for x, h := range e.Hops {
				if h < 0 {
					continue
				}
				if j, _ := portalAt(labels[h], e.Key, e.Portals[x].Pos); j < 0 {
					return fmt.Sprintf("vertex %d key %v position %v: hop to %d names a dropped record", v, e.Key, e.Portals[x].Pos, h)
				}
			}
		}
		for _, e := range want.Entries {
			for x, h := range e.Hops {
				if h >= 0 {
					continue
				}
				if j, y := portalAt(l, e.Key, e.Portals[x].Pos); j < 0 || l.Entries[j].Hops[y] >= 0 {
					return fmt.Sprintf("vertex %d key %v: anchor at %v dropped", v, e.Key, e.Portals[x].Pos)
				}
			}
		}
	}
	return ""
}

// pruneCase is one build of the pruned-against-unpruned differential.
type pruneCase struct {
	name string
	g    *graph.Graph
	rot  *embed.Rotation
	mode Mode
	// tree is set on trees, whose separator paths are single vertices:
	// no record there is ever dominated, so no label may shrink.
	tree bool
	// pairs is the number of sampled pairs, 0 for every pair.
	pairs int
}

// pruneCases are the differential's builds: the lane families (the
// graphs of the root package's parallelFamilies: the same generators from
// the same seed), the zero-weight grids of TestZeroWeightWalks and random
// trees of 300 and 1,024 vertices in both modes, every pair of each, and
// the 64×64 bench grid on 100,000 sampled pairs, in portal mode and,
// outside -short and the race detector, in exact mode, whose build takes
// seconds. Under the race detector, which slows the answers twentyfold,
// every graph above 300 vertices is checked on 20,000 sampled pairs.
func pruneCases(t *testing.T) []pruneCase {
	var cases []pruneCase
	fams := laneFamilies(t)
	names := make([]string, 0, len(fams))
	for fam := range fams {
		names = append(names, fam)
	}
	slices.Sort(names)
	for _, m := range laneModes {
		for _, fam := range names {
			fx := fams[fam]
			cases = append(cases, pruneCase{name: fam, g: fx.g, rot: fx.rot, mode: m.mode, tree: fam == "random-tree"})
		}
		for _, in := range zeroWeightGrids {
			rot := fuzzGrid(in.seed, in.rows, in.cols, in.zeros)
			cases = append(cases, pruneCase{name: fmt.Sprintf("zero-weight seed %d", in.seed), g: rot.G, rot: rot, mode: m.mode})
		}
		for _, n := range []int{300, 1024} {
			g := graph.RandomTree(n, graph.UniformWeights(1, 4), rand.New(rand.NewSource(int64(n))))
			cases = append(cases, pruneCase{name: fmt.Sprintf("tree %d", n), g: g, mode: m.mode, tree: true})
		}
	}
	grid := embed.Grid(64, 64, graph.UniformWeights(1, 4), rand.New(rand.NewSource(1)))
	cases = append(cases, pruneCase{name: "64x64", g: grid.G, rot: grid, mode: CoverPortal, pairs: 100000})
	if !testing.Short() && !raceEnabled {
		cases = append(cases, pruneCase{name: "64x64", g: grid.G, rot: grid, mode: CoverExact, pairs: 100000})
	}
	if raceEnabled {
		for i := range cases {
			if cases[i].g.N() > 300 {
				cases[i].pairs = 20000
			}
		}
	}
	return cases
}

// TestPruneDifferential holds Build, which drops dominated records, to
// the unpruned labels of the same build records (unprunedRef), answer by
// answer. Dropping a record only removes candidates, so no answer may
// fall below the unpruned one; in floating point a dropped record's
// candidate can round below its dominator's, so an answer may rise, by at
// most 4·n·2⁻⁵³ relative on an n-vertex graph. +Inf must stay +Inf, and
// every answer's QueryPath walk must run along the graph's edges from u
// to v and weigh its distance. pruneDiff's structural checks hold on
// every build, and trees drop no record at all.
func TestPruneDifferential(t *testing.T) {
	for _, tc := range pruneCases(t) {
		name := tc.name + "/" + tc.mode.String()
		dec, err := core.Decompose(tc.g, core.Options{Strategy: core.Auto{}, Rot: tc.rot, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opt := Options{Epsilon: 0.25, Mode: tc.mode}
		full := unprunedRef(t, dec, opt, 1)
		o, err := Build(dec, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fl, err := o.Freeze()
		if err != nil {
			t.Fatalf("%s: freeze: %v", name, err)
		}
		if d := pruneDiff(o, full); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		all := 0
		for _, l := range full.labels {
			all += l.NumPortals()
		}
		if tc.tree && fl.NumPortals() != all {
			t.Fatalf("%s: a tree's labels shrank from %d to %d portals", name, all, fl.NumPortals())
		}
		n := tc.g.N()
		tol := 4 * float64(n) * 0x1p-53
		changed, worst, count := 0, 0.0, 0
		var buf []int32
		check := func(u, v int) {
			want := full.Query(u, v)
			got, walk, err := fl.QueryPath(u, v, buf[:0])
			buf = walk
			count++
			switch {
			case err != nil:
				t.Fatalf("%s: QueryPath(%d,%d): %v", name, u, v, err)
			case math.IsInf(want, 1) || math.IsInf(got, 1):
				if !math.IsInf(want, 1) || !math.IsInf(got, 1) {
					t.Fatalf("%s: (%d,%d) answers %v, unpruned %v", name, u, v, got, want)
				}
				return
			case got < want:
				t.Fatalf("%s: (%d,%d) answers %v, below the unpruned %v", name, u, v, got, want)
			case got > want*(1+tol):
				t.Fatalf("%s: (%d,%d) answers %v, %.3g above the unpruned %v (bound %.3g)", name, u, v, got, (got-want)/want, want, tol)
			}
			if got > want {
				changed++
				worst = max(worst, (got-want)/want)
			}
			w, ok := shortest.PathLength(tc.g, toInts(walk))
			if !ok || int(walk[0]) != u || int(walk[len(walk)-1]) != v || !core.ApproxDistEq(w, got, 1e-9) {
				t.Fatalf("%s: QueryPath(%d,%d) = %v, walk %v weighs %v (on the graph's edges: %v)", name, u, v, got, walk, w, ok)
			}
		}
		if tc.pairs == 0 {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					check(u, v)
				}
			}
		} else {
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < tc.pairs; i++ {
				check(rng.Intn(n), rng.Intn(n))
			}
		}
		t.Logf("%s: %d of %d portals kept; %d of %d answers rose, by at most %.3g relative", name, fl.NumPortals(), all, changed, count, worst)
	}
}

// TestDominatedPortals pins Flat.DominatedPortals to the pairwise rule
// pruneRef applies. On the lanes of the unpruned labels it counts every
// record the rule marks; on the frozen image Build wrote, only records
// kept for a hop chain can be dominated, so it counts at most those: the
// image's portals less the unpruned records no other record dominates.
func TestDominatedPortals(t *testing.T) {
	for fam, fx := range laneFamilies(t) {
		for _, m := range laneModes {
			name := fam + "/" + m.name
			dec, err := core.Decompose(fx.g, core.Options{Strategy: core.Auto{}, Rot: fx.rot})
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Epsilon: 0.25, Mode: m.mode}
			full := unprunedRef(t, dec, opt, 1)
			all, marked := 0, 0
			for _, l := range full.labels {
				for _, e := range l.Entries {
					all += len(e.Portals)
					for i, a := range e.Portals {
						for j, b := range e.Portals {
							d := b.Dist + math.Abs(a.Pos-b.Pos)
							if j != i && (d < a.Dist || j < i && core.SameDist(d, a.Dist)) {
								marked++
								break
							}
						}
					}
				}
			}
			ff, _, err := full.freeze()
			if err != nil {
				t.Fatal(err)
			}
			if got := ff.DominatedPortals(); got != marked {
				t.Errorf("%s: unpruned lane counts %d dominated records, the rule marks %d", name, got, marked)
			}
			o, err := Build(dec, opt)
			if err != nil {
				t.Fatal(err)
			}
			fl, err := o.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			if got, keptBack := fl.DominatedPortals(), fl.NumPortals()-(all-marked); got > keptBack {
				t.Errorf("%s: image counts %d dominated records, but keeps only %d for hop chains", name, got, keptBack)
			}
		}
	}
}
