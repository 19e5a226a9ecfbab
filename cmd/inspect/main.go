// Command inspect reads a graph, decomposes it, and renders the k-path
// separator decomposition tree as indented text: per node, the subgraph
// size, strategy, phases, and the separator paths themselves.
//
// Usage:
//
//	gengraph -family apollonian -n 60 | inspect -maxdepth 3
//	inspect -image oracle.img
//
// -mode pins the separator strategy (auto|tree|bag|greedy, the names
// cmd/pathsep takes; unknown values are rejected). An edge list carries
// no rotation, so planar nodes are auto's: it embeds them itself.
// -workers bounds the construction pool. With -image the input is a
// flat oracle image instead of a graph, and the report covers the
// serving layout: the bytes each resident array holds, lane alignment,
// the portals another portal of their entry dominates, the image
// sections, and the per-entry portal-run length distribution that
// drives merge sweep cost.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pathsep/internal/core"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
)

func main() {
	in := flag.String("in", "", "input file (default stdin)")
	image := flag.String("image", "", "inspect a flat oracle image file instead of a graph")
	maxDepth := flag.Int("maxdepth", 4, "deepest level to print (-1 = all)")
	showPaths := flag.Bool("paths", true, "print the separator paths")
	mode := flag.String("mode", "auto", "decomposition strategy: auto|tree|bag|greedy")
	workers := flag.Int("workers", 0, "construction worker pool size (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	if *image != "" {
		if err := inspectImage(*image); err != nil {
			fail(err)
		}
		return
	}

	// Validate -mode up front, the same way cmd/oracle validates its mode:
	// an unknown value is a usage error, not a silent fallback to auto.
	var strat core.Strategy
	switch *mode {
	case "auto":
		strat = core.Auto{}
	case "tree":
		strat = core.TreeCentroid{}
	case "bag":
		strat = core.CenterBag{}
	case "greedy":
		strat = core.Greedy{}
	default:
		fmt.Fprintf(os.Stderr, "inspect: unknown -mode %q (want auto|tree|bag|greedy)\n", *mode)
		flag.Usage()
		os.Exit(2)
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		r = f
	}
	g, err := graph.Read(r)
	if err != nil {
		fail(err)
	}
	dec, err := core.Decompose(g, core.Options{Strategy: strat, Workers: *workers})
	if err != nil {
		fail(err)
	}
	fmt.Printf("graph n=%d m=%d | decomposition: %d nodes, depth %d, maxK %d\n\n",
		g.N(), g.M(), len(dec.Nodes), dec.Depth, dec.MaxK)

	var render func(id, depth int)
	render = func(id, depth int) {
		if *maxDepth >= 0 && depth > *maxDepth {
			return
		}
		nd := dec.Nodes[id]
		indent := strings.Repeat("  ", depth)
		fmt.Printf("%s[node %d] n=%d strategy=%s", indent, nd.ID, nd.Sub.G.N(), nd.StrategyName)
		if nd.Sep != nil {
			fmt.Printf(" k=%d phases=%d", nd.Sep.NumPaths(), nd.Sep.NumPhases())
		}
		fmt.Println()
		if nd.Sep != nil && *showPaths {
			rootSep := nd.SepInRootIDs()
			for pi, ph := range rootSep.Phases {
				for qi, p := range ph.Paths {
					vs := p.Vertices
					preview := fmt.Sprint(vs)
					if len(vs) > 12 {
						preview = fmt.Sprintf("%v...(+%d)", vs[:12], len(vs)-12)
					}
					fmt.Printf("%s  P%d.%d (%d vertices): %s\n", indent, pi, qi, len(vs), preview)
				}
			}
		}
		for _, c := range nd.Children {
			render(c, depth+1)
		}
	}
	render(dec.Root().ID, 0)
	if *maxDepth >= 0 && dec.Depth > *maxDepth {
		fmt.Printf("\n(levels below %d elided; pass -maxdepth -1 for all)\n", *maxDepth)
	}
}

// inspectImage reports the serving layout of a flat oracle image: header
// metadata, the memory the decoded image holds for serving, one row per
// resident array (its tables, sweep lane and walk layout), lane
// alignment, the portals another portal of their entry dominates (a
// rebuild keeps only those a hop chain passes through), every image
// section's record count and bytes, and the per-entry portal-run length
// distribution — short runs are one-candidate sweeps, long runs are where
// the sweep's register fold spends its steps and the batch scheduler
// earns its keep.
func inspectImage(path string) error {
	fl, err := oracle.DecodeFlatFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("flat image %s: n=%d eps=%g mode=%s\n",
		path, fl.N(), fl.Eps(), fl.Mode())
	fmt.Printf("  keys=%d entries=%d portals=%d encoded=%d B\n",
		fl.NumKeys(), fl.NumEntries(), fl.NumPortals(), fl.EncodedSize())
	perPortal := func(bytes int) float64 { return float64(bytes) / float64(max(fl.NumPortals(), 1)) }
	fmt.Printf("  resident %d B (%.1f B/portal), lane 64B-aligned: %v\n",
		fl.ResidentBytes(), perPortal(fl.ResidentBytes()), fl.LaneAligned())
	for _, a := range fl.ResidentArrays() {
		fmt.Printf("    %-10s %11d B %5.1f B/portal\n", a.Name, a.Bytes, perPortal(a.Bytes))
	}

	dom := fl.DominatedPortals()
	fmt.Printf("  dominated portals: %d (%.1f%%); a rebuild keeps those a hop chain passes through\n",
		dom, 100*perPortal(dom))

	fmt.Println("  sections (records, bytes):")
	for _, s := range fl.Sections() {
		fmt.Printf("    %-10s %9d %11d B\n", s.Name, s.Records, s.Bytes)
	}

	runs := fl.PortalRunLengths(nil)
	if len(runs) == 0 {
		fmt.Println("  no portal runs")
		return nil
	}
	sort.Ints(runs)
	total := 0
	for _, r := range runs {
		total += r
	}
	fmt.Printf("  portal runs: %d, min=%d p50=%d p90=%d p99=%d max=%d mean=%.2f\n",
		len(runs), runs[0], runs[len(runs)/2], runs[len(runs)*9/10],
		runs[len(runs)*99/100], runs[len(runs)-1], float64(total)/float64(len(runs)))

	// Length histogram in power-of-two bins: count and share of all
	// portal slots (i.e. of sweep work), so a few huge runs are visible
	// even when short runs dominate the count.
	type bin struct{ count, slots int }
	bins := map[int]*bin{}
	for _, r := range runs {
		b := 1
		for b < r {
			b <<= 1
		}
		if bins[b] == nil {
			bins[b] = &bin{}
		}
		bins[b].count++
		bins[b].slots += r
	}
	bounds := make([]int, 0, len(bins))
	for b := range bins {
		bounds = append(bounds, b)
	}
	sort.Ints(bounds)
	fmt.Println("  run-length distribution (run ≤ bound: runs, share of portal slots):")
	for _, b := range bounds {
		fmt.Printf("    ≤%4d: %7d runs  %5.1f%% of slots\n",
			b, bins[b].count, 100*float64(bins[b].slots)/float64(total))
	}
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "inspect: %v\n", err)
	os.Exit(1)
}
