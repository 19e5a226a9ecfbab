// Command oracle builds the Theorem 2 distance oracle over a graph read
// from stdin (or -in), runs random queries, and reports stretch, label
// sizes and query latency.
//
// Usage:
//
//	gengraph -family ktree -n 400 | oracle -eps 0.2 -mode exact -queries 2000
//
// With -metrics out.json it writes a JSON snapshot of the observability
// registry (decomposition level timings, Dijkstra relaxation counts,
// query latency histogram); with -pprof addr it serves net/http/pprof
// and /debug/vars while running.
//
// Queries run on the oracle's serving rows (the flat engine). To measure
// the serving image over HTTP, use bench/run.sh (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"pathsep/internal/core"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
)

func main() {
	in := flag.String("in", "", "input file (default stdin)")
	eps := flag.Float64("eps", 0.25, "epsilon of the (1+eps) approximation")
	mode := flag.String("mode", "exact", "exact|portal")
	queries := flag.Int("queries", 1000, "random queries to run")
	audit := flag.Int("audit", 200, "queries to audit against Dijkstra")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "construction worker pool size (0 = GOMAXPROCS, 1 = serial)")
	metricsOut := flag.String("metrics", "", "write a metrics JSON snapshot to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /debug/vars on this address")
	flag.Parse()

	if !(*eps > 0) || math.IsInf(*eps, 1) {
		fmt.Fprintf(os.Stderr, "oracle: -eps must be a positive finite number, got %v\n", *eps)
		flag.Usage()
		os.Exit(2)
	}
	if *queries < 0 || *audit < 0 {
		fmt.Fprintf(os.Stderr, "oracle: -queries and -audit must not be negative, got %d and %d\n", *queries, *audit)
		flag.Usage()
		os.Exit(2)
	}

	var m oracle.Mode
	switch *mode {
	case "exact":
		m = oracle.CoverExact
	case "portal":
		m = oracle.CoverPortal
	default:
		fmt.Fprintf(os.Stderr, "oracle: unknown -mode %q (want exact|portal)\n", *mode)
		flag.Usage()
		os.Exit(2)
	}

	var reg *obs.Registry
	if *metricsOut != "" || *pprofAddr != "" {
		reg = obs.New()
	}
	if *pprofAddr != "" {
		srv, _, err := obs.Serve(*pprofAddr, reg)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Printf("debug: serving /metrics, /debug/vars and /debug/pprof on %s\n", srv.Addr)
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

	start := time.Now()
	dec, err := core.Decompose(g, core.Options{Strategy: core.Auto{}, Metrics: reg, Workers: *workers})
	if err != nil {
		fail(err)
	}
	decTime := time.Since(start)
	start = time.Now()
	o, err := oracle.Build(dec, oracle.Options{Epsilon: *eps, Mode: m, Metrics: reg, Workers: *workers})
	if err != nil {
		fail(err)
	}
	buildTime := time.Since(start)

	rng := rand.New(rand.NewSource(*seed))
	start = time.Now()
	for i := 0; i < *queries; i++ {
		o.Query(rng.Intn(g.N()), rng.Intn(g.N()))
	}
	qTime := time.Since(start) / time.Duration(max(1, *queries))

	res := o.AuditWorkers(g, *audit, rng.Intn, *workers)

	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("decompose: %v  (maxK=%d depth=%d)\n", decTime.Round(time.Millisecond), dec.MaxK, dec.Depth)
	fmt.Printf("build: %v  mode=%s eps=%g\n", buildTime.Round(time.Millisecond), *mode, *eps)
	fmt.Printf("space: %d portal entries, max label %d portals\n", o.SpacePortals(), o.MaxLabelPortals())
	fmt.Printf("query: %v/query over %d queries\n", qTime, *queries)
	if res.Pairs > 0 {
		fmt.Printf("stretch: max=%.4f mean=%.4f over %d audited pairs (bound 1+eps=%.4f), %d underestimates\n",
			res.MaxStretch, res.MeanStretch, res.Pairs, 1+*eps, res.Underestimates)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, reg); err != nil {
			fail(err)
		}
		fmt.Printf("metrics: snapshot written to %s\n", *metricsOut)
	}
}

func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "oracle: %v\n", err)
	os.Exit(1)
}
