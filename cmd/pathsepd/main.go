// Command pathsepd serves a frozen flat distance oracle over HTTP: the
// oracle-as-a-service daemon of the pathsep library.
//
// Load a pre-built flat image, or build one from a graph edge list:
//
//	pathsepd -image oracle.flat -listen :9120
//	gengraph -family grid -n 4096 | pathsepd -graph - -eps 0.25 -mode portal
//
// Endpoints (see internal/serve):
//
//	GET  /query?u=&v=      one distance, JSON
//	GET  /query/path?u=&v= distance plus witness path, JSON
//	POST /query/batch      JSON batch
//	POST /query/batchbin   binary batch (LE uint32 pairs -> LE float64)
//	GET  /admin/status     image metadata, serving stats, slow queries
//	POST /admin/reload     swap in a new flat image without downtime
//	GET  /healthz          liveness
//	GET  /metrics          Prometheus text format
//	     /debug/vars, /debug/pprof/*
//
// The daemon drains gracefully on SIGINT/SIGTERM: the listener closes,
// in-flight requests finish (bounded by -drain), then the process exits.
// SIGHUP re-reads the -image file and swaps it in atomically; in-flight
// queries finish on the generation they started with. The image is
// decoded straight from the file, with no buffer of it.
//
// The daemon bounds its heap to the image it serves: a soft memory limit
// (runtime/debug.SetMemoryLimit) of the image's resident bytes plus a
// fixed headroom, lifted while a reload decodes its image beside the
// serving one. A GOMEMLIMIT in the environment takes its place.
//
// bench/run.sh (see bench/README.md) builds this daemon, serves each
// workload's image from it and drives it over loopback; make bench-serve
// runs it as the serving gate.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"pathsep/internal/core"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
	"pathsep/internal/serve"
)

func main() {
	listen := flag.String("listen", ":9120", "address to serve on")
	image := flag.String("image", "", "flat oracle image to load (from FlatOracle.Encode / -save-image)")
	graphIn := flag.String("graph", "", "build the oracle from this edge-list file instead (\"-\" = stdin)")
	eps := flag.Float64("eps", 0.25, "epsilon of the (1+eps) approximation (with -graph)")
	mode := flag.String("mode", "portal", "exact|portal (with -graph)")
	workers := flag.Int("workers", 0, "worker pool width for build and batch queries (0 = GOMAXPROCS)")
	saveImage := flag.String("save-image", "", "after building from -graph, also write the flat image here")
	slowN := flag.Int("slow", 16, "slow-query exemplars to retain for /admin/status (0 disables)")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "max pairs per batch request")
	drain := flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM")
	flag.Parse()

	if (*image == "") == (*graphIn == "") {
		fmt.Fprintln(os.Stderr, "pathsepd: exactly one of -image or -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	if !(*eps > 0) || math.IsInf(*eps, 1) {
		fmt.Fprintf(os.Stderr, "pathsepd: -eps must be a positive finite number, got %v\n", *eps)
		os.Exit(2)
	}
	if *maxBatch <= 0 {
		fmt.Fprintf(os.Stderr, "pathsepd: -max-batch must be positive, got %d\n", *maxBatch)
		os.Exit(2)
	}
	if *image != "" {
		// Fail the bad path before building anything: a typo'd image path
		// should be a crisp usage error, not a late decode failure.
		if f, err := os.Open(*image); err != nil {
			fmt.Fprintf(os.Stderr, "pathsepd: -image: %v\n", err)
			os.Exit(2)
		} else {
			f.Close()
		}
	}

	fl, source, err := loadFlat(*image, *graphIn, *eps, *mode, *workers, *saveImage)
	if err != nil {
		fail(err)
	}
	// Collect once before serving: the load's garbage (the image file,
	// or the whole build) is dead now, and the next heap goal is set from
	// what the last collection found live. Without this the goal is twice
	// whatever the load's last automatic cycle happened to find live,
	// which can be most of the load's transient, rather than twice the
	// serving image.
	runtime.GC()
	var bound func(resident int)
	if os.Getenv("GOMEMLIMIT") == "" {
		bound = boundHeap
		bound(fl.ResidentBytes())
	}
	fmt.Printf("pathsepd: image %s: n=%d eps=%g mode=%s (%d keys, %d entries, %d portals, %d bytes, %d resident); heap bound %d bytes\n",
		source, fl.N(), fl.Eps(), fl.Mode(), fl.NumKeys(), fl.NumEntries(), fl.NumPortals(), fl.EncodedSize(), fl.ResidentBytes(), debug.SetMemoryLimit(-1))

	var slow *obs.SlowQuerySampler
	if *slowN > 0 {
		slow = obs.NewSlowQuerySampler(*slowN)
	}
	srv, err := serve.New(serve.Config{
		Flat:      fl,
		Reg:       obs.New(),
		Slow:      slow,
		Workers:   *workers,
		MaxBatch:  *maxBatch,
		Source:    source,
		HeapBound: bound,
	})
	if err != nil {
		fail(err)
	}

	addr, err := srv.Start(*listen)
	if err != nil {
		fail(err)
	}
	fmt.Printf("pathsepd: serving on %s\n", addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	// SIGHUP re-reads -image and swaps it in without dropping traffic.
	// Handled here in main (no extra goroutine): reloads are rare and the
	// daemon has nothing else to do but wait for signals.
wait:
	for {
		select {
		case <-ctx.Done():
			break wait
		case <-hup:
			if *image == "" {
				fmt.Fprintln(os.Stderr, "pathsepd: SIGHUP ignored: serving a -graph build, no image file to reload")
				continue
			}
			res, err := srv.ReloadFromFile(*image)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pathsepd: %v\n", err)
				continue
			}
			fmt.Printf("pathsepd: reloaded %s: generation %d (n=%d, %d bytes, load %s, derive %s, flip %s, drain %s, drained=%v)\n",
				*image, res.Generation, res.N, res.Bytes, time.Duration(res.LoadNs), time.Duration(res.DeriveNs),
				time.Duration(res.FlipNs), time.Duration(res.DrainNs), res.Drained)
		}
	}
	stop()
	fmt.Println("pathsepd: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fail(fmt.Errorf("drain: %w", err))
	}
	fmt.Println("pathsepd: done")
}

// heapHeadroom is what the heap bound allows beyond the resident bytes
// of the serving image. Under 10 s of batch load on the 128×128 bench
// image, with 8 MiB the collector ran back to back (1,373 collections,
// and under half the batches), with 16 MiB 3 times.
const heapHeadroom = 16 << 20

// boundHeap sets the soft memory limit to resident + heapHeadroom, or
// lifts it for a resident of 0 (see serve.Config.HeapBound).
func boundHeap(resident int) {
	limit := int64(math.MaxInt64)
	if resident > 0 {
		limit = int64(resident) + heapHeadroom
	}
	debug.SetMemoryLimit(limit)
}

// loadFlat produces the serving image: decoded from a file, or built from
// an edge list and frozen.
func loadFlat(image, graphIn string, eps float64, mode string, workers int, saveImage string) (*oracle.Flat, string, error) {
	if image != "" {
		fl, err := oracle.DecodeFlatFile(image)
		if err != nil {
			return nil, "", fmt.Errorf("decode %s: %w", image, err)
		}
		return fl, "file:" + image, nil
	}

	var m oracle.Mode
	switch mode {
	case "exact":
		m = oracle.CoverExact
	case "portal":
		m = oracle.CoverPortal
	default:
		return nil, "", fmt.Errorf("unknown -mode %q (want exact|portal)", mode)
	}
	var r io.Reader = os.Stdin
	source := "graph:stdin"
	if graphIn != "-" {
		f, err := os.Open(graphIn)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		r = f
		source = "graph:" + graphIn
	}
	g, err := graph.Read(r)
	if err != nil {
		return nil, "", err
	}
	dec, err := core.Decompose(g, core.Options{Strategy: core.Auto{}, Workers: workers})
	if err != nil {
		return nil, "", err
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: eps, Mode: m, Workers: workers})
	if err != nil {
		return nil, "", err
	}
	fl, err := o.Freeze()
	if err != nil {
		return nil, "", err
	}
	if saveImage != "" {
		if err := os.WriteFile(saveImage, fl.Encode(), 0o644); err != nil {
			return nil, "", fmt.Errorf("save image: %w", err)
		}
		fmt.Printf("pathsepd: wrote flat image to %s\n", saveImage)
	}
	return fl, source, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pathsepd: %v\n", err)
	os.Exit(1)
}
