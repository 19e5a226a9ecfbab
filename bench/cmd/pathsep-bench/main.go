// Command pathsep-bench is the repository's benchmark: it builds each
// workload's image, serves it with a freshly built
// cmd/pathsepd in its own process, drives the daemon over loopback with
// a closed-loop generator, checks the answers, and prints one
// "workload metric value unit spread samples" row per metric.
//
//	go run ./cmd/pathsep-bench -seed 1 -out rows.txt      (from bench/)
//	bash bench/run.sh --workload point --seed 1 --seconds 10 --trace 0
//
// With -workload the last line of output is a JSON object carrying the
// metrics BENCHMARK.json lists: end-to-end ones, or per-layer ones when
// -trace is on. -trace 1 writes the span file under .bench_build/;
// -trace FILE writes it to FILE. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pathsep/bench"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "point, route, bulk or reload (default: all four in turn)")
	seed := flag.Int64("seed", 1, "seed of the generated request pairs (the images are fixed)")
	seconds := flag.Int("seconds", 32, "measured seconds per workload, split into 4 rounds")
	trace := flag.String("trace", "0", "0 = off; 1 = on, spans under .bench_build/; anything else = span file")
	out := flag.String("out", "", "also write the metric rows to this file")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "pathsep-bench: -seconds must be at least 1")
		return 2
	}
	names := bench.Workloads
	if *workload != "" {
		names = []string{*workload}
	}

	root, err := bench.FindRoot()
	if err != nil {
		return fail(err)
	}
	manifest, err := bench.ReadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail(err)
	}
	daemon, err := bench.BuildDaemon(root, build)
	if err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)

	traced := *trace != "0" && *trace != ""
	spanFile := *trace
	if *trace == "1" {
		spanFile = filepath.Join(build, fmt.Sprintf("spans-%s-seed%d.json", strings.Join(names, "-"), *seed))
	}
	var rows []string
	var last *bench.Result
	spans := make(map[string][]bench.Span)
	failed := false
	for _, name := range names {
		res, err := bench.Run(bench.Config{
			Workload:  name,
			Seed:      *seed,
			Daemon:    daemon,
			WorkDir:   work,
			Warmup:    2 * time.Second,
			Rounds:    4,
			Round:     time.Duration(*seconds) * time.Second / 4,
			SetupTime: 8 * time.Second,
			Trace:     traced,
		})
		if err != nil {
			return fail(err)
		}
		for _, row := range res.Rows {
			fmt.Println(row)
			rows = append(rows, row.String())
		}
		spans[name] = res.Spans
		failed = failed || res.Failed > 0
		last = res
	}
	if traced {
		b, err := json.Marshal(spans)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(spanFile, b, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "pathsep-bench: spans written to %s\n", spanFile)
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			return fail(err)
		}
	}
	if *workload != "" {
		line, err := bench.ResultLine(manifest, last, traced)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		fmt.Fprintln(os.Stderr, "pathsep-bench: some requests failed or answered wrongly")
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "pathsep-bench: %v\n", err)
	return 1
}
