// Serving benchmark gate: stand up the pathsepd engine in-process, drive
// it with the self-load client, and record QPS + latency percentiles in
// .bench_build/BENCH_serve.json.
//
// TestServeBenchGate (run with BENCH_SERVE_GATE=1, wired into make check
// via the bench-serve target) asserts the daemon actually answers load:
// nonzero single-query QPS, nonzero batched throughput, a recorded p99,
// and no request errors. The latency ceiling is deliberately generous
// (p99 < 250ms on a 64x64 grid) — it catches pathological regressions
// such as a lock on the query path, not machine-to-machine noise.
package pathsep_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/obs"
	"pathsep/internal/oracle"
	"pathsep/internal/serve"
)

func TestServeBenchGate(t *testing.T) {
	if os.Getenv("BENCH_SERVE_GATE") != "1" {
		t.Skip("set BENCH_SERVE_GATE=1 to run the serving benchmark gate")
	}

	rng := rand.New(rand.NewSource(23))
	r := embed.Grid(64, 64, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.25, Mode: oracle.CoverPortal})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}

	s, err := serve.New(serve.Config{
		Flat:   fl,
		Slow:   obs.NewSlowQuerySampler(16),
		Source: "bench:grid64",
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	// Six image swaps fire mid-load (the same image re-posted: a full
	// decode + flip + drain each time), so BENCH_serve.json also records
	// what a zero-downtime reload costs under traffic.
	res, err := serve.LoadBenchReload("http://"+addr.String(), fl.N(), 2*time.Second, 4, 1024, 23, fl.Encode(), 6)
	if err != nil {
		t.Fatal(err)
	}

	f, err := createBenchJSON("BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	reloadP99 := int64(0)
	if res.ReloadP99Ns != nil {
		reloadP99 = *res.ReloadP99Ns
	}
	t.Logf("wrote BENCH_serve.json: qps=%.0f p50=%dns p99=%dns batch=%.0f pairs/s errors=%d reloads=%d reload_p99=%dns",
		res.QPS, res.P50Ns, res.P99Ns, res.BatchQPS, res.Errors, res.Reloads, reloadP99)

	if res.Errors != 0 {
		t.Fatalf("self-load produced %d request errors", res.Errors)
	}
	if res.Reloads < 1 || res.ReloadErrors != 0 {
		t.Fatalf("mid-load reloads: %d succeeded, %d failed; want >=1 and 0", res.Reloads, res.ReloadErrors)
	}
	if res.ReloadP50Ns == nil || res.ReloadP99Ns == nil || res.ReloadMaxNs == nil {
		t.Fatal("reload percentiles missing despite successful reloads")
	}
	if res.Requests == 0 || res.QPS <= 0 {
		t.Fatalf("single-query phase served no traffic: %+v", res)
	}
	if res.BatchPairs == 0 || res.BatchQPS <= 0 {
		t.Fatalf("batch phase served no traffic: %+v", res)
	}
	if res.P99Ns <= 0 || res.P99Ns > int64(250*time.Millisecond) {
		t.Fatalf("p99 latency %dns outside (0, 250ms]", res.P99Ns)
	}
}
