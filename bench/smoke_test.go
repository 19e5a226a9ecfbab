package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestManifestSync runs every workload against a real pathsepd on a
// 16×16 grid for one traced 1s round, and checks that the rows carry
// every metric BENCHMARK.json lists, in its unit, with no failures and
// a well-formed trace.
func TestManifestSync(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs pathsepd")
	}
	root, err := FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(Workloads, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, Workloads)
	}
	dir := t.TempDir()
	daemon, err := BuildDaemon(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Workloads {
		res, err := Run(Config{
			Workload: name, Seed: 7, Daemon: daemon, WorkDir: dir, Side: 16,
			Rounds: 1, Round: time.Second, Trace: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		printed := make(map[string]string) // metric -> unit, as printed
		for _, row := range res.Rows {
			f := strings.Fields(row.String())
			if len(f) != 6 || f[0] != name {
				t.Fatalf("%s: malformed row %q", name, row)
			}
			printed[f[1]] = f[3]
		}
		for _, mm := range append(append([]ManifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
			if unit, ok := printed[mm.Name]; !ok || unit != mm.Unit {
				t.Errorf("%s: %s printed in %q (present %v), BENCHMARK.json says %q", name, mm.Name, unit, ok, mm.Unit)
			}
		}
		for _, traced := range []bool{false, true} {
			if _, err := ResultLine(m, res, traced); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if res.Failed != 0 || res.Attempted == 0 || printed["fail_ratio"] == "" {
			t.Errorf("%s: %d of %d requests failed", name, res.Failed, res.Attempted)
		}
		if err := CheckSpans(res.Spans); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		seen := make(map[string]bool)
		for _, s := range res.Spans {
			seen[s.Name] = true
		}
		for _, want := range []string{"setup", "loadgen.request", "replay", "oracle.query", "serve.reload"} {
			if !seen[want] {
				t.Errorf("%s: no %s span", name, want)
			}
		}
	}
}
