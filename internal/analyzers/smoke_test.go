package analyzers_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"pathsep/internal/analyzers"
)

// TestAll checks the suite is stable: the exact registered count (so a
// dropped registration fails loudly, not silently), unique names, docs
// set. Bump the count when registering a new analyzer.
func TestAll(t *testing.T) {
	all := analyzers.All()
	if len(all) != 10 {
		t.Fatalf("All() returned %d analyzers, want exactly 10", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %q missing name or doc", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestTestdataDrift asserts every analyzer in All() ships want-coverage:
// a testdata/src tree next to its source. A new analyzer registered
// without testdata silently runs untested; this is the drift check CI's
// analyzer-testdata step leans on.
func TestTestdataDrift(t *testing.T) {
	// ssaflow is infrastructure (reports nothing) and is not in All();
	// its own test pins its facts through a test-only reporting analyzer
	// on ssaflow/testdata. Everything in All() must carry testdata.
	for _, a := range analyzers.All() {
		dir := filepath.Join(a.Name, "testdata", "src")
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			t.Errorf("analyzer %q has no want-coverage: %s missing", a.Name, dir)
		}
	}
}

// TestVettoolSmoke builds cmd/pathsep-lint and runs it over the whole
// module via go vet, asserting it exits clean (no findings, no crash).
func TestVettoolSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping vettool build in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "pathsep-lint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/pathsep-lint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	// Isolate from any GOFLAGS the environment sets.
	vet.Env = append(os.Environ(), "GOFLAGS=-mod=vendor")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool exited non-zero: %v\n%s", err, out)
	}
}
