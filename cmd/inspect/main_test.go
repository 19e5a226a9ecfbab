package main

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
)

// buildImage freezes a small grid oracle and returns its v2 encoding.
func buildImage(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	r := embed.Grid(8, 8, graph.UniformWeights(1, 4), rng)
	dec, err := core.Decompose(r.G, core.Options{Strategy: core.Auto{}, Rot: r})
	if err != nil {
		t.Fatal(err)
	}
	o, err := oracle.Build(dec, oracle.Options{Epsilon: 0.5, Mode: oracle.CoverPortal})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := o.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return fl.Encode()
}

// runInspect captures inspectImage's stdout for one image file.
func runInspect(t *testing.T, img []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "image.bin")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	rd, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = wr
	inspectErr := inspectImage(path)
	os.Stdout = saved
	wr.Close()
	out, _ := io.ReadAll(rd)
	rd.Close()
	if inspectErr != nil {
		t.Fatalf("inspectImage: %v\n%s", inspectErr, out)
	}
	return string(out)
}

// TestInspectImagePathSections checks the path-section report of an
// image, and that a version-1 image is refused as unsupported.
func TestInspectImagePathSections(t *testing.T) {
	img := buildImage(t)

	out := runInspect(t, img)
	if !strings.Contains(out, "path sections (wire v2): hops=") {
		t.Errorf("inspect missing path-section sizes:\n%s", out)
	}

	img[1] = 1
	path := filepath.Join(t.TempDir(), "v1.bin")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := inspectImage(path); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("version-1 image: err = %v, want unsupported version", err)
	}
}
