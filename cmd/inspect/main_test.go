package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pathsep/internal/core"
	"pathsep/internal/embed"
	"pathsep/internal/graph"
	"pathsep/internal/oracle"
)

// buildImage freezes a small grid oracle and returns its encoding.
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

// TestInspectImagePathSections checks the section report of an image:
// one row per section of the layout Encode writes, with its record count
// and bytes, which with the 64-byte header and under 8 bytes of
// alignment per section add up to the image; and that a version-1 image
// is refused as unsupported.
func TestInspectImagePathSections(t *testing.T) {
	img := buildImage(t)
	fl, err := oracle.DecodeFlat(img)
	if err != nil {
		t.Fatal(err)
	}

	out := runInspect(t, img)
	rows := map[string][]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[3] == "B" {
			rows[f[0]] = f[1:3]
		}
	}
	sections := fl.Sections()
	total := 64
	for _, s := range sections {
		want := []string{strconv.Itoa(s.Records), strconv.Itoa(s.Bytes)}
		if got := rows[s.Name]; !slices.Equal(got, want) {
			t.Errorf("section %s: inspect reports %v, want records and bytes %v\n%s", s.Name, got, want, out)
		}
		total += s.Bytes
	}
	if len(rows) != len(sections) || rows["dists"] == nil || total > len(img) || len(img)-total >= 8*len(sections) {
		t.Errorf("inspect reports %d sections, image %d B, sections add up to %d B:\n%s", len(rows), len(img), total, out)
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

// TestInspectImageResidentRows checks the resident report of an image:
// one row per array Flat.ResidentArrays lists, in its order, whose bytes
// add up to ResidentBytes and to the total the resident line reports.
func TestInspectImageResidentRows(t *testing.T) {
	img := buildImage(t)
	fl, err := oracle.DecodeFlat(img)
	if err != nil {
		t.Fatal(err)
	}
	out := runInspect(t, img)
	var names []string
	sum, total := 0, -1
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 5 && f[2] == "B" && f[4] == "B/portal":
			b, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("resident row %q: %v", line, err)
			}
			names = append(names, f[0])
			sum += b
		case len(f) > 2 && f[0] == "resident" && f[2] == "B":
			if total, err = strconv.Atoi(f[1]); err != nil {
				t.Fatalf("resident line %q: %v", line, err)
			}
		}
	}
	var want []string
	for _, a := range fl.ResidentArrays() {
		want = append(want, a.Name)
	}
	if !slices.Equal(names, want) || sum != fl.ResidentBytes() || total != sum {
		t.Errorf("inspect reports resident rows %v adding up to %d B under a %d B total; want rows %v adding up to ResidentBytes %d:\n%s",
			names, sum, total, want, fl.ResidentBytes(), out)
	}
}

// TestInspectImageDominated checks the dominated-portal line of the
// report: the count Flat.DominatedPortals gives and its share of the
// image's portals.
func TestInspectImageDominated(t *testing.T) {
	img := buildImage(t)
	fl, err := oracle.DecodeFlat(img)
	if err != nil {
		t.Fatal(err)
	}
	out := runInspect(t, img)
	dom := fl.DominatedPortals()
	want := fmt.Sprintf("  dominated portals: %d (%.1f%%); ", dom, 100*float64(dom)/float64(fl.NumPortals()))
	if !strings.Contains(out, want) {
		t.Errorf("inspect report lacks %q:\n%s", want, out)
	}
}
