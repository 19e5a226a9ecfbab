package bench

import (
	"math"
	"testing"
)

// seq returns 1..n.
func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		permille int
		want     float64 // 0: refused
	}{
		{"median of 20 has 10 beyond", 20, 500, 10},
		{"median of 19 has 9 beyond", 19, 500, 0},
		{"median of 21", 21, 500, 11},
		{"p99 of 1000", 1000, 990, 990},
		{"p99 of 999", 999, 990, 0},
		{"p99 of 2000", 2000, 990, 1980},
		{"p99.9 of 10000", 10000, 999, 9990},
		{"p99.9 of 9999", 9999, 999, 0},
		{"p90 of 101 rounds up", 101, 900, 91},
		{"empty", 0, 500, 0},
		{"zero permille", 100, 0, 0},
		{"full permille", 100, 1000, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Percentile(seq(tc.n), tc.permille)
			if tc.want == 0 {
				if err == nil {
					t.Fatalf("got %v, want refusal", got)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("got %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}

func TestMedianAndSpread(t *testing.T) {
	for _, tc := range []struct {
		name           string
		xs             []float64
		median, spread float64
	}{
		{"odd", []float64{3, 1, 2}, 2, 1},
		{"even takes the middle mean", []float64{4, 1, 3, 2}, 2.5, 3 / 2.5},
		{"single", []float64{7}, 7, 0},
		{"equal rounds", []float64{5, 5, 5, 5}, 5, 0},
		{"rounds", []float64{100, 110, 90, 105}, 102.5, 20 / 102.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := append([]float64(nil), tc.xs...)
			if m := Median(in); m != tc.median {
				t.Fatalf("Median = %v, want %v", m, tc.median)
			}
			if s := Spread(in); math.Abs(s-tc.spread) > 1e-12 {
				t.Fatalf("Spread = %v, want %v", s, tc.spread)
			}
			for i := range in {
				if in[i] != tc.xs[i] {
					t.Fatal("Median or Spread reordered its input")
				}
			}
		})
	}
	if !math.IsNaN(Median(nil)) || !math.IsNaN(Spread(nil)) {
		t.Fatal("Median and Spread of nothing must be NaN")
	}
}

func TestCheckSpans(t *testing.T) {
	ok := []Span{
		{ID: 1, Name: "setup", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.decompose", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "oracle.build", Start: 40, End: 90},
		{ID: 4, Name: "loadgen.request", Start: 95, End: 99},
	}
	if err := CheckSpans(ok); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(s []Span){
		"unknown parent":     func(s []Span) { s[1].Parent = 9 },
		"child escapes":      func(s []Span) { s[2].End = 120 },
		"negative self time": func(s []Span) { s[2].Start = 5; s[1].End = 60 },
		"ends before start":  func(s []Span) { s[3].End = 90 },
		"duplicate id":       func(s []Span) { s[3].ID = 2 },
	} {
		bad := append([]Span(nil), ok...)
		mutate(bad)
		if err := CheckSpans(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
