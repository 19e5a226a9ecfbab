package bench

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 needs 1000 samples, a median 20.
const minTail = 10

// Percentile returns the nearest-rank percentile of sorted (ascending),
// given in per mille (500 = median, 990 = p99, 999 = p99.9). It refuses
// a percentile with fewer than minTail samples beyond it.
func Percentile(sorted []float64, permille int) (float64, error) {
	n := len(sorted)
	if permille <= 0 || permille >= 1000 {
		return 0, fmt.Errorf("bench: percentile %d‰ outside (0, 1000)", permille)
	}
	rank := (permille*n + 999) / 1000 // ceil(permille·n/1000), 1-based
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("bench: p%g of %d samples has %d beyond it, want >= %d",
			float64(permille)/10, n, n-rank, minTail)
	}
	return sorted[rank-1], nil
}

// Median returns the median of xs (the mean of the middle two for an
// even count), or NaN for none. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Spread returns (max−min)/median of xs: how far apart the rounds behind
// a reported median landed. It is 0 for a single value and NaN for none.
func Spread(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if hi == lo {
		return 0
	}
	return (hi - lo) / Median(xs)
}
