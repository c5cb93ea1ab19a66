package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (NaN when empty). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. NaN when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be reported at all.
const minBeyond = 10

// supportedPercentiles are the percentiles the benchmark may report,
// highest first.
var supportedPercentiles = []float64{99.9, 99, 95, 90, 50}

// highestPercentile returns the highest entry of supportedPercentiles
// that leaves at least minBeyond of n samples beyond it, or 0 when even
// the median is unsupported.
func highestPercentile(n int) float64 {
	for _, p := range supportedPercentiles {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// millis converts durations to float64 milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
