package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile
// for it to count as measured rather than as the sample maximum.
const minBeyond = 10

// percentile returns the p-th percentile of sorted (nearest rank) and
// whether at least minBeyond samples lie beyond it, which is the test
// for reporting it at all.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}
