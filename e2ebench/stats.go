package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: fewer, and the percentile is decided by a handful of
// outliers rather than by the distribution.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, refusing when fewer than minBeyond samples lie beyond that rank.
// xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s)))) // 1-based nearest rank
	if beyond := len(s) - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			q*100, len(s), beyond, minBeyond)
	}
	return s[rank-1], nil
}

// minSamplesFor is the smallest sample count whose q-quantile has
// minBeyond samples beyond it.
func minSamplesFor(q float64) int {
	n := minBeyond + 1
	for n-int(math.Ceil(q*float64(n))) < minBeyond {
		n++
	}
	return n
}

// median is the middle value of xs (the mean of the middle two for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
