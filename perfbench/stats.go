package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// quantile returns the nearest-rank q-quantile of samples (sorting them
// in place). It refuses a quantile with fewer than minTail samples
// beyond it, so a tail figure is never read off a handful of points.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d (measure longer)",
			100*q, n, beyond, minTail)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median is the middle of xs (the mean of the middle pair for even
// lengths). It copies xs, and is for small sets such as repeated
// set-up times, where the tail rule does not apply.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
