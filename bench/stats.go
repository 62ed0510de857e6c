package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of vals by the nearest-rank rule
// (ceil(q*n)-th smallest); 0 for an empty sample. vals is not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), q)]
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// median is the mean of the two middle values for even samples, so that
// it agrees with Python's statistics.median, which the driver uses.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), so -aa reports
// the spread the driver will compute.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		delta := k*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// batch is one equal-work slice of a measured phase.
type batch struct {
	wallNs, cpuNs float64
}

// robustTotals returns the measured phase's wall and CPU time with
// outlier batches discounted: the median batch time times the number of
// batches (noise rule 3). Counts are never treated this way; they are
// exact totals.
func robustTotals(bs []batch) (wallNs, cpuNs float64) {
	wall := make([]float64, len(bs))
	cpu := make([]float64, len(bs))
	for i, b := range bs {
		wall[i], cpu[i] = b.wallNs, b.cpuNs
	}
	n := float64(len(bs))
	return median(wall) * n, median(cpu) * n
}

// t90 returns the time by which ceil(0.9*n) of a notification's n
// subscribers had it, given the latencies of those that got it at all;
// ok is false when fewer than that were reached.
func t90(latencies []float64, n int) (v float64, ok bool) {
	need := int(math.Ceil(0.9 * float64(n)))
	if need < 1 || len(latencies) < need {
		return 0, false
	}
	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	return sorted[need-1], true
}
