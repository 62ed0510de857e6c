package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// BucketHistogram is the bounded-memory histogram for production series:
// observations land in fixed buckets (typically exponential), so memory is
// O(buckets) regardless of how long the node runs. Observe is lock-free (one
// binary search plus three atomic adds), which keeps it safe on the gossip
// hot paths. Quantiles are bucket-resolution estimates: the reported value
// is the upper bound of the bucket holding the requested rank.
type BucketHistogram struct {
	bounds []float64 // sorted inclusive upper bounds; +Inf is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewBucketHistogram returns a histogram over the given sorted upper
// bounds. An implicit +Inf bucket catches observations above the last
// bound. Empty bounds yield a count/sum-only histogram.
func NewBucketHistogram(bounds []float64) *BucketHistogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &BucketHistogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
	}
}

// ExponentialBuckets returns n upper bounds starting at start and growing
// by factor: start, start·factor, start·factor², …. It panics if n < 1,
// start <= 0, or factor <= 1 — a misconfigured bucket layout is a
// programming error worth failing loudly on.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("metrics: ExponentialBuckets requires n >= 1, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBuckets spans 1µs to ~4s in ×4 steps — wide enough for both
// in-memory fan-outs and WAN round latencies, in seconds.
var DefLatencyBuckets = ExponentialBuckets(1e-6, 4, 12)

// DefSizeBuckets spans 64 B to ~16 MiB in ×4 steps, for envelope and
// payload sizes in bytes.
var DefSizeBuckets = ExponentialBuckets(64, 4, 10)

// Observe records one sample.
func (h *BucketHistogram) Observe(v float64) {
	// Binary search for the first bound >= v; equal values land in the
	// bucket whose bound they equal (Prometheus "le" semantics).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *BucketHistogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *BucketHistogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *BucketHistogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Buckets returns the upper bounds and the per-bucket (non-cumulative)
// counts; the final count is the implicit +Inf bucket. Under concurrent
// Observe the copy may straddle an in-flight observation.
func (h *BucketHistogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Quantile returns the upper bound of the bucket containing the
// q-quantile (0 ≤ q ≤ 1) — an over-estimate by at most one bucket width.
// Samples in the +Inf bucket report the largest finite bound (there is no
// better information), and an empty histogram reports 0.
func (h *BucketHistogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Max returns the upper bound of the highest non-empty bucket, or 0 with
// no samples.
func (h *BucketHistogram) Max() float64 { return h.Quantile(1) }
