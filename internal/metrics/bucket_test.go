package metrics

import (
	"math"
	"sync"
	"testing"
)

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for _, bad := range []func(){
		func() { ExponentialBuckets(1, 2, 0) },
		func() { ExponentialBuckets(0, 2, 3) },
		func() { ExponentialBuckets(1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on invalid bucket layout")
				}
			}()
			bad()
		}()
	}
}

func TestBucketHistogramObserve(t *testing.T) {
	h := NewBucketHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-556.5) > 1e-9 {
		t.Fatalf("sum = %v, want 556.5", got)
	}
	_, counts := h.Buckets()
	want := []int64{2, 1, 1, 1} // le=1 gets both 0.5 and the boundary value 1
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestBucketHistogramQuantile(t *testing.T) {
	h := NewBucketHistogram([]float64{1, 10, 100})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for i := 0; i < 90; i++ {
		h.Observe(0.5) // le=1
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // le=100
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.95); got != 100 {
		t.Fatalf("p95 = %v, want 100", got)
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("max = %v, want 100", got)
	}
	// Samples above the last bound report the largest finite bound.
	h.Observe(1e9)
	if got := h.Max(); got != 100 {
		t.Fatalf("max with +Inf samples = %v, want 100", got)
	}
}

func TestBucketHistogramConcurrent(t *testing.T) {
	h := NewBucketHistogram(DefLatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(seed*j%17) * 1e-4)
				_ = h.Quantile(0.95)
				_ = h.Sum()
			}
		}(i + 1)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}
