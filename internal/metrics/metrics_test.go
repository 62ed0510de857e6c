package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	g.Add(-2)
	if got := g.Value(); got != 40 {
		t.Fatalf("gauge = %d, want 40", got)
	}
}

// The histogram tests below hold the one histogram, BucketHistogram, to
// what an exact histogram would report wherever every sample sits on a
// bucket bound, and to order and bounds everywhere.

func TestHistogramBasics(t *testing.T) {
	h := NewBucketHistogram([]float64{1, 2, 3, 4, 5})
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 3 {
		t.Fatalf("mean = %v, want 3", got)
	}
	if got := h.Sum(); got != 15 {
		t.Fatalf("sum = %v, want 15", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("min = %v", got)
	}
	if got := h.Max(); got != 5 {
		t.Fatalf("max = %v", got)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	h := NewBucketHistogram([]float64{1, 5, 9})
	h.Observe(5)
	h.Observe(1)
	if got := h.Quantile(1); got != 5 {
		t.Fatalf("max = %v", got)
	}
	h.Observe(9)
	if got := h.Quantile(1); got != 9 {
		t.Fatalf("max after re-observe = %v, want 9", got)
	}
}

func TestHistogramQuantileProperty(t *testing.T) {
	bounds := ExponentialBuckets(1e-3, 2, 20)
	f := func(raw []float64) bool {
		h := NewBucketHistogram(bounds)
		largest := math.Inf(-1)
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				h.Observe(v)
				largest = math.Max(largest, v)
			}
		}
		if h.Count() == 0 {
			return h.Max() == 0
		}
		// Quantiles are bucket bounds, ordered, and the maximum is the
		// bound of the largest sample's bucket.
		q25, q50, q99 := h.Quantile(0.25), h.Quantile(0.5), h.Quantile(0.99)
		if q25 > q50 || q50 > q99 || q99 > h.Max() {
			return false
		}
		want := bounds[len(bounds)-1]
		if i := sort.SearchFloat64s(bounds, largest); i < len(bounds) {
			want = bounds[i]
		}
		return h.Max() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("sent").Add(3)
	if got := r.Counter("sent").Value(); got != 3 {
		t.Fatalf("counter reuse = %d, want 3", got)
	}
	r.Gauge("depth").Set(7)
	if got := r.Gauge("depth").Value(); got != 7 {
		t.Fatalf("gauge = %d", got)
	}
	r.BucketHistogram("lat", DefLatencyBuckets).Observe(1.5)
	if got := r.BucketHistogram("lat", nil).Count(); got != 1 {
		t.Fatalf("histogram count = %d", got)
	}
	snap := r.Snapshot()
	if snap == "" {
		t.Fatal("empty snapshot")
	}
}
