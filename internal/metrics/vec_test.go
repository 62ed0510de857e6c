package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterVecIdentity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("forwarded_total", "protocol")
	push1 := v.With("push")
	push2 := v.With("push")
	if push1 != push2 {
		t.Fatal("same labels must return the same counter")
	}
	if v.With("pull") == push1 {
		t.Fatal("different labels must return different counters")
	}
	push1.Add(3)
	if got := v.With("push").Value(); got != 3 {
		t.Fatalf("push counter = %d, want 3", got)
	}
	// The registry hands back the same vector for the same name.
	if r.CounterVec("forwarded_total", "protocol") != v {
		t.Fatal("registry must return the same vector for the same name")
	}
}

func TestVecArityPanics(t *testing.T) {
	v := NewRegistry().CounterVec("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label arity mismatch")
		}
	}()
	v.With("only-one")
}

func TestGaugeVec(t *testing.T) {
	v := NewRegistry().GaugeVec("loop_period", "loop")
	v.With("pull").Set(5)
	v.With("repair").Set(9)
	if v.With("pull").Value() != 5 || v.With("repair").Value() != 9 {
		t.Fatal("gauge vec children mixed up")
	}
	if got := v.Labels(); len(got) != 1 || got[0] != "loop" {
		t.Fatalf("labels = %v", got)
	}
}

func TestBucketHistogramVecSharedBounds(t *testing.T) {
	v := NewRegistry().BucketHistogramVec("sz", []float64{1, 2}, "dir")
	v.With("in").Observe(1.5)
	v.With("out").Observe(0.5)
	bIn, cIn := v.With("in").Buckets()
	bOut, _ := v.With("out").Buckets()
	if len(bIn) != 2 || len(bOut) != 2 {
		t.Fatalf("children must share the vector bounds, got %v / %v", bIn, bOut)
	}
	if cIn[1] != 1 {
		t.Fatalf("in counts = %v", cIn)
	}
}

func TestVecConcurrentWith(t *testing.T) {
	v := NewRegistry().CounterVec("c", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				v.With("a").Inc()
				v.With("b").Inc()
			}
		}()
	}
	wg.Wait()
	if v.With("a").Value() != 4000 || v.With("b").Value() != 4000 {
		t.Fatalf("a=%d b=%d, want 4000 each", v.With("a").Value(), v.With("b").Value())
	}
}

func TestSnapshotIncludesQuantilesAndLabels(t *testing.T) {
	r := NewRegistry()
	h := r.BucketHistogram("lat", []float64{1, 2, 3, 4, 100})
	for _, v := range []float64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	r.BucketHistogram("sz", []float64{10, 100}).Observe(42)
	r.CounterVec("fwd", "protocol").With("push").Add(7)
	r.FloatGauge("mass_err").Set(0.25)
	snap := r.Snapshot()
	for _, want := range []string{
		"lat_count=5",
		"lat_p50=3.000",
		"lat_p95=100.000",
		"lat_max=100.000",
		"sz_p50=100.000",
		`fwd{protocol="push"}=7`,
		"mass_err=0.25",
	} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
}
