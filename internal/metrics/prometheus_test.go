package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRegistry builds a registry with one of everything, with fixed
// values, so the exposition output is byte-for-byte reproducible.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("gossip_forwarded_total").Add(42)
	r.Gauge("membership_view_size").Set(8)
	r.FloatGauge("aggregate_mass_error").Set(0.125)
	h := r.BucketHistogram("fanout_latency_seconds", []float64{0.001, 0.01})
	for _, v := range []float64{0.001, 0.002, 0.004, 0.008, 0.1} {
		h.Observe(v)
	}
	b := r.BucketHistogram("envelope_bytes", []float64{256, 1024, 4096})
	for _, v := range []float64{100, 300, 2000, 9000} {
		b.Observe(v)
	}
	cv := r.CounterVec("deliveries_total", "protocol")
	cv.With("push").Add(30)
	cv.With("pull").Add(12)
	gv := r.GaugeVec("runner_backoff_level", "loop")
	gv.With("pull").Set(2)
	bv := r.BucketHistogramVec("tick_seconds", []float64{0.01, 0.1}, "loop")
	bv.With("pull").Observe(0.005)
	bv.With("pull").Observe(0.05)
	bv.With("repair").Observe(1.5)
	// A name and a label value that both need escaping.
	r.Counter("weird name").Inc()
	r.CounterVec("odd_labels", "path").With("a\"b\\c\nd").Inc()
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusShape(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gossip_forwarded_total counter\ngossip_forwarded_total 42\n",
		"# TYPE membership_view_size gauge\nmembership_view_size 8\n",
		"aggregate_mass_error 0.125\n",
		"# TYPE fanout_latency_seconds histogram\n",
		`fanout_latency_seconds_bucket{le="0.01"} 4`,
		"fanout_latency_seconds_count 5\n",
		`envelope_bytes_bucket{le="+Inf"} 4`,
		"envelope_bytes_count 4\n",
		`deliveries_total{protocol="push"} 30`,
		`tick_seconds_bucket{loop="pull",le="0.01"} 1`,
		`tick_seconds_count{loop="repair"} 1`,
		"weird_name 1\n", // sanitized metric name
		`odd_labels{path="a\"b\\c\nd"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: le="1024" includes le="256".
	if !strings.Contains(out, `envelope_bytes_bucket{le="256"} 1`) ||
		!strings.Contains(out, `envelope_bytes_bucket{le="1024"} 2`) {
		t.Fatalf("buckets not cumulative:\n%s", out)
	}
}

func TestConcurrentObserveQuantileWrite(t *testing.T) {
	// Writers, quantile readers, and exposition scrapers all at once;
	// run under -race this is the package's thread-safety proof.
	r := NewRegistry()
	b := r.BucketHistogram("b", DefLatencyBuckets)
	cv := r.CounterVec("c", "k")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				b.Observe(float64(j%13) * 1e-4)
				cv.With("a").Inc()
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				_ = b.Quantile(0.95)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := b.Count(); got != 2000 {
		t.Fatalf("histogram count = %d, want 2000", got)
	}
	if got := cv.With("a").Value(); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
}
