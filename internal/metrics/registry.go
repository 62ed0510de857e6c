package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a named collection of metrics: the node-wide metric plane
// every instrumented subsystem resolves its counters from, and the unit an
// exposition endpoint (WritePrometheus) serves. Metrics are created on
// first lookup; looking a name up twice returns the same instance, so
// layers wired to the same registry share series. Experiments use
// throwaway registries the same way.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	floatGauges map[string]*FloatGauge
	buckets     map[string]*BucketHistogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	bucketVecs  map[string]*BucketHistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		floatGauges: make(map[string]*FloatGauge),
		buckets:     make(map[string]*BucketHistogram),
		counterVecs: make(map[string]*CounterVec),
		gaugeVecs:   make(map[string]*GaugeVec),
		bucketVecs:  make(map[string]*BucketHistogramVec),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.floatGauges[name]
	if !ok {
		g = &FloatGauge{}
		r.floatGauges[name] = g
	}
	return g
}

// BucketHistogram returns the named bounded histogram, creating it with
// the given bucket bounds on first use. Later lookups return the existing
// histogram regardless of the bounds argument, so call sites can all pass
// their preferred layout without coordinating.
func (r *Registry) BucketHistogram(name string, bounds []float64) *BucketHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.buckets[name]
	if !ok {
		h = NewBucketHistogram(bounds)
		r.buckets[name] = h
	}
	return h
}

// CounterVec returns the named labeled counter family, creating it on
// first use with the given label names.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.counterVecs[name]
	if !ok {
		v = &CounterVec{v: newVec(name, append([]string(nil), labels...), func() *Counter { return &Counter{} })}
		r.counterVecs[name] = v
	}
	return v
}

// GaugeVec returns the named labeled gauge family, creating it on first
// use with the given label names.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gaugeVecs[name]
	if !ok {
		v = &GaugeVec{v: newVec(name, append([]string(nil), labels...), func() *Gauge { return &Gauge{} })}
		r.gaugeVecs[name] = v
	}
	return v
}

// BucketHistogramVec returns the named labeled histogram family, creating
// it on first use with the given bucket bounds and label names.
func (r *Registry) BucketHistogramVec(name string, bounds []float64, labels ...string) *BucketHistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.bucketVecs[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		v = &BucketHistogramVec{
			v:      newVec(name, append([]string(nil), labels...), func() *BucketHistogram { return NewBucketHistogram(b) }),
			bounds: b,
		}
		r.bucketVecs[name] = v
	}
	return v
}

// Snapshot renders every metric as "name=value" lines, sorted by name.
// Histograms contribute count, mean, and the p50/p95/max bucket-resolution
// quantiles an operator or experiment table reads off directly.
func (r *Registry) Snapshot() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s=%d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s=%d", name, g.Value()))
	}
	for name, g := range r.floatGauges {
		lines = append(lines, fmt.Sprintf("%s=%g", name, g.Value()))
	}
	addHist := func(name string, count int64, mean, p50, p95, max float64) {
		lines = append(lines, fmt.Sprintf("%s_count=%d", name, count))
		lines = append(lines, fmt.Sprintf("%s_mean=%.3f", name, mean))
		lines = append(lines, fmt.Sprintf("%s_p50=%.3f", name, p50))
		lines = append(lines, fmt.Sprintf("%s_p95=%.3f", name, p95))
		lines = append(lines, fmt.Sprintf("%s_max=%.3f", name, max))
	}
	for name, h := range r.buckets {
		addHist(name, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Max())
	}
	for name, v := range r.counterVecs {
		for key, c := range v.v.snapshot() {
			lines = append(lines, fmt.Sprintf("%s{%s}=%d", name, labelPairs(v.v.labels, key), c.Value()))
		}
	}
	for name, v := range r.gaugeVecs {
		for key, g := range v.v.snapshot() {
			lines = append(lines, fmt.Sprintf("%s{%s}=%d", name, labelPairs(v.v.labels, key), g.Value()))
		}
	}
	for name, v := range r.bucketVecs {
		for key, h := range v.v.snapshot() {
			base := fmt.Sprintf("%s{%s}", name, labelPairs(v.v.labels, key))
			addHist(base, h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Max())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// labelPairs renders `l1="v1",l2="v2"` from label names and a joined key.
func labelPairs(labels []string, key string) string {
	values := strings.Split(key, "\x1f")
	parts := make([]string, 0, len(labels))
	for i, l := range labels {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		parts = append(parts, fmt.Sprintf("%s=\"%s\"", l, escapeLabel(v)))
	}
	return strings.Join(parts, ",")
}
