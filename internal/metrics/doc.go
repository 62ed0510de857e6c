// Package metrics is the node-wide instrumentation plane: dependency-free
// counters, gauges, bucket histograms, labeled vectors, and a Registry with
// Prometheus text exposition. All types are safe for concurrent use and
// the hot-path write operations (Counter.Inc, Gauge.Set, FloatGauge.Set,
// BucketHistogram.Observe) are lock-free.
//
// There is one histogram, BucketHistogram: observations land in fixed
// (typically exponential) buckets, so memory stays O(buckets) over an
// unbounded run, and quantiles are bucket-resolution estimates. There is
// deliberately no exact histogram that keeps every sample: its memory would
// grow with every observation.
//
// CounterVec, GaugeVec, and BucketHistogramVec address children by an
// ordered tuple of label values (e.g. protocol={push,pull,aggregate}).
// With is identity-stable, so hot paths resolve their child once at
// construction and pay only one atomic op per event.
//
// Registry names the metrics of one node (or one simulated cluster):
// every instrumented layer resolves its series from the registry it is
// configured with, Snapshot renders a sorted human-readable dump with
// p50/p95/max for histograms, and WritePrometheus serves the text
// exposition format behind a /metrics endpoint.
package metrics
