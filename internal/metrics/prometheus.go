package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every metric in the registry in the Prometheus
// text exposition format (version 0.0.4), the format a scrape of /metrics
// serves. Families are emitted in sorted name order with a # TYPE line
// each; histograms are rendered with cumulative le buckets. The writer
// holds the registry lock only to snapshot the metric tables, not while
// writing, so a slow scraper cannot stall metric creation.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := copyMap(r.counters)
	gauges := copyMap(r.gauges)
	floatGauges := copyMap(r.floatGauges)
	buckets := copyMap(r.buckets)
	counterVecs := copyMap(r.counterVecs)
	gaugeVecs := copyMap(r.gaugeVecs)
	bucketVecs := copyMap(r.bucketVecs)
	r.mu.Unlock()

	var b strings.Builder

	type family struct {
		name string
		emit func(b *strings.Builder)
	}
	var fams []family
	add := func(name string, emit func(b *strings.Builder)) {
		fams = append(fams, family{name, emit})
	}

	for name, c := range counters {
		name, c := sanitizeName(name), c
		add(name, func(b *strings.Builder) {
			fmt.Fprintf(b, "# TYPE %s counter\n%s %d\n", name, name, c.Value())
		})
	}
	for name, g := range gauges {
		name, g := sanitizeName(name), g
		add(name, func(b *strings.Builder) {
			fmt.Fprintf(b, "# TYPE %s gauge\n%s %d\n", name, name, g.Value())
		})
	}
	for name, g := range floatGauges {
		name, g := sanitizeName(name), g
		add(name, func(b *strings.Builder) {
			fmt.Fprintf(b, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(g.Value()))
		})
	}
	for name, h := range buckets {
		name, h := sanitizeName(name), h
		add(name, func(b *strings.Builder) {
			fmt.Fprintf(b, "# TYPE %s histogram\n", name)
			writeBuckets(b, name, "", h)
		})
	}
	for name, v := range counterVecs {
		name, v := sanitizeName(name), v
		add(name, func(b *strings.Builder) {
			fmt.Fprintf(b, "# TYPE %s counter\n", name)
			kids := v.v.snapshot()
			for _, key := range sortedKeys(kids) {
				fmt.Fprintf(b, "%s{%s} %d\n", name, labelPairs(v.v.labels, key), kids[key].Value())
			}
		})
	}
	for name, v := range gaugeVecs {
		name, v := sanitizeName(name), v
		add(name, func(b *strings.Builder) {
			fmt.Fprintf(b, "# TYPE %s gauge\n", name)
			kids := v.v.snapshot()
			for _, key := range sortedKeys(kids) {
				fmt.Fprintf(b, "%s{%s} %d\n", name, labelPairs(v.v.labels, key), kids[key].Value())
			}
		})
	}
	for name, v := range bucketVecs {
		name, v := sanitizeName(name), v
		add(name, func(b *strings.Builder) {
			fmt.Fprintf(b, "# TYPE %s histogram\n", name)
			kids := v.v.snapshot()
			for _, key := range sortedKeys(kids) {
				writeBuckets(b, name, labelPairs(v.v.labels, key), kids[key])
			}
		})
	}

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.emit(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeBuckets emits the cumulative le series plus _sum and _count for one
// bucket histogram, with extraLabels ("k=\"v\",...") merged into each line.
func writeBuckets(b *strings.Builder, name, extraLabels string, h *BucketHistogram) {
	bounds, counts := h.Buckets()
	join := func(le string) string {
		if extraLabels == "" {
			return fmt.Sprintf("le=%q", le)
		}
		return extraLabels + ",le=" + strconv.Quote(le)
	}
	var cum int64
	for i, bound := range bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket{%s} %d\n", name, join(formatFloat(bound)), cum)
	}
	cum += counts[len(counts)-1]
	fmt.Fprintf(b, "%s_bucket{%s} %d\n", name, join("+Inf"), cum)
	suffix := ""
	if extraLabels != "" {
		suffix = "{" + extraLabels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, cum)
}

// sanitizeName maps a registry name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], replacing anything else with '_'.
func sanitizeName(name string) string {
	ok := true
	for i := 0; i < len(name); i++ {
		if !isNameChar(name[i]) {
			ok = false
			break
		}
	}
	if ok {
		return name
	}
	out := []byte(name)
	for i, c := range out {
		if !isNameChar(c) {
			out[i] = '_'
		}
	}
	return string(out)
}

func isNameChar(c byte) bool {
	return c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// copyMap shallow-copies a metric table so exposition can walk it without
// holding the registry lock.
func copyMap[T any](m map[string]*T) map[string]*T {
	out := make(map[string]*T, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[T any](m map[string]*T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
