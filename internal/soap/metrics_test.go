package soap

import (
	"strings"
	"testing"

	"wsgossip/internal/metrics"
)

func TestWireMetricsDecodeRungs(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)

	env := NewEnvelope()
	if err := env.SetBody(struct {
		XMLName struct{} `xml:"urn:test Ping"`
		N       int      `xml:"N"`
	}{N: 7}); err != nil {
		t.Fatal(err)
	}
	canonical, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(canonical); err != nil {
		t.Fatal(err)
	}
	rung := reg.CounterVec("soap_decode_total", "rung")
	if got := rung.With("scanner").Value(); got != 1 {
		t.Fatalf("scanner rung = %d, want 1 (snapshot:\n%s)", got, reg.Snapshot())
	}

	// Whatever the scanner declines lands on the one other rung: a prefixed
	// document, and a prefix-free one whose block inherits its namespace.
	prefixed := []byte(`<?xml version="1.0" encoding="UTF-8"?>` +
		`<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope">` +
		`<s:Body><p:Ping xmlns:p="urn:test"><N>7</N></p:Ping></s:Body></s:Envelope>`)
	inherited := []byte(`<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope">` +
		`<Body><Fault><Code/></Fault></Body></Envelope>`)
	for _, doc := range [][]byte{prefixed, inherited} {
		if _, err := Decode(doc); err != nil {
			t.Fatal(err)
		}
	}
	if got := rung.With("legacy").Value(); got != 2 {
		t.Fatalf("legacy rung = %d, want 2", got)
	}
	// Two rungs and no third: every decode is on one of them.
	if snap := reg.Snapshot(); strings.Count(snap, "soap_decode_total{") != 2 {
		t.Fatalf("soap_decode_total has other than two rung labels:\n%s", snap)
	}

	in := int64(len(canonical) + len(prefixed) + len(inherited))
	if got := reg.Counter("soap_bytes_in_total").Value(); got != in {
		t.Fatalf("bytes in = %d, want %d", got, in)
	}
	if got := reg.BucketHistogram("soap_envelope_bytes", nil).Count(); got != 3 {
		t.Fatalf("envelope size observations = %d, want 3", got)
	}
}

func TestWireMetricsBytesOutAndPool(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)

	env := NewEnvelope()
	// Big enough that the rendered buffer lands in a pooled size class
	// (>= 512 B) and can actually be recycled.
	if err := env.SetBody(struct {
		XMLName struct{} `xml:"urn:test Ping"`
		Pad     string   `xml:"Pad"`
	}{Pad: strings.Repeat("x", 2048)}); err != nil {
		t.Fatal(err)
	}
	tmpl, err := env.EncodeTemplate()
	if err != nil {
		t.Fatal(err)
	}
	out := tmpl.RenderTo("urn:peer-1")
	if got := reg.Counter("soap_bytes_out_total").Value(); got != int64(len(out)) {
		t.Fatalf("bytes out = %d, want %d", got, len(out))
	}
	putBytes(out)

	// A power-of-two size maps get and put onto the same class, so a
	// recycled buffer hits on the next get — except under the race
	// detector, where sync.Pool deliberately drops a random fraction of
	// puts and gets to flush out lifecycle bugs. Loop until a recycle
	// lands instead of asserting that the first one does.
	pool := reg.CounterVec("soap_pool_gets_total", "result")
	hitsBefore := pool.With("hit").Value()
	hit := false
	for attempt := 0; attempt < 100 && !hit; attempt++ {
		b := getBytes(1 << 12)
		putBytes(b[:0])
		hit = pool.With("hit").Value() > hitsBefore
	}
	if !hit {
		t.Fatalf("no pool hit in 100 put/get cycles (misses=%d)", pool.With("miss").Value())
	}
	// Every get was either a hit or a miss — no unrecorded outcomes.
	total := pool.With("hit").Value() + pool.With("miss").Value()
	if total == 0 {
		t.Fatal("no pool gets recorded at all")
	}
}

func TestWireMetricsUninstalledIsInert(t *testing.T) {
	InstallWireMetrics(nil)
	env := NewEnvelope()
	if err := env.SetBody(struct {
		XMLName struct{} `xml:"urn:test Ping"`
	}{}); err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
}

func TestWireMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	InstallWireMetrics(reg)
	defer InstallWireMetrics(nil)
	env := NewEnvelope()
	if err := env.SetBody(struct {
		XMLName struct{} `xml:"urn:test Ping"`
	}{}); err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"soap_decode_total", "soap_bytes_in_total", "soap_envelope_bytes_bucket"} {
		if !strings.Contains(sb.String(), family) {
			t.Fatalf("exposition missing %s:\n%s", family, sb.String())
		}
	}
}
