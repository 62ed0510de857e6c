package delivery

import (
	"context"
	"encoding/xml"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/testkit"
	"wsgossip/internal/wsa"
)

// Allocation-budget regression guard for the plane's attempt path, which
// every IHAVE, IWANT, digest, share, ack and probe of a node with a delivery
// plane takes. The budgets are committed in testdata/alloc_budget.json.

type allocBudget struct {
	SendEncodedMaxAllocs float64 `json:"send_encoded_max_allocs"`
	CallMaxAllocs        float64 `json:"call_max_allocs"`
	HTTPSendMaxAllocs    float64 `json:"http_send_encoded_max_allocs"`
}

func TestPlaneAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	reg := metrics.NewRegistry()
	p := NewPlane(testConfig(syncBinding{}, clock.NewVirtual(), reg))
	defer p.Close()
	ctx := context.Background()
	data := []byte("<x/>")
	env := soap.NewEnvelope()
	for _, row := range []struct {
		what   string
		budget float64
		op     func()
	}{
		{"SendEncoded", budget.SendEncodedMaxAllocs, func() {
			if err := p.SendEncoded(ctx, "urn:peer", data); err != nil {
				t.Fatal(err)
			}
		}},
		{"Call", budget.CallMaxAllocs, func() {
			if _, err := p.Call(ctx, "urn:peer", env); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		allocs := testing.AllocsPerRun(200, row.op)
		if allocs != row.budget {
			t.Errorf("%s = %.1f allocs/op, budget exactly %.0f (testdata/alloc_budget.json)", row.what, allocs, row.budget)
		}
		t.Logf("%s: %.1f allocs/op (budget %.0f)", row.what, allocs, row.budget)
	}
	if got := reg.Counter("delivery_attempts_total").Value(); got != 2*201 {
		t.Fatalf("attempts = %d, want %d", got, 2*201)
	}
}

// syncBinding is a synchronous binding that lands every message at once and
// never looks at its context.
type syncBinding struct{}

func (syncBinding) Send(context.Context, string, *soap.Envelope) error { return nil }
func (syncBinding) SendEncoded(context.Context, string, []byte) error  { return nil }
func (syncBinding) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}

// BenchmarkPlaneSendEncoded measures one SendEncoded that lands at once
// through a synchronous binding.
func BenchmarkPlaneSendEncoded(b *testing.B) {
	p := NewPlane(testConfig(syncBinding{}, clock.NewVirtual(), metrics.NewRegistry()))
	defer p.Close()
	ctx := context.Background()
	data := []byte("<x/>")
	b.ReportAllocs()
	for range b.N {
		if err := p.SendEncoded(ctx, "urn:peer", data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlaneOverHTTPAllocBudget: one one-way message through a plane on the
// wall clock, over soap.HTTPClient into a soap.HTTPServer, with a cancellable
// caller's context as a handler's r.Context() is, costs no more than its
// budget — both ends counted, since the server runs in this process. Beside
// the POST itself it is the attempt context's first Done: a
// context.WithCancel child of the caller's context and the AttemptTimeout
// timer.
func TestPlaneOverHTTPAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	send, stop := planeOverHTTP(t)
	defer stop()
	send() // open the connection outside the measurement
	allocs := testing.AllocsPerRun(200, send)
	if allocs > budget.HTTPSendMaxAllocs {
		t.Errorf("plane SendEncoded over HTTP = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			allocs, budget.HTTPSendMaxAllocs)
	}
	t.Logf("plane SendEncoded over HTTP: %.1f allocs/op (budget %.0f)", allocs, budget.HTTPSendMaxAllocs)
}

// BenchmarkPlaneOverHTTP measures one one-way message through a plane on the
// wall clock, over loopback HTTP.
func BenchmarkPlaneOverHTTP(b *testing.B) {
	send, stop := planeOverHTTP(b)
	defer stop()
	send() // open the connection outside the measurement
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		send()
	}
}

// planeOverHTTP returns one one-way exchange through a plane on clock.Real
// over loopback HTTP — a rendered, pooled 1 KiB envelope handed to the
// plane's SendEncoded with a cancellable context, posted by a soap.HTTPClient
// made as the deployments make theirs, read, decoded and handled by a
// soap.HTTPServer, answered 202 — and what stops it all.
func planeOverHTTP(tb testing.TB) (send func(), stop func()) {
	tb.Helper()
	srv := httptest.NewServer(soap.NewHTTPServer(soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) {
		return nil, nil
	})))
	client := soap.NewHTTPClient(&http.Client{Transport: srv.Client().Transport, Timeout: 10 * time.Second})
	p := NewPlane(testConfig(client, clock.NewReal(), metrics.NewRegistry()))
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{Action: "urn:bench:op", MessageID: "urn:uuid:planeoverhttp"}); err != nil {
		tb.Fatal(err)
	}
	if err := env.SetBody(struct {
		XMLName xml.Name `xml:"urn:bench Payload"`
		Data    string   `xml:"Data"`
	}{Data: strings.Repeat("x", 1<<10)}); err != nil {
		tb.Fatal(err)
	}
	tmpl, err := env.EncodeTemplate()
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return func() {
			if err := p.SendEncoded(ctx, srv.URL, tmpl.RenderTo(srv.URL)); err != nil {
				tb.Fatal(err)
			}
		}, func() {
			cancel()
			p.Close()
			srv.Close()
		}
}
