package delivery

import (
	"context"
	"testing"

	"wsgossip/internal/clock"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/testkit"
)

// Allocation-budget regression guard for the plane's attempt path, which
// every IHAVE, IWANT, digest, share, ack and probe of a node with a delivery
// plane takes. The budgets are committed in testdata/alloc_budget.json.

type allocBudget struct {
	SendEncodedMaxAllocs float64 `json:"send_encoded_max_allocs"`
	CallMaxAllocs        float64 `json:"call_max_allocs"`
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
