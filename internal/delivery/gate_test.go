package delivery

import (
	"context"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

func TestGateBurstThenShed(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	g := NewGate(GateConfig{Clock: clk, Rate: 10, Burst: 3, Metrics: reg})

	for i := 0; i < 3; i++ {
		if _, ok := g.Admit(); !ok {
			t.Fatalf("burst request %d shed", i)
		}
	}
	retryAfter, ok := g.Admit()
	if ok {
		t.Fatal("request beyond the burst admitted")
	}
	// Empty bucket at 10 tokens/s: one token refills in exactly 100ms.
	if retryAfter != 100*time.Millisecond {
		t.Fatalf("retry-after = %v, want 100ms", retryAfter)
	}
	if got := g.Shed(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	if got := reg.Counter("delivery_shed_total").Value(); got != 1 {
		t.Fatalf("delivery_shed_total = %d, want 1", got)
	}
	if got := counterValue(reg, "shed_requests_total", "result", "admitted"); got != 3 {
		t.Fatalf("admitted = %d, want 3", got)
	}

	// The hint is honest: after exactly that long, one request fits.
	clk.Advance(retryAfter)
	if _, ok := g.Admit(); !ok {
		t.Fatal("request after the hinted refill shed")
	}
	if _, ok := g.Admit(); ok {
		t.Fatal("second request admitted on a single refilled token")
	}
}

func TestGateRefillCapsAtBurst(t *testing.T) {
	clk := clock.NewVirtual()
	g := NewGate(GateConfig{Clock: clk, Rate: 10, Burst: 2})
	clk.Advance(time.Hour) // long idle must not bank unlimited tokens
	admitted := 0
	for i := 0; i < 10; i++ {
		if _, ok := g.Admit(); ok {
			admitted++
		}
	}
	if admitted != 2 {
		t.Fatalf("admitted %d back-to-back, want the burst of 2", admitted)
	}
}

func TestGateMiddlewareShedsWithFault(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	g := NewGate(GateConfig{
		Clock:   clk,
		Rate:    10,
		Burst:   1,
		Metrics: reg,
		Exempt:  func(action string) bool { return action == "urn:control" },
	})
	var handled int
	h := soap.Chain(soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) {
		handled++
		return nil, nil
	}), g.Middleware())

	req := func(action string) *soap.Request {
		env := testEnv(t, "x")
		a := env.Addressing()
		a.Action = action
		if err := env.SetAddressing(a); err != nil {
			t.Fatal(err)
		}
		return &soap.Request{Envelope: env}
	}

	if _, err := h.HandleSOAP(context.Background(), req("urn:data")); err != nil {
		t.Fatalf("first request: %v", err)
	}
	_, err := h.HandleSOAP(context.Background(), req("urn:data"))
	if err == nil {
		t.Fatal("second request not shed")
	}
	hint, ok := soap.RetryAfterHint(err)
	if !ok || hint != 100*time.Millisecond {
		t.Fatalf("hint = (%v, %v), want (100ms, true)", hint, ok)
	}
	if soap.IsSenderFault(err) {
		t.Fatal("shed fault blames the sender")
	}

	// Control-plane actions bypass the empty bucket.
	if _, err := h.HandleSOAP(context.Background(), req("urn:control")); err != nil {
		t.Fatalf("exempt request shed: %v", err)
	}
	if handled != 2 {
		t.Fatalf("handled = %d, want 2", handled)
	}
	if got := counterValue(reg, "shed_requests_total", "result", "exempt"); got != 1 {
		t.Fatalf("exempt = %d, want 1", got)
	}
	if got := counterValue(reg, "shed_requests_total", "result", "shed"); got != 1 {
		t.Fatalf("shed results = %d, want 1", got)
	}
}

// syncBus delivers one-way sends synchronously and surfaces the handler's
// error to the sender — the behaviour of the HTTP binding, where a send is
// a POST and a fault comes back as the response status.
type syncBus struct{ handlers map[string]soap.Handler }

func (b *syncBus) route(ctx context.Context, to string, data []byte) (*soap.Envelope, error) {
	h, ok := b.handlers[to]
	if !ok {
		return nil, soap.ErrUnknownEndpoint
	}
	decoded, err := soap.Decode(data)
	if err != nil {
		return nil, err
	}
	return h.HandleSOAP(ctx, &soap.Request{Envelope: decoded, Remote: "syncbus"})
}

func (b *syncBus) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	data, err := env.Encode()
	if err != nil {
		return nil, err
	}
	return b.route(ctx, to, data)
}

func (b *syncBus) Send(ctx context.Context, to string, env *soap.Envelope) error {
	_, err := b.Call(ctx, to, env)
	return err
}

func (b *syncBus) SendEncoded(ctx context.Context, to string, data []byte) error {
	_, err := b.route(ctx, to, data)
	return err
}

// TestGatePlaneContract closes the loop: a plane sending into a gated
// handler sees the shed fault, defers, retries after the hint, and lands.
func TestGatePlaneContract(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	g := NewGate(GateConfig{Clock: clk, Rate: 10, Burst: 1, Metrics: reg})

	var delivered int
	bus := &syncBus{handlers: map[string]soap.Handler{
		"mem://recv": soap.Chain(soap.HandlerFunc(
			func(context.Context, *soap.Request) (*soap.Envelope, error) {
				delivered++
				return nil, nil
			}), g.Middleware()),
	}}

	p := NewPlane(testConfig(bus, clk, reg))
	if err := p.Send(context.Background(), "mem://recv", testEnv(t, "m1")); err != nil {
		t.Fatalf("send 1: %v", err)
	}
	if err := p.Send(context.Background(), "mem://recv", testEnv(t, "m2")); err != nil {
		t.Fatalf("send 2: %v (should be shed, deferred, and retried)", err)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 before the deferral elapses", delivered)
	}
	clk.Advance(100 * time.Millisecond)
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 after the deferral", delivered)
	}
	if got := reg.Counter("delivery_shed_total").Value(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	if got := reg.Counter("delivery_retries_total").Value(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := reg.Counter("delivery_deferrals_total").Value(); got != 1 {
		t.Fatalf("deferrals = %d, want 1", got)
	}
}
