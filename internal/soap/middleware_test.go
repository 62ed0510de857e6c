package soap

import (
	"bytes"
	"context"
	"errors"
	"log"
	"strings"
	"testing"

	"wsgossip/internal/metrics"
	"wsgossip/internal/wsa"
)

func TestLoggingMiddleware(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	h := Chain(echoHandler(), LoggingMiddleware(logger))
	req := reqWithAction(t, "urn:logme")
	if _, err := h.HandleSOAP(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "urn:logme") {
		t.Fatalf("log output %q lacks the action", out)
	}
}

func TestLoggingMiddlewareError(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	failing := HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		return nil, NewFault(CodeReceiver, "down")
	})
	h := Chain(failing, LoggingMiddleware(logger))
	if _, err := h.HandleSOAP(context.Background(), reqWithAction(t, "urn:x")); err == nil {
		t.Fatal("error swallowed")
	}
	if !strings.Contains(buf.String(), "error") {
		t.Fatalf("log output %q lacks the error", buf.String())
	}
}

func TestMetricsMiddleware(t *testing.T) {
	reg := metrics.NewRegistry()
	okHandler := HandlerFunc(func(context.Context, *Request) (*Envelope, error) { return nil, nil })
	h := Chain(okHandler, MetricsMiddleware(reg))
	for i := 0; i < 3; i++ {
		if _, err := h.HandleSOAP(context.Background(), reqWithAction(t, "urn:x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("soap_requests").Value(); got != 3 {
		t.Fatalf("requests = %d", got)
	}
	if got := reg.Counter("soap_faults").Value(); got != 0 {
		t.Fatalf("faults = %d", got)
	}
	if got := reg.Histogram("soap_latency_ms").Count(); got != 3 {
		t.Fatalf("latency samples = %d", got)
	}
	failing := Chain(HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		return nil, errors.New("x")
	}), MetricsMiddleware(reg))
	_, _ = failing.HandleSOAP(context.Background(), reqWithAction(t, "urn:x"))
	if got := reg.Counter("soap_faults").Value(); got != 1 {
		t.Fatalf("faults = %d", got)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	panicking := HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		panic("boom")
	})
	reg := metrics.NewRegistry()
	h := Chain(panicking, RecoverMiddleware(reg))
	_, err := h.HandleSOAP(context.Background(), reqWithAction(t, "urn:x"))
	var f *Fault
	if !errors.As(err, &f) || f.Code.Value != CodeReceiver {
		t.Fatalf("err = %v, want a Receiver fault", err)
	}
	if !strings.Contains(f.Reason.Text, "boom") {
		t.Fatalf("fault reason = %q", f.Reason.Text)
	}
	if got := reg.Counter("soap_handler_panics_total").Value(); got != 1 {
		t.Fatalf("soap_handler_panics_total = %d, want 1", got)
	}
}

func TestRequireAddressing(t *testing.T) {
	okHandler := HandlerFunc(func(context.Context, *Request) (*Envelope, error) { return nil, nil })
	h := Chain(okHandler, RequireAddressing())
	// Valid request passes.
	if _, err := h.HandleSOAP(context.Background(), reqWithAction(t, "urn:x")); err != nil {
		t.Fatal(err)
	}
	// Missing action rejected.
	env := NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{To: "mem://svc"}); err != nil {
		t.Fatal(err)
	}
	bad := &Request{Envelope: env}
	_, err := h.HandleSOAP(context.Background(), bad)
	var f *Fault
	if !errors.As(err, &f) || f.Code.Value != CodeSender {
		t.Fatalf("err = %v, want sender fault", err)
	}
}
