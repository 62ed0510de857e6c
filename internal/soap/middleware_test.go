package soap

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wsgossip/internal/metrics"
)

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
