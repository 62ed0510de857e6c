package soap

import (
	"context"
	"errors"
	"testing"

	"wsgossip/internal/wsa"
)

func reqWithAction(t *testing.T, action string) *Request {
	t.Helper()
	env := NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{To: "mem://svc", Action: action}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(testBody{Value: "x"}); err != nil {
		t.Fatal(err)
	}
	return &Request{Envelope: env}
}

func TestDispatcherRoutes(t *testing.T) {
	d := NewDispatcher()
	var hit string
	d.Register("urn:a", HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		hit = "a"
		return nil, nil
	}))
	d.Register("urn:b", HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		hit = "b"
		return nil, nil
	}))
	if _, err := d.HandleSOAP(context.Background(), reqWithAction(t, "urn:b")); err != nil {
		t.Fatal(err)
	}
	if hit != "b" {
		t.Fatalf("hit = %q", hit)
	}
}

func TestDispatcherUnknownAction(t *testing.T) {
	d := NewDispatcher()
	_, err := d.HandleSOAP(context.Background(), reqWithAction(t, "urn:none"))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	if f.Code.Value != CodeSender {
		t.Fatalf("fault code = %q", f.Code.Value)
	}
}

func TestDispatcherFallback(t *testing.T) {
	d := NewDispatcher()
	called := false
	d.SetFallback(HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		called = true
		return nil, nil
	}))
	if _, err := d.HandleSOAP(context.Background(), reqWithAction(t, "urn:none")); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("fallback not invoked")
	}
}

func TestChainOrder(t *testing.T) {
	var order []string
	mk := func(name string) Middleware {
		return func(next Handler) Handler {
			return HandlerFunc(func(ctx context.Context, req *Request) (*Envelope, error) {
				order = append(order, name+"-in")
				resp, err := next.HandleSOAP(ctx, req)
				order = append(order, name+"-out")
				return resp, err
			})
		}
	}
	inner := HandlerFunc(func(context.Context, *Request) (*Envelope, error) {
		order = append(order, "app")
		return nil, nil
	})
	h := Chain(inner, mk("outer"), mk("inner"))
	if _, err := h.HandleSOAP(context.Background(), reqWithAction(t, "urn:x")); err != nil {
		t.Fatal(err)
	}
	want := []string{"outer-in", "inner-in", "app", "inner-out", "outer-out"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
