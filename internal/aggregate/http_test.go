package aggregate

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/soap"
)

// lateBound registers a SOAP handler after the server URL is known (role
// addresses are their public URLs).
type lateBound struct {
	mu sync.Mutex
	h  soap.Handler
}

func (l *lateBound) set(h soap.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.h = h
}

func (l *lateBound) HandleSOAP(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	l.mu.Lock()
	h := l.h
	l.mu.Unlock()
	if h == nil {
		return nil, soap.NewFault(soap.CodeReceiver, "handler not ready")
	}
	return h.HandleSOAP(ctx, req)
}

// TestAggregationOverRealHTTP runs a small aggregation over actual SOAP 1.2
// / HTTP servers: coordinator, eight services, one querier — the same wire
// path a distributed deployment uses.
func TestAggregationOverRealHTTP(t *testing.T) {
	client := soap.NewHTTPClient(&http.Client{Timeout: 5 * time.Second})
	clk := clock.NewVirtual()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	startServer := func() (*lateBound, string, func()) {
		lb := &lateBound{}
		srv := httptest.NewServer(soap.NewHTTPServer(lb))
		return lb, srv.URL + "/", srv.Close
	}

	coordLB, coordURL, closeCoord := startServer()
	defer closeCoord()
	coord := core.NewCoordinator(core.CoordinatorConfig{
		Address: coordURL,
		RNG:     rand.New(rand.NewSource(1)),
	})
	coordLB.set(coord.Handler())

	const n = 8
	values := make([]float64, n)
	services := make([]*Service, n)
	for i := 0; i < n; i++ {
		lb, url, closeSrv := startServer()
		defer closeSrv()
		values[i] = 10 * float64(i+1)
		v := values[i]
		svc, err := NewService(ServiceConfig{
			Address: url,
			Caller:  client,
			Value:   func() float64 { return v },
			RNG:     rand.New(rand.NewSource(int64(i) + 2)),
			Clock:   clk,
		})
		if err != nil {
			t.Fatalf("NewService: %v", err)
		}
		lb.set(svc.Handler())
		services[i] = svc
		if err := core.SubscribeClient(ctx, client, coordURL, url,
			core.RoleDisseminator, core.ProtocolAggregate); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
	}

	qLB, qURL, closeQ := startServer()
	defer closeQ()
	q, err := NewQuerier(QuerierConfig{
		Address:    qURL,
		Caller:     client,
		Activation: coordURL,
		RNG:        rand.New(rand.NewSource(77)),
		Clock:      clk,
	})
	if err != nil {
		t.Fatalf("NewQuerier: %v", err)
	}
	qLB.set(q.Handler())
	if err := core.SubscribeClient(ctx, client, coordURL, qURL,
		core.RoleDisseminator, core.ProtocolAggregate); err != nil {
		t.Fatalf("subscribe querier: %v", err)
	}

	tk, err := q.StartContinuous(ctx, "value", FuncAvg, clusterWindow)
	if err != nil {
		t.Fatalf("StartContinuous: %v", err)
	}
	var stable stability
	for r := 0; r < 60; r++ {
		for _, svc := range services {
			svc.Tick(ctx)
		}
		q.Tick(ctx)
		if stable.converged(q.Estimate(tk.ID)) {
			break
		}
	}

	truth := 0.0
	for _, v := range values {
		truth += v
	}
	truth /= float64(n)
	est, ok := q.Estimate(tk.ID)
	if !ok {
		t.Fatalf("querier has no defined estimate")
	}
	if relErr := math.Abs(est-truth) / truth; relErr > 0.01 {
		t.Fatalf("HTTP aggregation estimate %.4f vs truth %.4f: rel err %.4f > 1%%", est, truth, relErr)
	}
	for i, svc := range services {
		got, ok := svc.Estimate(tk.ID)
		if !ok || math.Abs(got-truth)/truth > 0.01 {
			t.Fatalf("service %d estimate %.4f (defined %v) vs truth %.4f over HTTP", i, got, ok, truth)
		}
	}
}
