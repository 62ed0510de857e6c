package delivery

import (
	"context"
	"sync"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// GateConfig parameterizes an admission Gate.
type GateConfig struct {
	// Clock supplies the refill timebase; clock.Virtual makes shedding
	// deterministic in tests.
	Clock clock.Clock
	// Rate is the steady-state admission rate in requests per second.
	// Default 100.
	Rate float64
	// Burst is the bucket depth: how many requests may land back-to-back
	// after an idle stretch. Default max(1, Rate).
	Burst int
	// Exempt, when set, bypasses the gate for the given WS-Addressing
	// action — control-plane exchanges (membership, coordination) usually
	// should not be shed.
	Exempt func(action string) bool
	// Metrics receives delivery_shed_total and shed_requests_total{result};
	// nil means unobserved.
	Metrics *metrics.Registry
}

// Gate is a token-bucket admission controller for the inbound SOAP path:
// the receiver-side half of the overload contract. Requests beyond the
// configured rate are refused with a Receiver fault carrying a retry-after
// hint (soap.NewOverloadedFault) — the HTTP binding maps it to 503 +
// Retry-After, and a sending Plane honors it by deferring that peer's
// queue. Shedding early, before decode-heavy handler work, is what lets a
// saturated node degrade into pacing its senders instead of collapsing.
type Gate struct {
	cfg GateConfig
	m   *gateMetrics

	mu     sync.Mutex
	tokens float64
	last   time.Duration
}

// NewGate builds a gate with a full bucket.
func NewGate(cfg GateConfig) *Gate {
	if cfg.Clock == nil {
		panic("delivery: GateConfig.Clock is required")
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 100
	}
	if cfg.Burst <= 0 {
		cfg.Burst = int(cfg.Rate)
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &Gate{
		cfg:    cfg,
		m:      newGateMetrics(cfg.Metrics),
		tokens: float64(cfg.Burst),
		last:   cfg.Clock.Now(),
	}
}

// Admit consumes one token if available. When the bucket is empty it
// returns false and the duration after which one token will have
// refilled — the retry-after hint to send back.
func (g *Gate) Admit() (retryAfter time.Duration, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.cfg.Clock.Now()
	if now > g.last {
		g.tokens += (now - g.last).Seconds() * g.cfg.Rate
		if max := float64(g.cfg.Burst); g.tokens > max {
			g.tokens = max
		}
		g.last = now
	}
	if g.tokens >= 1 {
		g.tokens--
		g.m.admitted.Inc()
		return 0, true
	}
	deficit := 1 - g.tokens
	retryAfter = time.Duration(deficit / g.cfg.Rate * float64(time.Second))
	g.m.shed.Inc()
	g.m.refused.Inc()
	return retryAfter, false
}

// Shed returns the number of requests refused so far (the
// delivery_shed_total counter).
func (g *Gate) Shed() int64 { return g.m.shed.Value() }

// Middleware exposes the gate as a soap.Middleware: wrap a node's
// dispatcher (or a single handler) and every non-exempt request pays one
// token or is shed with the retry-after fault.
func (g *Gate) Middleware() soap.Middleware {
	return func(next soap.Handler) soap.Handler {
		return soap.HandlerFunc(func(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
			if g.cfg.Exempt != nil && g.cfg.Exempt(req.Action()) {
				g.m.exempt.Inc()
				return next.HandleSOAP(ctx, req)
			}
			if retryAfter, ok := g.Admit(); !ok {
				return nil, soap.NewOverloadedFault("admission rate exceeded", retryAfter)
			}
			return next.HandleSOAP(ctx, req)
		})
	}
}
