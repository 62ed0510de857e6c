package soap

import (
	"context"
	"fmt"
	"log"
	"time"

	"wsgossip/internal/metrics"
)

// Middleware utilities for the handler chain. The WS-Gossip layer is one
// middleware among others in a node's stack; these are the supporting ones a
// production deployment composes around it.

// LoggingMiddleware logs every exchange: action, message ID, duration, and
// outcome. A nil logger uses the standard logger.
func LoggingMiddleware(logger *log.Logger) Middleware {
	if logger == nil {
		logger = log.Default()
	}
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, req *Request) (*Envelope, error) {
			start := time.Now()
			resp, err := next.HandleSOAP(ctx, req)
			outcome := "ok"
			if err != nil {
				outcome = "error: " + err.Error()
			} else if resp == nil {
				outcome = "accepted"
			}
			a := req.Addressing()
			logger.Printf("soap %s msg=%s %v %s",
				a.Action, a.MessageID,
				time.Since(start).Round(time.Microsecond), outcome)
			return resp, err
		})
	}
}

// MetricsMiddleware counts exchanges and records latencies into the
// registry: soap_requests, soap_faults, and the soap_latency_ms histogram.
func MetricsMiddleware(reg *metrics.Registry) Middleware {
	requests := reg.Counter("soap_requests")
	faults := reg.Counter("soap_faults")
	latency := reg.Histogram("soap_latency_ms")
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, req *Request) (*Envelope, error) {
			start := time.Now()
			resp, err := next.HandleSOAP(ctx, req)
			requests.Inc()
			if err != nil {
				faults.Inc()
			}
			latency.Observe(float64(time.Since(start).Microseconds()) / 1000)
			return resp, err
		})
	}
}

// RecoverMiddleware converts handler panics into Receiver faults so one
// broken service cannot take down the node's whole endpoint, and counts
// them as soap_handler_panics_total in reg.
func RecoverMiddleware(reg *metrics.Registry) Middleware {
	panics := reg.Counter("soap_handler_panics_total")
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, req *Request) (resp *Envelope, err error) {
			defer func() {
				if r := recover(); r != nil {
					panics.Inc()
					resp = nil
					err = NewFault(CodeReceiver, fmt.Sprintf("handler panic: %v", r))
				}
			}()
			return next.HandleSOAP(ctx, req)
		})
	}
}

// RequireAddressing rejects requests whose mandatory WS-Addressing
// properties are missing, before they reach the application.
func RequireAddressing() Middleware {
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, req *Request) (*Envelope, error) {
			if err := req.Addressing().Validate(); err != nil {
				return nil, NewFault(CodeSender, err.Error())
			}
			return next.HandleSOAP(ctx, req)
		})
	}
}
