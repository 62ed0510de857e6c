package soap

import (
	"context"
	"fmt"

	"wsgossip/internal/metrics"
)

// Middleware utilities for the handler chain. The WS-Gossip layer is one
// middleware among others in a node's stack; these are the supporting ones a
// production deployment composes around it.

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
