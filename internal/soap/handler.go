package soap

import (
	"context"
	"fmt"
	"sync"

	"wsgossip/internal/wsa"
)

// Request is an inbound SOAP message. A binding's one-way request is drawn
// from a pool with its envelope and goes back, zeroed, once the handler has
// returned (see Handler); a handler that keeps anything of it past that
// point clones it.
type Request struct {
	// Envelope is the full inbound envelope (headers and body).
	Envelope *Envelope
	// Remote is the transport-level sender address, when known.
	Remote string
}

// Addressing returns the WS-Addressing header properties, parsed lazily on
// first use: a delivery whose handler never consults them (or whose
// envelope already cached them) pays nothing. The parse is cached on the
// envelope, so the dispatcher, every middleware, and the handler share one.
func (r *Request) Addressing() wsa.Headers {
	if r.Envelope == nil {
		return wsa.Headers{}
	}
	return r.Envelope.Addressing()
}

// Action returns the request's WS-Addressing action (Envelope.Action): the
// one property routing needs, read without building the others.
func (r *Request) Action() string {
	if r.Envelope == nil {
		return ""
	}
	return r.Envelope.Action()
}

// Handler processes one SOAP request. A nil response envelope means the
// exchange is one-way (the HTTP binding answers 202 Accepted).
//
// Ownership: the request and its envelope — including every Block.Raw,
// which may alias a pooled transport buffer — are valid only until
// HandleSOAP returns: a one-way binding then recycles the request and its
// buffer. A handler that retains the envelope past that point must Clone it
// (Snapshot is not enough: it shares the captured bytes). Strings the
// envelope hands out are the handler's to keep.
type Handler interface {
	HandleSOAP(ctx context.Context, req *Request) (*Envelope, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, req *Request) (*Envelope, error)

var _ Handler = HandlerFunc(nil)

// HandleSOAP calls f.
func (f HandlerFunc) HandleSOAP(ctx context.Context, req *Request) (*Envelope, error) {
	return f(ctx, req)
}

// Middleware wraps a handler with additional behaviour. The paper's gossip
// layer is exactly such a middleware: it intercepts messages on their way to
// the application service and re-routes copies to selected peers.
type Middleware func(Handler) Handler

// Chain wraps h with the middlewares so the first listed runs outermost.
func Chain(h Handler, mws ...Middleware) Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// Dispatcher routes requests to handlers by WS-Addressing action URI. It is
// the per-node service registry used by both bindings.
type Dispatcher struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	fallback Handler
}

var _ Handler = (*Dispatcher)(nil)

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{handlers: make(map[string]Handler)}
}

// Register binds an action URI to a handler, replacing any previous binding.
func (d *Dispatcher) Register(action string, h Handler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handlers[action] = h
}

// SetFallback installs the handler used for unknown actions.
func (d *Dispatcher) SetFallback(h Handler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fallback = h
}

// Actions lists the registered action URIs.
func (d *Dispatcher) Actions() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.handlers))
	for a := range d.handlers {
		out = append(out, a)
	}
	return out
}

// HandleSOAP dispatches by the request's WS-Addressing action.
func (d *Dispatcher) HandleSOAP(ctx context.Context, req *Request) (*Envelope, error) {
	action := req.Action()
	d.mu.RLock()
	h, ok := d.handlers[action]
	fb := d.fallback
	d.mu.RUnlock()
	if !ok {
		if fb != nil {
			return fb.HandleSOAP(ctx, req)
		}
		return nil, NewFault(CodeSender, fmt.Sprintf("no handler for action %q", action))
	}
	return h.HandleSOAP(ctx, req)
}
