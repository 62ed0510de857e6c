package transport

import (
	"context"
	"errors"
)

// ErrUnreachable reports a send to an unknown or unreachable address.
var ErrUnreachable = errors.New("transport: unreachable")

// Message is one one-way protocol message. Request-response interactions are
// built from correlated one-way messages, which keeps the abstraction
// implementable by a single-threaded deterministic simulator.
type Message struct {
	// From is the sender address (filled in by the transport).
	From string
	// To is the destination address.
	To string
	// Action identifies the protocol operation (a URI in the SOAP binding).
	Action string
	// Body is the serialized payload.
	Body []byte
}

// Handler consumes inbound messages. Handlers may send further messages on
// the same transport from within the callback.
type Handler func(ctx context.Context, msg Message) error

// Endpoint is one node's attachment to a network: it can send one-way
// messages and receives inbound messages through its handler.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() string
	// Send transmits one message. Delivery is best-effort: the error only
	// reports local conditions (closed transport, unknown destination on
	// reliable fabrics), never remote processing failure.
	Send(ctx context.Context, msg Message) error
	// SetHandler installs the inbound-message handler. Must be called before
	// the first delivery.
	SetHandler(h Handler)
}
