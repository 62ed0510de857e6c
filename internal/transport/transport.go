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
//
// Ownership rule, the one the soap bindings keep too: Body is lent, never
// given. Endpoint.Send does not keep msg.Body after it returns, so a sender
// may reuse or rewrite its buffer as soon as Send is back; and a Handler's
// msg.Body is valid only during the call, so a handler copies whatever it
// keeps. A fabric that holds a message in flight holds its own copy.
type Message struct {
	// From is the sender address (filled in by the transport).
	From string
	// To is the destination address.
	To string
	// Action identifies the protocol operation (a URI in the SOAP binding).
	Action string
	// Body is the serialized payload, lent for the duration of one Send or
	// one Handler call.
	Body []byte
}

// Handler consumes inbound messages. Handlers may send further messages on
// the same transport from within the callback, msg.Body among them (Send
// copies it). msg.Body is valid only until the handler returns: the fabric
// reuses its buffer for a later message.
type Handler func(ctx context.Context, msg Message) error

// Endpoint is one node's attachment to a network: it can send one-way
// messages and receives inbound messages through its handler.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() string
	// Send transmits one message. Delivery is best-effort: the error only
	// reports local conditions (closed transport, unknown destination on
	// reliable fabrics), never remote processing failure. Send does not keep
	// msg.Body after it returns: what it delivers later, it copied first.
	Send(ctx context.Context, msg Message) error
	// SetHandler installs the inbound-message handler. Must be called before
	// the first delivery.
	SetHandler(h Handler)
}
