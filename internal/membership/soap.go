package membership

import (
	"context"
	"sync"

	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
	"wsgossip/internal/wsa"
)

// SOAPEndpoint adapts the SOAP layer to transport.Endpoint so a membership
// Service rides the same fabric — MemBus, HTTP, or a test bus — as the
// WS-Gossip services it feeds. Each transport-level message travels as a
// one-way SOAP envelope whose WS-Addressing action is the membership action
// and whose body block is the message body the Service wrote (wire.go); the
// node's dispatcher routes inbound copies back through the installed
// transport handler.
//
// This is what promotes membership from an experiment-only transport toy to
// the runtime's live peer-view layer: the same endpoint address serves
// notifications, pulls, digests, AND view exchanges, so
// membership.Service's Alive addresses are directly usable as gossip
// fan-out targets (see core.PeerView).
type SOAPEndpoint struct {
	addr   string
	caller soap.Caller

	mu      sync.Mutex
	handler transport.Handler
}

var _ transport.Endpoint = (*SOAPEndpoint)(nil)

// NewSOAPEndpoint returns an endpoint sending via caller and identifying
// itself as addr (normally the node's SOAP endpoint address).
func NewSOAPEndpoint(addr string, caller soap.Caller) *SOAPEndpoint {
	return &SOAPEndpoint{addr: addr, caller: caller}
}

// Addr returns the endpoint address.
func (e *SOAPEndpoint) Addr() string { return e.addr }

// SetHandler installs the inbound-message handler.
func (e *SOAPEndpoint) SetHandler(h transport.Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Send sends msg as a one-way SOAP message through the caller: msg.To as its
// wsa:To, the membership action, a fresh message ID, and msg.Body — the
// membership body block the Service wrote — as its body, as it is, so one
// body serves every target of a round. The message is written straight into
// the binding's wire buffer (soap.Message).
func (e *SOAPEndpoint) Send(ctx context.Context, msg transport.Message) error {
	var id [wsa.MessageIDLen]byte
	m := soap.Message{
		To: msg.To, Action: msg.Action, ID: wsa.AppendMessageID(id[:0]),
		Body: []soap.Block{{XMLName: bodyName, Raw: msg.Body}},
	}
	return m.Send(ctx, e.caller, msg.To)
}

// RegisterActions installs the membership wire actions on the node's SOAP
// dispatcher, routing them into the transport handler the Service sets. Use
// it in place of Service.Register when the node's stack is SOAP-level.
func (e *SOAPEndpoint) RegisterActions(d *soap.Dispatcher) {
	h := soap.HandlerFunc(e.handleSOAP)
	d.Register(ActionExchange, h)
	d.Register(ActionLeave, h)
}

// handleSOAP unwraps one membership envelope and hands it to the transport
// handler with its sender, the From the body itself declares (SOAP carries no
// authenticated sender). A canonical body goes as it is, for the route's one
// walk to check; any other spelling is canonicalized first. A body no decoder
// can read — a JSON view from an older build included — is a Sender fault.
func (e *SOAPEndpoint) handleSOAP(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	var raw []byte
	if blocks := req.Envelope.Body.Blocks; len(blocks) > 0 {
		raw = blocks[0].Raw
	}
	// The body is the request's own (possibly pooled) buffer, or its rewrite,
	// and dies with the delivery; the handler reads it during the call only,
	// as transport.Handler's msg.Body.
	body := raw
	from, _, ok := openBody(raw)
	var err error
	if !ok {
		if body, _, err = canonicalBody(raw); err == nil {
			from, _, _ = openBody(body)
		}
	}
	e.mu.Lock()
	h := e.handler
	e.mu.Unlock()
	if err == nil && h != nil {
		err = h(ctx, transport.Message{From: from.Symbol(), To: e.addr, Action: req.Action(), Body: body})
	}
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed membership body: "+err.Error())
	}
	return nil, nil
}
