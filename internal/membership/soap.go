package membership

import (
	"context"
	"encoding/xml"
	"sync"

	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
	"wsgossip/internal/wsa"
)

// SOAPEndpoint adapts the SOAP layer to transport.Endpoint so a membership
// Service rides the same fabric — MemBus, HTTP, or a test bus — as the
// WS-Gossip services it feeds. Each transport-level message travels as a
// one-way SOAP envelope whose WS-Addressing action is the membership action
// and whose body wraps the serialized view; the node's dispatcher routes
// inbound copies back through the installed transport handler.
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

// envelopeBody is the SOAP body wrapping one transport-level membership
// message. The serialized view (JSON) rides as escaped character data. The
// body is written and read by soap's flat-element codec (bodyBlock,
// scanBody); the struct is the encoding/xml fallback's target and the
// tests' oracle.
type envelopeBody struct {
	XMLName xml.Name `xml:"urn:wsgossip:membership Membership"`
	From    string   `xml:"From"`
	Data    string   `xml:"Data"`
}

// bodyNamespace is the membership body's XML namespace.
const bodyNamespace = "urn:wsgossip:membership"

var bodyName = xml.Name{Space: bodyNamespace, Local: "Membership"}

// bodyBlock writes the membership body, byte-identical to xml.Marshal of
// envelopeBody{From: from, Data: string(data)}.
func bodyBlock(from string, data []byte) soap.Block {
	// The view JSON is mostly quotes, each escaped to five bytes.
	buf := make([]byte, 0, 96+len(from)+2*len(data))
	buf = soap.AppendFlatOpen(buf, bodyNamespace, "Membership")
	buf = soap.AppendFlatText(buf, "From", from)
	buf = soap.AppendFlatText(buf, "Data", string(data))
	buf = soap.AppendFlatClose(buf, "Membership")
	return soap.Block{XMLName: bodyName, Raw: buf}
}

// scanBody reads a canonical membership body block; from and data are
// copies. ok=false sends the caller to encoding/xml.
func scanBody(raw []byte) (from string, data []byte, ok bool) {
	r, ok := soap.OpenFlat(raw, bodyNamespace, "Membership")
	if !ok {
		return "", nil, false
	}
	if from, ok = r.String("From"); !ok {
		return "", nil, false
	}
	text, ok := r.Text("Data")
	if !ok || !r.Close("Membership") {
		return "", nil, false
	}
	return from, []byte(text.String()), true
}

// bodyFrom decodes the membership body of env: the canonical form in place,
// anything else through encoding/xml.
func bodyFrom(env *soap.Envelope) (from string, data []byte, err error) {
	if len(env.Body.Blocks) > 0 {
		if from, data, ok := scanBody(env.Body.Blocks[0].Raw); ok {
			return from, data, nil
		}
	}
	var body envelopeBody
	err = env.DecodeBody(&body)
	return body.From, []byte(body.Data), err
}

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

// Send wraps msg in a one-way SOAP envelope and sends it through the caller.
func (e *SOAPEndpoint) Send(ctx context.Context, msg transport.Message) error {
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		To:        msg.To,
		Action:    msg.Action,
		MessageID: wsa.NewMessageID(),
	}); err != nil {
		return err
	}
	env.SetBodyBlock(bodyBlock(e.addr, msg.Body))
	return e.caller.Send(ctx, msg.To, env)
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
// handler. View exchanges are one-way gossip: handler errors are swallowed
// exactly as a lossy datagram fabric would.
func (e *SOAPEndpoint) handleSOAP(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	from, data, err := bodyFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed membership body: "+err.Error())
	}
	e.mu.Lock()
	h := e.handler
	e.mu.Unlock()
	if h == nil {
		return nil, nil
	}
	// Both decoders copied the data out of the (possibly pooled) request
	// buffer, so the handler may retain it freely.
	_ = h(ctx, transport.Message{
		From:   from,
		To:     e.addr,
		Action: req.Action(),
		Body:   data,
	})
	return nil, nil
}
