package soap

import (
	"context"
	"encoding/xml"

	"wsgossip/internal/wsa"
)

// Message is a one-way message the stack originates — a published
// notification, an announcement or a fetch, a digest, a push-sum exchange or
// its ack, a membership view, a probe — described by value, so that it is
// written, not built: the one wire writer puts the description straight into
// a pooled wire buffer, with no Envelope, no block buffer and no MessageID
// string in between, and hands it to SendEncoded. The wire bytes are those of an envelope built with
// NewEnvelope, SetAddressing (To, Action and MessageID), AddHeaderBlock for
// each Header block and SetBodyBlock (or a Body.Blocks list for more than one
// child), and then encoded, or fanned out, like any other. A Header or Body
// block the splice writer declines, which only a hand can build, is
// ErrNotSpliceable.
type Message struct {
	// To is the wsa:To property, written first; empty writes none. A fan-out
	// writes each target's To at the end of the header instead, and leaves
	// To empty.
	To string
	// Action is the wsa:Action property.
	Action string
	// ID is the wsa:MessageID property's text (wsa.AppendMessageID). It is
	// read during the call only.
	ID []byte
	// Header holds the header blocks written after the addressing
	// properties, in order.
	Header []Block
	// Body holds the body children written first, in order.
	Body []Block
	// Parts body children named Name follow Body's, each written by Write,
	// which appends child i to dst in its canonical form: an element that
	// declares its own default namespace (the flat-element writer's). Size
	// is their expected length in bytes, which sizes the wire buffer; a
	// longer write grows it.
	Name  xml.Name
	Parts int
	Size  int
	Write func(dst []byte, i int) []byte
}

// draft is m as the wire writer takes it. Like the envelope it describes, it
// has a Header element only when something goes in it.
func (m *Message) draft() draft {
	return draft{
		to: m.To, action: m.Action, id: m.ID, tail: m.Header, body: m.Body,
		parts: m.Parts, size: m.Size, write: m.Write,
		header: m.To != "" || m.Action != "" || len(m.ID) > 0 || len(m.Header) > 0,
	}
}

// Send writes m into one pooled buffer and hands it to caller with
// SendEncoded (the binding owns it once the send succeeds).
func (m *Message) Send(ctx context.Context, caller Caller, to string) error {
	d := m.draft()
	out, _, ok := d.encode(true)
	if !ok {
		return ErrNotSpliceable
	}
	countBytesOut(len(out))
	return caller.SendEncoded(ctx, to, out)
}

// Fanout writes m once and sends a copy to every target, each with its own
// wsa:To, as soap.Fanout does an envelope: the pooled template is rendered
// per target, and goes back to the pool after the last copy. m.To must be
// empty. It returns what soap.Fanout returns.
func (m *Message) Fanout(ctx context.Context, caller Caller, targets []string) (sent int, failed []string) {
	// Each copy's To goes in the header, and replaces any To block m.Header
	// holds, as Fanout's template does.
	d := m.draft()
	d.header, d.drop[0] = true, xml.Name{Space: wsa.Namespace, Local: "To"}
	return d.fanout(ctx, caller, targets)
}
