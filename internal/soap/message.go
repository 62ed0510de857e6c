package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"strings"

	"wsgossip/internal/wsa"
)

// Message is a one-way message the stack originates — an announcement or a
// fetch, a digest, a push-sum exchange or its ack, a membership view, a
// probe — described by value, so that it is written, not built: on a binding
// with SendEncoded the writer puts the description straight into a pooled
// wire buffer, with no Envelope, no block buffer and no MessageID string in
// between. The wire bytes are those of an envelope built with NewEnvelope,
// SetAddressing (To, Action and MessageID), AddHeaderBlock for each Header
// block and SetBodyBlock (or a Body.Blocks list for more than one child), and
// then sent, or fanned out, like any other.
//
// A Header or Body block blockSplice declines (one captured from a prefixed
// document, say) takes the slow path: that envelope is built as just
// described and handed to Send or Fanout.
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
// SendEncoded (the binding owns it once the send succeeds); a declined block
// sends the envelope m describes through Send.
func (m *Message) Send(ctx context.Context, caller Caller, to string) error {
	d := m.draft()
	if out, _, ok := d.encode(true); ok {
		countBytesOut(len(out))
		return caller.SendEncoded(ctx, to, out)
	}
	return caller.Send(ctx, to, m.envelope())
}

// Fanout writes m once and sends a copy to every target, each with its own
// wsa:To, as soap.Fanout does an envelope: the pooled template is rendered
// per target, and goes back to the pool after the last copy; a declined
// block hands soap.Fanout the envelope m describes. m.To must be empty. It
// returns what soap.Fanout returns.
func (m *Message) Fanout(ctx context.Context, caller Caller, targets []string) (sent int, failed []string) {
	// Each copy's To goes in the header, and replaces any To block m.Header
	// holds, as Fanout's template does.
	d := m.draft()
	d.header, d.drop = true, xml.Name{Space: wsa.Namespace, Local: "To"}
	if tmpl, ok := d.template(true); ok {
		defer putBytes(tmpl.pre)
		return tmpl.sendAll(ctx, caller, targets)
	}
	return Fanout(ctx, caller, m.envelope(), targets)
}

// envelope builds the envelope m describes, the slow path's. Everything it
// holds is copied: a binding may keep the envelope, and anything of m's it
// kept — a block's bytes or its name — would, to escape analysis, take all
// that m refers to onto the heap with it, on the fast path too (the ID, the
// block arrays, the variables Write captures), since it does not tell m's
// fields apart.
func (m *Message) envelope() *Envelope {
	env := NewEnvelope()
	env.SetAddressingID(wsa.Headers{To: m.To, Action: m.Action}, m.ID)
	for _, b := range m.Header {
		env.AddHeaderBlock(ownBlock(b))
	}
	n := len(m.Body) + m.Parts
	if n == 0 {
		return env
	}
	blocks := make([]Block, 0, n)
	for _, b := range m.Body {
		blocks = append(blocks, ownBlock(b))
	}
	name := ownName(m.Name)
	buf := make([]byte, 0, m.Size)
	for i := range m.Parts {
		start := len(buf)
		buf = m.Write(buf, i)
		// Full slice expression: no child can grow into the next.
		blocks = append(blocks, Block{XMLName: name, Raw: buf[start:len(buf):len(buf)]})
	}
	if n == 1 {
		env.SetBodyBlock(blocks[0])
	} else {
		env.Body.Blocks = blocks
	}
	return env
}

// ownBlock is a copy of b that shares no memory with it.
func ownBlock(b Block) Block {
	return Block{XMLName: ownName(b.XMLName), Raw: bytes.Clone(b.Raw)}
}

// ownName is a copy of n that shares no memory with it.
func ownName(n xml.Name) xml.Name {
	return xml.Name{Space: strings.Clone(n.Space), Local: strings.Clone(n.Local)}
}
