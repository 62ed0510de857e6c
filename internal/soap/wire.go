package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"slices"
	"sync"

	"wsgossip/internal/wsa"
)

// The wire path: one writer out, and one scanner plus one fallback capture
// in, chosen by what the bytes are — never by an option.
//
//   - in: Decode's scanner (scan.go) slices each block verbatim out of the
//     input buffer, so Block.Raw shares the inbound message's memory. Every
//     document it declines — namespace prefixes (what most other SOAP stacks
//     emit), blocks whose namespace is declared outside their own bytes —
//     goes to decodeLegacy, whose capture (Block.UnmarshalXML) writes each
//     block as one self-contained element in the form the scanner slices;
//   - out: the one writer, draft.encode, writes the fixed
//     Envelope/Header/Body scaffolding and splices each Block.Raw directly
//     into the output, sized exactly. Encode, a fan-out template
//     (EncodeTemplate, Fanout), Forward's re-head and a Message all write
//     through it; RenderTo then produces a complete per-target message by
//     splicing only the wsa:To block.
//
// The canonical format declares every namespace with a default xmlns
// attribute on the element that introduces it; the only prefixes in it are
// those a block declares for its own attributes. Every block the stack can
// hold — scanned, captured by the fallback, flat-written, or written by the
// pooled encoding/xml marshaler (MarshalBlock, AppendMarshal; marshal.go) —
// is spliced; a block the splice declines, which only a hand can build, is
// an error (ErrNotSpliceable), never a re-encode.

// Fixed scaffolding of the canonical wire format. Blocks are spliced
// between the container tags; Header and Body inherit the envelope's
// default namespace, and every block carries its own xmlns declaration. A
// message starts at its Envelope: XML 1.0 makes the declaration optional for
// UTF-8 and SOAP 1.2 asks for none, so the writer spends no 39 bytes on one;
// the scanner still accepts it, and any prolog, from other stacks.
const (
	wireEnvOpen     = `<Envelope xmlns="` + Namespace + `">`
	wireHeaderOpen  = `<Header>`
	wireHeaderClose = `</Header>`
	wireBodyOpen    = `<Body>`
	wireBodyClose   = `</Body>`
	wireEnvClose    = `</Envelope>`
	wireToOpen      = `<To xmlns="` + wsa.Namespace + `">`
	wireToClose     = `</To>`
)

// ErrNotSpliceable reports a message holding a block the splice writer
// declines (blockSplice): a hand-built one whose start tag is prefixed or
// malformed, or does not name the block. Encode, EncodeTemplate and
// Message.Send return it; Fanout, Message.Fanout and Forward count every
// target as failed.
var ErrNotSpliceable = errors.New("soap: envelope not spliceable")

// bufPool recycles scratch buffers across encodes; rendered messages are
// copied out exactly sized, so pooled memory never escapes to callers.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// ---------------------------------------------------------------------------
// Splice serialization

// blockSplice analyzes b's start tag for verbatim splicing into the
// canonical scaffold. inject is the default-xmlns declaration to insert
// after the tag name ("" when raw already declares one) and insertAt its
// byte offset in Raw. Attributes may be prefixed — a captured block declares
// its attribute prefixes on its own tags — but the tag name must be b's
// unprefixed local name. ok is false when the block resists splicing
// (a prefixed or mismatched tag name, malformed raw), which only a
// hand-built block can.
func blockSplice(b Block) (inject string, insertAt int, ok bool) {
	raw := b.Raw
	if len(raw) < 3 || raw[0] != '<' {
		return "", 0, false
	}
	// Tag name: must match the block's unprefixed local name.
	i := 1
	for i < len(raw) && !isTagDelim(raw[i]) {
		if raw[i] == ':' {
			return "", 0, false
		}
		i++
	}
	if string(raw[1:i]) != b.XMLName.Local {
		return "", 0, false
	}
	insertAt = i
	// Attribute scan: find a default xmlns declaration.
	hasDecl := false
	for i < len(raw) {
		for i < len(raw) && isXMLSpace(raw[i]) {
			i++
		}
		if i >= len(raw) {
			return "", 0, false
		}
		if raw[i] == '>' {
			break
		}
		if raw[i] == '/' { // self-closing: <Name .../>
			break
		}
		// Attribute name, prefixed or not.
		nameStart := i
		for i < len(raw) && raw[i] != '=' && !isXMLSpace(raw[i]) && raw[i] != '>' {
			i++
		}
		name := string(raw[nameStart:i])
		for i < len(raw) && isXMLSpace(raw[i]) {
			i++
		}
		if i >= len(raw) || raw[i] != '=' {
			return "", 0, false
		}
		i++
		for i < len(raw) && isXMLSpace(raw[i]) {
			i++
		}
		if i >= len(raw) || (raw[i] != '"' && raw[i] != '\'') {
			return "", 0, false
		}
		quote := raw[i]
		i++
		for i < len(raw) && raw[i] != quote {
			i++
		}
		if i >= len(raw) {
			return "", 0, false
		}
		i++
		if name == "xmlns" {
			hasDecl = true
		}
	}
	if !hasDecl {
		// The canonical scaffold's default namespace is the SOAP envelope
		// namespace; a declaration-free block must pin its own.
		inject = ` xmlns="` + escapeAttr(b.XMLName.Space) + `"`
	}
	return inject, insertAt, true
}

func isTagDelim(c byte) bool {
	return c == '>' || c == '/' || isXMLSpace(c)
}

func isXMLSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// escapeAttr escapes s for use inside a double-quoted attribute value.
func escapeAttr(s string) string {
	if plainText(s) {
		return s
	}
	buf := getBuf()
	defer bufPool.Put(buf)
	_ = xml.EscapeText(buf, []byte(s))
	return buf.String()
}

// spliceParts is the per-block analysis an encode pass reuses.
type spliceParts struct {
	inject   string
	insertAt int
}

// splicePlanStack is the number of blocks whose splice plan the writer keeps
// on the stack; a larger message's plan grows onto the heap.
const splicePlanStack = 16

// splicePlan is the writer's first pass over a message's blocks: each one's
// splice plan, in writing order, and their spliced size.
type splicePlan struct {
	parts []spliceParts
	size  int
}

// add returns p with b planned; false when b resists splicing. It returns the
// plan rather than growing it through a pointer, so the parts stay on the
// writer's stack.
func (p splicePlan) add(b Block) (splicePlan, bool) {
	inject, at, ok := blockSplice(b)
	if !ok {
		return p, false
	}
	p.parts = append(p.parts, spliceParts{inject: inject, insertAt: at})
	p.size += len(b.Raw) + len(inject)
	return p, true
}

// put splices b, the next block planned, into dst.
func (p *splicePlan) put(dst []byte, b Block) []byte {
	dst = appendBlock(dst, b, p.parts[0])
	p.parts = p.parts[1:]
	return dst
}

// appendBlock splices b into dst per its splice plan p.
func appendBlock(dst []byte, b Block, p spliceParts) []byte {
	if p.inject == "" {
		return append(dst, b.Raw...)
	}
	dst = append(dst, b.Raw[:p.insertAt]...)
	dst = append(dst, p.inject...)
	return append(dst, b.Raw[p.insertAt:]...)
}

// draft is a message as the one wire writer takes it — what Encode, a
// fan-out template, Forward's re-head and a Message all write through. Its
// header is, in order: lead; own; the addressing properties To, Action and
// MessageID, each only when set; then tail. The blocks drop names are left
// out of lead and tail, and without header there is no Header element at
// all. Its body is body, then the parts children write appends. Every block
// is spliced verbatim into the canonical scaffold (blockSplice); what write
// appends is the caller's own canonical bytes.
type draft struct {
	lead []Block
	// drop names the blocks of lead and tail to leave out (a Local "" names
	// none), and dropAddressing their WS-Addressing properties too.
	drop           [2]xml.Name
	dropAddressing bool
	own            []Block
	to, action     string
	id             []byte
	tail           []Block
	body           []Block
	// parts children written by write, each appending child i to dst; size
	// estimates their length, which sizes a pooled buffer.
	parts  int
	size   int
	write  func(dst []byte, i int) []byte
	header bool
	// splitAtAddressing puts the per-target To's insertion point before the
	// addressing properties instead of at the end of the header.
	splitAtAddressing bool
}

// drops reports whether b, one of lead's or tail's blocks, is left out.
func (d *draft) drops(b Block) bool {
	if d.dropAddressing && isAddressingName(b.XMLName) {
		return true
	}
	for _, n := range d.drop {
		if n.Local != "" && b.XMLName.Local == n.Local && (n.Space == "" || b.XMLName.Space == n.Space) {
			return true
		}
	}
	return false
}

// encode writes d in two passes: the first plans every block's splice and
// sizes the message, the second writes it into a buffer from the wire buffer
// pool when pooled, else into one exactly sized. split is the offset of the
// per-target To's insertion point. ok=false when a block resists splicing;
// nothing is written then.
func (d *draft) encode(pooled bool) (out []byte, split int, ok bool) {
	var stack [splicePlanStack]spliceParts
	plan := splicePlan{parts: stack[:0]}
	filtered := [4]bool{true, false, true, false} // lead and tail leave out what drops names
	for i, blocks := range [4][]Block{d.lead, d.own, d.tail, d.body} {
		for _, b := range blocks {
			if filtered[i] && d.drops(b) {
				continue
			}
			if plan, ok = plan.add(b); !ok {
				return nil, 0, false
			}
		}
	}
	// The properties are kept in an array by index: an append could grow
	// onto the heap, and would take the ID's bytes with it.
	var props [3]addressingProp
	np := 0
	for _, p := range [...]addressingProp{{kind: propTo, value: d.to}, {kind: propAction, value: d.action}, {kind: propMessageID, id: d.id}} {
		if p.value != "" || len(p.id) > 0 {
			props[np] = p
			np++
			plan.size += p.size()
		}
	}
	n := len(wireEnvOpen) + len(wireBodyOpen) + len(wireBodyClose) + len(wireEnvClose) + plan.size + d.size
	if d.header {
		n += len(wireHeaderOpen) + len(wireHeaderClose)
	}
	if pooled {
		out = getBytes(n)
	} else {
		out = make([]byte, 0, n)
	}
	out = append(out, wireEnvOpen...)
	if d.header {
		out = append(out, wireHeaderOpen...)
		for _, b := range d.lead {
			if !d.drops(b) {
				out = plan.put(out, b)
			}
		}
		for _, b := range d.own {
			out = plan.put(out, b)
		}
		split = len(out)
		for _, p := range props[:np] {
			out = p.append(out)
		}
		for _, b := range d.tail {
			if !d.drops(b) {
				out = plan.put(out, b)
			}
		}
		if !d.splitAtAddressing {
			split = len(out)
		}
		out = append(out, wireHeaderClose...)
	}
	out = append(out, wireBodyOpen...)
	for _, b := range d.body {
		out = plan.put(out, b)
	}
	for i := range d.parts {
		out = d.write(out, i)
	}
	out = append(out, wireBodyClose...)
	out = append(out, wireEnvClose...)
	return out, split, true
}

// decodeLegacy is the encoding/xml parser: Block.UnmarshalXML writes each
// block anew from its tokens, which resolves prefixes and inherited default
// namespaces into the block's own bytes. It is the fallback for every
// document the scanner declines, and the oracle the scanner is tested
// against (FuzzDecodeEquivalence).
func decodeLegacy(data []byte) (*Envelope, error) {
	var env Envelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("soap: decode envelope: %w", err)
	}
	return &env, nil
}

// ---------------------------------------------------------------------------
// Encode-once fan-out templates

// WireTemplate is an envelope serialized exactly once, with a single
// insertion point inside the Header element where per-target blocks are
// spliced. Fan-out loops render one complete message per peer without
// re-encoding anything but the wsa:To header.
type WireTemplate struct {
	pre  []byte // scaffold and stable blocks before the insertion point
	post []byte // "</Header><Body>…</Body></Envelope>"
}

// EncodeTemplate serializes e once with an insertion point at the end of
// its header blocks. Any existing wsa:To header is excluded from the
// template — RenderTo supplies the per-target To, and a stale block would
// win the receiver's first-match header lookup and misaddress every copy.
// A block the splice writer declines makes it ErrNotSpliceable.
func (e *Envelope) EncodeTemplate() (*WireTemplate, error) {
	d := e.templateDraft()
	t, ok := d.template(false)
	if !ok {
		return nil, ErrNotSpliceable
	}
	return &t, nil
}

// templateDraft is e as a fan-out template's draft: a wsa:To block is left
// out where it lies, so the envelope is not copied to drop it.
func (e *Envelope) templateDraft() draft {
	return draft{lead: e.headerBlocks(), drop: [2]xml.Name{{Space: wsa.Namespace, Local: "To"}}, body: e.Body.Blocks, header: true}
}

// template writes d as a fan-out template, by value, so a caller that renders
// within its own frame keeps it off the heap. With pooled the serialized
// bytes come from the wire buffer pool, and the caller hands them back
// (putBytes(t.pre)) once its last RenderTo has copied them; otherwise they
// are the template's one allocation.
func (d *draft) template(pooled bool) (WireTemplate, bool) {
	out, split, ok := d.encode(pooled)
	if !ok {
		return WireTemplate{}, false
	}
	return WireTemplate{pre: out[:split], post: out[split:]}, true
}

// fanout writes d once as a pooled template and sends a copy to every target
// (sendAll); the template goes back to the pool after the last copy, since
// RenderTo copies it. A block the splice writer declines fails every target.
func (d *draft) fanout(ctx context.Context, caller Caller, targets []string) (sent int, failed []string) {
	t, ok := d.template(true)
	if !ok {
		return 0, slices.Clone(targets)
	}
	defer putBytes(t.pre)
	return t.sendAll(ctx, caller, targets)
}

// RenderTo returns a complete serialized envelope addressed to addr: the
// template's bytes with a wsa:To header block spliced at the insertion
// point. Each call returns a buffer the caller owns exclusively, so
// rendered messages can be handed to SendEncoded without copying; the
// buffer is sized exactly (the escaped To length is computed up front) and
// drawn from the wire buffer pool, which the bindings feed back into after
// delivery.
func (t *WireTemplate) RenderTo(addr string) []byte {
	toLen := len(addr)
	var esc *bytes.Buffer
	if !plainText(addr) {
		esc = getBuf()
		_ = xml.EscapeText(esc, []byte(addr))
		toLen = esc.Len()
	}
	out := getBytes(len(t.pre) + len(wireToOpen) + toLen + len(wireToClose) + len(t.post))
	out = append(out, t.pre...)
	out = append(out, wireToOpen...)
	if esc != nil {
		out = append(out, esc.Bytes()...)
		bufPool.Put(esc)
	} else {
		out = append(out, addr...)
	}
	out = append(out, wireToClose...)
	out = append(out, t.post...)
	countBytesOut(len(out))
	return out
}

// Size returns the serialized size in bytes of a rendered message,
// excluding the per-target To block.
func (t *WireTemplate) Size() int { return len(t.pre) + len(t.post) }

// sendAll renders t once per target and hands each copy to caller's
// SendEncoded, with Fanout's accounting: a ctx cancelled mid-way stops
// issuing sends, and the targets not yet attempted are reported as failed.
func (t *WireTemplate) sendAll(ctx context.Context, caller Caller, targets []string) (sent int, failed []string) {
	for i, target := range targets {
		if ctx.Err() != nil {
			return sent, append(failed, targets[i:]...)
		}
		if err := caller.SendEncoded(ctx, target, t.RenderTo(target)); err != nil {
			failed = append(failed, target)
			continue
		}
		sent++
	}
	return sent, failed
}

// ---------------------------------------------------------------------------
// Encoded send path

// EncodedSender is the half of Caller that takes a pre-serialized envelope,
// skipping the redundant Encode inside Send; every binding implements it. A
// successful SendEncoded takes full ownership of data: the binding may
// retain it or recycle it into the wire buffer pool after delivery, so the
// caller must not read or modify it afterwards, and must not pass the same
// buffer to two sends. On error the buffer stays with the caller. A binding
// that delivers in process (MemBus) also recycles the request it decodes
// from data once the handler has returned. Fanout, Forward and every Message
// the stack originates write through SendEncoded, each into a buffer drawn
// from the wire buffer pool.
type EncodedSender interface {
	SendEncoded(ctx context.Context, to string, data []byte) error
}

// Fanout sends one logical envelope (addressing must omit To) to every
// target. The message is serialized exactly once, into a pooled template,
// and a per-target copy rendered at the wsa:To insertion point. Returns the
// successful send count and the targets that failed (nil when none did); a
// block the splice writer declines fails them all. A ctx cancelled
// mid-fanout stops issuing new sends; the not-yet-attempted targets are
// reported as failed so the caller's accounting stays exact. The
// multi-target sends the stack originates, the Initiator's notification
// included, go through Message.Fanout, and forwards through Forward, which
// render the same way; this is the path for an envelope already built.
func Fanout(ctx context.Context, caller Caller, env *Envelope, targets []string) (sent int, failed []string) {
	d := env.templateDraft()
	return d.fanout(ctx, caller, targets)
}
