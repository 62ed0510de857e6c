package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"sync"

	"wsgossip/internal/wsa"
)

// The wire path: one byte-level fast path and one encoding/xml fallback in
// each direction, chosen by what the bytes are — never by an option.
//
//   - capture: Decode's scanner (scan.go) slices each block verbatim out of
//     the input buffer, so Block.Raw shares the inbound message's memory;
//   - replay: Encode writes the fixed Envelope/Header/Body scaffolding and
//     splices each Block.Raw directly into the output, sized exactly, with
//     sync.Pool scratch for the parts that need buffering;
//   - fan-out: EncodeTemplate serializes an envelope once, leaving a single
//     insertion point inside the Header; RenderTo then produces a complete
//     per-target message by splicing only the wsa:To block.
//
// The canonical format declares every namespace with a default xmlns
// attribute on the element that introduces it and never uses prefixes.
// Everything else well-formed — namespace prefixes (what most other SOAP
// stacks emit), blocks whose meaning depends on a default namespace declared
// outside their own bytes, hand-built blocks — goes through decodeLegacy and
// encodeLegacy below, so arbitrary SOAP input remains accepted; it just pays
// encoding/xml's token-by-token re-encode.

// Fixed scaffolding of the canonical wire format. Blocks are spliced
// between the container tags; Header and Body inherit the envelope's
// default namespace, and every block carries its own xmlns declaration.
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

// ErrNotSpliceable reports an envelope that cannot go through the verbatim
// splice serializer (e.g. a block captured from a prefixed document);
// callers fall back to per-target encoding.
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
// byte offset in Raw. ok is false when the block resists splicing (prefixed
// names, malformed or hand-built raw) and the legacy encoder must run.
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
	// Attribute scan: find a default xmlns declaration, reject prefixed
	// declarations or attributes.
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
		// Attribute name.
		nameStart := i
		for i < len(raw) && raw[i] != '=' && !isXMLSpace(raw[i]) && raw[i] != '>' {
			if raw[i] == ':' {
				return "", 0, false
			}
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

// splicePlanStack is the number of blocks whose splice plan the encoders
// keep on the stack; a larger envelope's plan grows onto the heap.
const splicePlanStack = 16

// analyzeSplice checks every block of e — header blocks, then body blocks —
// appending each one's splice plan to plan, and returns the plan plus the
// exact serialized size of the variable parts.
func analyzeSplice(e *Envelope, plan []spliceParts) (_ []spliceParts, blockBytes int, ok bool) {
	for _, blocks := range [2][]Block{e.headerBlocks(), e.Body.Blocks} {
		for _, b := range blocks {
			inject, at, ok := blockSplice(b)
			if !ok {
				return nil, 0, false
			}
			plan = append(plan, spliceParts{inject: inject, insertAt: at})
			blockBytes += len(b.Raw) + len(inject)
		}
	}
	return plan, blockBytes, true
}

// appendBlocks splices blocks into dst per their splice plans.
func appendBlocks(dst []byte, blocks []Block, plan []spliceParts) []byte {
	for i, b := range blocks {
		dst = appendBlock(dst, b, plan[i])
	}
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

// encodeSplice serializes e on the fast path: one exactly-sized allocation,
// every block spliced verbatim.
func encodeSplice(e *Envelope) ([]byte, bool) {
	var stack [splicePlanStack]spliceParts
	plan, blockBytes, ok := analyzeSplice(e, stack[:0])
	if !ok {
		return nil, false
	}
	n := len(xml.Header) + len(wireEnvOpen) + len(wireBodyOpen) + len(wireBodyClose) + len(wireEnvClose) + blockBytes
	if e.Header != nil {
		n += len(wireHeaderOpen) + len(wireHeaderClose)
	}
	out := make([]byte, 0, n)
	out = append(out, xml.Header...)
	out = append(out, wireEnvOpen...)
	if e.Header != nil {
		out = append(out, wireHeaderOpen...)
		out = appendBlocks(out, e.Header.Blocks, plan)
		plan = plan[len(e.Header.Blocks):]
		out = append(out, wireHeaderClose...)
	}
	out = append(out, wireBodyOpen...)
	out = appendBlocks(out, e.Body.Blocks, plan)
	out = append(out, wireBodyClose...)
	out = append(out, wireEnvClose...)
	return out, true
}

// encodeLegacy is the encoding/xml serializer, the fallback for
// splice-resistant envelopes; scratch comes from the pool.
func (e *Envelope) encodeLegacy() ([]byte, error) {
	buf := getBuf()
	defer bufPool.Put(buf)
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(buf)
	if err := enc.Encode(e); err != nil {
		return nil, fmt.Errorf("soap: encode envelope: %w", err)
	}
	if err := enc.Flush(); err != nil {
		return nil, fmt.Errorf("soap: flush envelope: %w", err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// decodeLegacy is the encoding/xml parser: Block.UnmarshalXML re-encodes
// each block token by token, which resolves prefixes and inherited default
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
// Splice-resistant envelopes return ErrNotSpliceable; callers fall back to
// per-target encoding.
func (e *Envelope) EncodeTemplate() (*WireTemplate, error) {
	t, ok := e.template(false)
	if !ok {
		return nil, ErrNotSpliceable
	}
	return &t, nil
}

// template is EncodeTemplate returning the template by value, so a caller
// that renders within its own frame (Fanout) keeps it off the heap. With
// pooled the serialized bytes come from the wire buffer pool, and the caller
// hands them back (putBytes(t.pre)) once its last RenderTo has copied them;
// otherwise they are the template's one allocation.
func (e *Envelope) template(pooled bool) (WireTemplate, bool) {
	if _, ok := e.HeaderBlock(wsa.Namespace, "To"); ok {
		e = e.Snapshot()
		e.RemoveHeader(wsa.Namespace, "To")
	}
	var stack [splicePlanStack]spliceParts
	plan, blockBytes, ok := analyzeSplice(e, stack[:0])
	if !ok {
		return WireTemplate{}, false
	}
	n := len(xml.Header) + len(wireEnvOpen) + len(wireHeaderOpen) + len(wireHeaderClose) +
		len(wireBodyOpen) + len(wireBodyClose) + len(wireEnvClose) + blockBytes
	var backing []byte
	if pooled {
		backing = getBytes(n)
	} else {
		backing = make([]byte, 0, n)
	}
	backing = append(backing, xml.Header...)
	backing = append(backing, wireEnvOpen...)
	backing = append(backing, wireHeaderOpen...)
	if e.Header != nil {
		backing = appendBlocks(backing, e.Header.Blocks, plan)
		plan = plan[len(e.Header.Blocks):]
	}
	split := len(backing)
	backing = append(backing, wireHeaderClose...)
	backing = append(backing, wireBodyOpen...)
	backing = appendBlocks(backing, e.Body.Blocks, plan)
	backing = append(backing, wireBodyClose...)
	backing = append(backing, wireEnvClose...)
	return WireTemplate{pre: backing[:split], post: backing[split:]}, true
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

// sendAll renders t once per target and hands each copy to es, with
// Fanout's accounting: a ctx cancelled mid-way stops issuing sends, and the
// targets not yet attempted are reported as failed.
func (t *WireTemplate) sendAll(ctx context.Context, es EncodedSender, targets []string) (sent int, failed []string) {
	for i, target := range targets {
		if ctx.Err() != nil {
			return sent, append(failed, targets[i:]...)
		}
		if err := es.SendEncoded(ctx, target, t.RenderTo(target)); err != nil {
			failed = append(failed, target)
			continue
		}
		sent++
	}
	return sent, failed
}

// ---------------------------------------------------------------------------
// Encoded send path

// EncodedSender is implemented by bindings that accept a pre-serialized
// envelope, skipping the redundant Encode inside Send. A successful
// SendEncoded takes full ownership of data: the binding may retain it or
// recycle it into the wire buffer pool after delivery, so the caller must
// not read or modify it afterwards, and must not pass the same buffer to
// two sends. On error the buffer stays with the caller. A binding that
// delivers in process (MemBus) also recycles the request it decodes from
// data once the handler has returned. Fanout and Forward write through
// SendEncoded whenever the binding offers it.
type EncodedSender interface {
	SendEncoded(ctx context.Context, to string, data []byte) error
}

// SendBytes sends a pre-serialized envelope through caller: directly when
// the binding implements EncodedSender, otherwise by decoding once and
// using the plain Send path.
func SendBytes(ctx context.Context, caller Caller, to string, data []byte) error {
	if es, ok := caller.(EncodedSender); ok {
		return es.SendEncoded(ctx, to, data)
	}
	env, err := Decode(data)
	if err != nil {
		return err
	}
	return caller.Send(ctx, to, env)
}

// Fanout sends one logical envelope (addressing must omit To) to every
// target. On an EncodedSender binding the message is serialized exactly
// once (EncodeTemplate) and a per-target copy rendered at the wsa:To
// insertion point; plain Callers, and splice-resistant envelopes — e.g.
// blocks captured from documents with prefixed namespace declarations —
// take the per-target encode the fan-out paths ran before the encode-once
// wire path. Returns the successful send count and the targets that failed
// (nil when none did). A ctx cancelled mid-fanout stops issuing new sends;
// the not-yet-attempted targets are reported as failed so the caller's
// accounting stays exact. Every multi-target send in the stack — gossip
// forward/announce/repair/pull and the aggregation floods and exchange
// rounds — goes through here. The template's bytes come from the wire buffer
// pool and go back to it when the last copy is rendered: RenderTo copies
// them, so nothing refers to them afterwards.
func Fanout(ctx context.Context, caller Caller, env *Envelope, targets []string) (sent int, failed []string) {
	if es, ok := caller.(EncodedSender); ok {
		if tmpl, ok := env.template(true); ok {
			defer putBytes(tmpl.pre)
			return tmpl.sendAll(ctx, es, targets)
		}
	}
	a := env.Addressing()
	for i, target := range targets {
		if ctx.Err() != nil {
			return sent, append(failed, targets[i:]...)
		}
		out := env.Snapshot()
		a.To = target
		if err := out.SetAddressing(a); err != nil {
			failed = append(failed, target)
			continue
		}
		if err := caller.Send(ctx, target, out); err != nil {
			failed = append(failed, target)
			continue
		}
		sent++
	}
	return sent, failed
}
