package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"wsgossip/internal/wsa"
)

// Namespace is the SOAP 1.2 envelope namespace.
const Namespace = "http://www.w3.org/2003/05/soap-envelope"

// ContentType is the SOAP 1.2 media type used by the HTTP binding.
const ContentType = "application/soap+xml"

// ErrEmptyBody reports an attempt to decode a body with no child element.
var ErrEmptyBody = errors.New("soap: empty body")

// ErrHeaderNotFound reports a missing header block.
var ErrHeaderNotFound = errors.New("soap: header block not found")

// Envelope is a SOAP 1.2 message.
type Envelope struct {
	XMLName xml.Name `xml:"http://www.w3.org/2003/05/soap-envelope Envelope"`
	Header  *Header  `xml:"Header,omitempty"`
	Body    Body     `xml:"Body"`

	// addr caches the parsed WS-Addressing properties: one parse serves the
	// dispatcher, every middleware, and the handler of a delivery. Header
	// mutations (AddHeader, RemoveHeader, SetAddressing) invalidate it.
	addr atomic.Pointer[wsa.Headers]

	// spareHeader and spareBody are NewEnvelope's inline slots (outbound),
	// each taken by the first write that needs it: the header attaches on
	// the first header block, so an envelope without one still encodes with
	// no <Header> element.
	spareHeader *Header
	spareBody   *[1]Block
}

// Header is the SOAP header: an ordered sequence of extension blocks.
type Header struct {
	XMLName xml.Name `xml:"http://www.w3.org/2003/05/soap-envelope Header"`
	Blocks  []Block  `xml:",any"`
}

// Body is the SOAP body. WS-Gossip messages carry exactly one child element.
type Body struct {
	XMLName xml.Name `xml:"http://www.w3.org/2003/05/soap-envelope Body"`
	Blocks  []Block  `xml:",any"`
}

// Block is one XML element, preserving attributes and children, so that
// header blocks a node does not understand pass through untouched (the
// paper's Consumer role depends on this): sliced verbatim out of the input
// by the scanner, or written anew by the fallback decoder, self-contained
// and with every name in the namespace it had.
type Block struct {
	XMLName xml.Name
	Raw     []byte
}

var _ xml.Unmarshaler = (*Block)(nil)

// UnmarshalXML captures the element whole, as the fallback decoder's block,
// in the form the splice writer takes: one well-formed element that needs
// nothing from outside its own bytes. The root declares its default
// namespace, and an element below it declares one wherever its namespace
// differs from its parent's (xmlns="" included); the input's own namespace
// declarations are not echoed. A namespaced attribute is written under a
// prefix declared on its own element (xml:lang stays xml:lang), and an
// attribute repeated under one expanded name keeps its first value. Text is
// escaped so that it reads back the same, and comments and processing
// instructions are kept; a directive or an xml declaration inside the element
// is refused.
func (b *Block) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	b.XMLName = start.Name
	raw, ok := appendCaptureStart(nil, start, "", true)
	spaces := []string{start.Name.Space} // the namespace of each open element
	for ok && len(spaces) > 0 {
		tok, err := d.Token()
		if err != nil {
			return fmt.Errorf("soap: capture block token: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			raw, ok = appendCaptureStart(raw, t, spaces[len(spaces)-1], false)
			spaces = append(spaces, t.Name.Space)
		case xml.EndElement:
			raw = AppendFlatClose(raw, t.Name.Local)
			spaces = spaces[:len(spaces)-1]
		case xml.CharData:
			raw = appendCharData(raw, t)
		case xml.Comment:
			raw = append(append(append(raw, "<!--"...), t...), "-->"...)
		case xml.ProcInst:
			if strings.EqualFold(t.Target, "xml") {
				return fmt.Errorf("soap: capture block %s: xml declaration inside the element", start.Name.Local)
			}
			raw = append(append(raw, "<?"...), t.Target...)
			if len(t.Inst) > 0 {
				raw = append(append(raw, ' '), t.Inst...)
			}
			raw = append(raw, "?>"...)
		case xml.Directive:
			return fmt.Errorf("soap: capture block %s: directive inside the element", start.Name.Local)
		}
	}
	if !ok {
		return fmt.Errorf("soap: capture block %s: a colon in a name outside a namespace prefix", start.Name.Local)
	}
	b.Raw = raw
	return nil
}

// xmlSpace is the namespace the reserved xml prefix is bound to.
const xmlSpace = "http://www.w3.org/XML/1998/namespace"

// appendCaptureStart appends t's start tag as UnmarshalXML captures it: its
// default namespace declared at the root or where it differs from parent's,
// then its attributes without namespace declarations, the first of each
// expanded name only, the namespaced ones under prefixes p0, p1, … declared
// on the tag in order of first use. ok is false for a local name with a
// colon in it, which encoding/xml leaves where a prefix is empty or doubled:
// no namespace-well-formed tag can carry it.
func appendCaptureStart(dst []byte, t xml.StartElement, parent string, root bool) (_ []byte, ok bool) {
	if strings.Contains(t.Name.Local, ":") || slices.ContainsFunc(t.Attr, func(a xml.Attr) bool { return strings.Contains(a.Name.Local, ":") }) {
		return dst, false
	}
	dst = append(dst, '<')
	dst = append(dst, t.Name.Local...)
	if root || t.Name.Space != parent {
		dst = appendAttr(dst, "", "xmlns", t.Name.Space)
	}
	var prefixed []string // the attribute namespaces declared so far
	for i, a := range t.Attr {
		if a.Name.Space == "xmlns" || a.Name.Space == "" && a.Name.Local == "xmlns" ||
			slices.ContainsFunc(t.Attr[:i], func(o xml.Attr) bool { return o.Name == a.Name }) {
			continue
		}
		switch a.Name.Space {
		case "":
			dst = appendAttr(dst, "", a.Name.Local, a.Value)
		case xmlSpace:
			dst = appendAttr(dst, "xml", a.Name.Local, a.Value)
		default:
			n := slices.Index(prefixed, a.Name.Space)
			if n < 0 {
				n = len(prefixed)
				prefixed = append(prefixed, a.Name.Space)
				dst = appendAttr(dst, "xmlns", "p"+strconv.Itoa(n), a.Name.Space)
			}
			dst = appendAttr(dst, "p"+strconv.Itoa(n), a.Name.Local, a.Value)
		}
	}
	return append(dst, '>'), true
}

// appendAttr appends ` prefix:local="value"` (` local="value"` without a
// prefix), the value escaped.
func appendAttr(dst []byte, prefix, local, value string) []byte {
	dst = append(dst, ' ')
	if prefix != "" {
		dst = append(append(dst, prefix...), ':')
	}
	dst = append(append(dst, local...), `="`...)
	return append(AppendEscaped(dst, value), '"')
}

// appendCharData appends text escaped as character data that reads back the
// same: markup characters and carriage returns escaped, newlines and tabs
// kept as they are.
func appendCharData(dst, text []byte) []byte {
	for _, c := range text {
		switch c {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '\r':
			dst = append(dst, "&#xD;"...)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// Decode decodes v from the captured element.
func (b Block) Decode(v any) error {
	if err := xml.Unmarshal(b.Raw, v); err != nil {
		return fmt.Errorf("soap: decode block %s: %w", b.XMLName.Local, err)
	}
	return nil
}

// Inline block capacity of a built envelope: what the stack's busiest
// outbound message carries — To, Action, MessageID, a gossip or context
// header, one more — and its body child. A sixth header block appends past
// the inline array like any slice.
const outboundHeaderBlocks = 5

// outbound is what NewEnvelope allocates as one object: the envelope, the
// header it attaches on its first header write, and the array the header
// blocks and the body child start out in. The header's slice is a full slice
// expression of blocks[:outboundHeaderBlocks], so an append to it can never
// write into the body slot.
type outbound struct {
	env    Envelope
	header Header
	blocks [outboundHeaderBlocks + 1]Block
}

// NewEnvelope returns an empty envelope. It is one allocation, and so is
// everything AddHeaderBlock and SetBodyBlock add to it up to five header
// blocks and one body child (see outbound).
func NewEnvelope() *Envelope {
	o := &outbound{}
	o.header.Blocks = o.blocks[:0:outboundHeaderBlocks]
	o.env.spareHeader = &o.header
	o.env.spareBody = (*[1]Block)(o.blocks[outboundHeaderBlocks:])
	return &o.env
}

// ensureHeader attaches a header for a header write: NewEnvelope's inline
// one the first time, a fresh one on an envelope built any other way.
func (e *Envelope) ensureHeader() {
	if e.Header != nil {
		return
	}
	if e.spareHeader != nil {
		e.Header, e.spareHeader = e.spareHeader, nil
		return
	}
	e.Header = &Header{}
}

// blockName derives the qualified name of the single element in raw from
// its start tag — `<Local xmlns="uri" …>`, `<Local>`, or self-closing — with
// the wire scanner's byte walk, which also checks the element is well formed
// and ends raw, as the xml.Unmarshal probe it replaces did. ok=false (a
// prefixed or non-ASCII name, an escaped namespace, nesting beyond the
// scanner's stack, trailing content) sends the caller to that probe, so the
// name and the accepted inputs are the probe's either way.
func blockName(raw []byte) (xml.Name, bool) {
	if len(raw) == 0 || raw[0] != '<' {
		return xml.Name{}, false
	}
	s := wireScanner{data: raw}
	tag, ok := s.startTag()
	if !ok || (!tag.selfClose && !s.subtree(s.name(tag))) || s.pos != len(raw) {
		return xml.Name{}, false
	}
	name := xml.Name{Local: names.intern(s.name(tag))}
	if tag.hasXMLNS {
		if name.Space, ok = nsValue(s.slice(tag.nsStart, tag.nsEnd)); !ok {
			return xml.Name{}, false
		}
	}
	return name, true
}

// AddHeader marshals v and appends it as a header block.
func (e *Envelope) AddHeader(v any) error {
	b, err := MarshalBlock(v)
	if err != nil {
		return err
	}
	e.AddHeaderBlock(b)
	return nil
}

// AddHeaderBlock appends an already-built block to the header — the
// flat-element writer's product, or a block captured from another envelope.
// The envelope treats b.Raw as immutable from here on.
func (e *Envelope) AddHeaderBlock(b Block) {
	e.ensureHeader()
	e.Header.Blocks = append(e.Header.Blocks, b)
	e.addr.Store(nil)
}

// headerBlocks returns the header's blocks, nil without a header.
func (e *Envelope) headerBlocks() []Block {
	if e.Header == nil {
		return nil
	}
	return e.Header.Blocks
}

// HeaderBlock returns the first header block with the given name.
func (e *Envelope) HeaderBlock(space, local string) (Block, bool) {
	for _, b := range e.headerBlocks() {
		if b.XMLName.Local == local && (space == "" || b.XMLName.Space == space) {
			return b, true
		}
	}
	return Block{}, false
}

// DecodeHeader decodes the named header block into v.
func (e *Envelope) DecodeHeader(space, local string, v any) error {
	b, ok := e.HeaderBlock(space, local)
	if !ok {
		return fmt.Errorf("%w: {%s}%s", ErrHeaderNotFound, space, local)
	}
	return b.Decode(v)
}

// RemoveHeader deletes all header blocks with the given name and reports
// whether any were removed.
func (e *Envelope) RemoveHeader(space, local string) bool {
	if e.Header == nil {
		return false
	}
	kept := e.Header.Blocks[:0]
	removed := false
	for _, b := range e.Header.Blocks {
		if b.XMLName.Local == local && (space == "" || b.XMLName.Space == space) {
			removed = true
			continue
		}
		kept = append(kept, b)
	}
	e.Header.Blocks = kept
	if removed {
		e.addr.Store(nil)
	}
	return removed
}

// SetBody replaces the body with the marshaled form of v.
func (e *Envelope) SetBody(v any) error {
	b, err := MarshalBlock(v)
	if err != nil {
		return err
	}
	e.SetBodyBlock(b)
	return nil
}

// SetBodyBlock replaces the body with an already-built block (see
// AddHeaderBlock). The first call on a NewEnvelope product fills its inline
// body slot; any later one allocates, so a slice of the previous body never
// changes under its holder.
func (e *Envelope) SetBodyBlock(b Block) {
	if slot := e.spareBody; slot != nil {
		e.spareBody = nil
		slot[0] = b
		e.Body.Blocks = slot[:]
		return
	}
	e.Body.Blocks = []Block{b}
}

// BodyName returns the qualified name of the first body child, or a zero
// name for an empty body.
func (e *Envelope) BodyName() xml.Name {
	if len(e.Body.Blocks) == 0 {
		return xml.Name{}
	}
	return e.Body.Blocks[0].XMLName
}

// DecodeBody decodes the first body child into v.
func (e *Envelope) DecodeBody(v any) error {
	if len(e.Body.Blocks) == 0 {
		return ErrEmptyBody
	}
	return e.Body.Blocks[0].Decode(v)
}

// Encode serializes the envelope with an XML declaration: the canonical
// scaffold with every block spliced verbatim into it (see wire.go), in one
// exactly sized allocation. A block the splice writer declines — only a
// hand-built one can be — makes it ErrNotSpliceable.
func (e *Envelope) Encode() ([]byte, error) {
	d := draft{lead: e.headerBlocks(), body: e.Body.Blocks, header: e.Header != nil}
	out, _, ok := d.encode(false)
	if !ok {
		return nil, ErrNotSpliceable
	}
	countBytesOut(len(out))
	return out, nil
}

// Decode parses a serialized envelope. The hand-rolled scanner (scan.go)
// takes the canonical wire format — prefix-free, every block declaring its
// own default namespace — in a single byte walk, and each block is then a
// verbatim slice of data, which the envelope keeps alive and which must not
// be modified afterwards. Every document the scanner declines (namespace
// prefixes, blocks inheriting an outer default namespace, a DOCTYPE, nesting
// beyond its name stack, malformed bytes) is judged by encoding/xml
// (decodeLegacy), which writes each block anew, self-contained, in the form
// the scanner slices (Block.UnmarshalXML). A scanned
// envelope is one allocation: the envelope, its header and its first blocks
// (see received). The envelope belongs to the caller: unlike a binding's
// one-way request, it is never recycled.
func Decode(data []byte) (*Envelope, error) {
	req, _, err := decodeRequest(data, false)
	if err != nil {
		return nil, err
	}
	return req.Envelope, nil
}

// decodeRequest is Decode for the bindings, which hand the handler a
// Request: a scanned document's Request is part of its envelope's object,
// rec, which pooled draws from receivedPool. A binding that asks for a
// pooled one hands rec back with release once the handler has returned; a
// document the fallback decoded has a Request of its own and a nil rec. The
// caller fills in Remote.
func decodeRequest(data []byte, pooled bool) (req *Request, rec *received, err error) {
	if len(data) > maxEnvelopeBytes {
		countDecodeError(true)
		return nil, nil, fmt.Errorf("soap: envelope of %d bytes exceeds the %d-byte cap", len(data), maxEnvelopeBytes)
	}
	if rec, ok := decodeScan(data, pooled); ok {
		countDecode(true, len(data))
		return &rec.req, rec, nil
	}
	env, err := decodeLegacy(data)
	if err != nil {
		countDecodeError(false)
		return nil, nil, err
	}
	countDecode(false, len(data))
	return &Request{Envelope: env}, nil, nil
}

// Clone deep-copies the envelope, including the captured block bytes.
// Fan-out paths use the cheaper Snapshot; Clone is for retention — an
// envelope that must outlive its delivery (and the transport's pooled
// receive buffer backing it) — and for callers that mutate Raw in place.
// It is two allocations: Snapshot's, and one slab holding every block's
// bytes. Each Raw is a full slice expression of the slab, so an append to
// one can never write into the next.
func (e *Envelope) Clone() *Envelope {
	out := e.Snapshot()
	size := 0
	for _, blocks := range [2][]Block{out.headerBlocks(), out.Body.Blocks} {
		for _, b := range blocks {
			size += len(b.Raw)
		}
	}
	slab := make([]byte, 0, size)
	for _, blocks := range [2][]Block{out.headerBlocks(), out.Body.Blocks} {
		for i := range blocks {
			start := len(slab)
			slab = append(slab, blocks[i].Raw...)
			blocks[i].Raw = slab[start:len(slab):len(slab)]
		}
	}
	return out
}

// Snapshot returns a copy-on-write clone: the header and body block lists
// are independent — adding, replacing, or removing blocks on one envelope
// never affects the other — while the captured Raw bytes are shared. Every
// mutation in this package replaces whole blocks and treats Raw as
// immutable, so the fan-out and store paths snapshot instead of
// deep-copying per target. The copy is one allocation (newShell), its
// block lists sized exactly.
func (e *Envelope) Snapshot() *Envelope {
	nh := len(e.headerBlocks())
	out, blocks := newShell(nh + len(e.Body.Blocks))
	out.XMLName = e.XMLName
	if e.Header == nil {
		out.Header = nil
	} else {
		out.Header.XMLName = e.Header.XMLName
		out.Header.Blocks = exactBlocks(blocks[:nh], e.Header.Blocks)
	}
	out.Body = Body{XMLName: e.Body.XMLName, Blocks: exactBlocks(blocks[nh:], e.Body.Blocks)}
	out.addr.Store(e.addr.Load())
	return out
}

// exactBlocks copies src into dst, which is exactly as long, and returns dst
// with its capacity cut to that length — or nil for none, as an append-built
// copy would be.
func exactBlocks(dst, src []Block) []Block {
	if len(src) == 0 {
		return nil
	}
	copy(dst, src)
	return dst[:len(src):len(src)]
}

// newShell allocates an envelope, its header and an n-block array as one
// object. The array is exactly n blocks for every count up to eight, which
// covers what the stack sends; a larger array is allocated on its own.
func newShell(n int) (*Envelope, []Block) {
	switch n {
	case 1:
		return shell(func(a *[1]Block) []Block { return a[:] })
	case 2:
		return shell(func(a *[2]Block) []Block { return a[:] })
	case 3:
		return shell(func(a *[3]Block) []Block { return a[:] })
	case 4:
		return shell(func(a *[4]Block) []Block { return a[:] })
	case 5:
		return shell(func(a *[5]Block) []Block { return a[:] })
	case 6:
		return shell(func(a *[6]Block) []Block { return a[:] })
	case 7:
		return shell(func(a *[7]Block) []Block { return a[:] })
	case 8:
		return shell(func(a *[8]Block) []Block { return a[:] })
	}
	env, _ := shell(func(*[0]Block) []Block { return nil })
	return env, make([]Block, n)
}

// shell allocates an envelope whose Header and block array share its
// allocation; blocks slices the array.
func shell[A any](blocks func(*A) []Block) (*Envelope, []Block) {
	s := new(struct {
		env    Envelope
		header Header
		blocks A
	})
	s.env.Header = &s.header
	return &s.env, blocks(&s.blocks)
}

// Addressing-header element shapes. WS-Addressing properties are individual
// top-level header blocks.
type (
	toHeader struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing To"`
		Value   string   `xml:",chardata"`
	}
	actionHeader struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing Action"`
		Value   string   `xml:",chardata"`
	}
	messageIDHeader struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing MessageID"`
		Value   string   `xml:",chardata"`
	}
	relatesToHeader struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing RelatesTo"`
		Value   string   `xml:",chardata"`
	}
	replyToHeader struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing ReplyTo"`
		Address string   `xml:"Address"`
	}
	fromHeader struct {
		XMLName xml.Name `xml:"http://www.w3.org/2005/08/addressing From"`
		Address string   `xml:"Address"`
	}
)

// SetAddressing writes the WS-Addressing properties into the header,
// replacing any existing addressing blocks. The blocks come from the
// flat-element writer (flat.go) — byte-identical to marshaling the header
// structs above — and share one backing buffer. The error is always nil; the
// signature predates the writer.
func (e *Envelope) SetAddressing(h wsa.Headers) error {
	if e.Header != nil {
		kept := e.Header.Blocks[:0]
		for _, b := range e.Header.Blocks {
			if !isAddressingName(b.XMLName) {
				kept = append(kept, b)
			}
		}
		e.Header.Blocks = kept
	}
	e.addr.Store(nil)
	var all [6]addressingProp
	n := 0
	for _, p := range [...]addressingProp{
		{kind: propTo, value: h.To},
		{kind: propAction, value: h.Action},
		{kind: propMessageID, value: string(h.MessageID)},
		{kind: propRelatesTo, value: string(h.RelatesTo)},
	} {
		if p.value != "" {
			all[n] = p
			n++
		}
	}
	if h.ReplyTo != nil {
		all[n] = addressingProp{kind: propReplyTo, value: h.ReplyTo.Address}
		n++
	}
	if h.From != nil {
		all[n] = addressingProp{kind: propFrom, value: h.From.Address}
		n++
	}
	props := all[:n]
	if len(props) == 0 {
		return nil
	}
	size := 0
	for _, p := range props {
		size += p.size()
	}
	e.ensureHeader()
	buf := make([]byte, 0, size)
	for _, p := range props {
		start := len(buf)
		buf = p.append(buf)
		// Full slice expression: an append to this Raw can never run into
		// the next block's bytes.
		e.Header.Blocks = append(e.Header.Blocks, Block{
			XMLName: xml.Name{Space: wsa.Namespace, Local: addressingLocals[p.kind]},
			Raw:     buf[start:len(buf):len(buf)],
		})
	}
	return nil
}

// The addressing properties, in the order SetAddressing writes them, and
// their element names; the last two are endpoint references, whose address is
// wrapped in one child element.
const (
	propTo = iota
	propAction
	propMessageID
	propRelatesTo
	propReplyTo
	propFrom
)

var addressingLocals = [...]string{"To", "Action", "MessageID", "RelatesTo", "ReplyTo", "From"}

// addressingProp is one addressing block to write: `<local xmlns=wsa>value
// </local>`, the value wrapped in an <Address> child for the
// endpoint-reference properties. A MessageID may come as id, its bytes, with
// value empty. The name is looked up by kind rather than held: a string
// field kept from here would, to escape analysis, take id's bytes to the
// heap with it.
type addressingProp struct {
	kind  int
	value string
	id    []byte
}

// append writes the block to dst.
func (p addressingProp) append(dst []byte) []byte {
	local := addressingLocals[p.kind]
	dst = AppendFlatOpen(dst, wsa.Namespace, local)
	if p.kind < propReplyTo {
		dst = AppendEscaped(dst, p.value)
		// An ID that needs escaping is copied first: handed to the escaper
		// as it is, it would leak to the heap, and an ID a sender wrote on
		// its stack with it.
		if plainText(p.id) {
			dst = append(dst, p.id...)
		} else {
			dst = AppendEscaped(dst, bytes.Clone(p.id))
		}
	} else {
		dst = AppendFlatText(dst, "Address", p.value)
	}
	return AppendFlatClose(dst, local)
}

// size is the block's length when value needs no escaping; SetAddressing
// sizes its buffer with it and append covers the rare escaped value.
func (p addressingProp) size() int {
	n := len(`< xmlns="">`) + len(wsa.Namespace) + len(`</>`) + 2*len(addressingLocals[p.kind]) + len(p.value) + len(p.id)
	if p.kind >= propReplyTo {
		n += len(`<Address></Address>`)
	}
	return n
}

// isAddressingName reports whether n names one of the WS-Addressing
// properties SetAddressing owns.
func isAddressingName(n xml.Name) bool {
	if n.Space != wsa.Namespace {
		return false
	}
	switch n.Local {
	case "To", "Action", "MessageID", "RelatesTo", "ReplyTo", "From":
		return true
	}
	return false
}

// Addressing extracts the WS-Addressing properties from the header. Missing
// blocks yield zero fields; callers validate what they require. The result
// is cached on the envelope (invalidated by header mutations), so the
// per-delivery dispatch chain pays for at most one parse.
func (e *Envelope) Addressing() wsa.Headers {
	if h := e.addr.Load(); h != nil {
		return *h
	}
	h := e.computeAddressing()
	e.addr.Store(&h)
	return h
}

// computeAddressing walks the header blocks once. The simple text
// properties (To, Action, MessageID, RelatesTo) are extracted directly from
// the captured block bytes; only blocks with element children (ReplyTo,
// From) or unusual content run through encoding/xml.
func (e *Envelope) computeAddressing() wsa.Headers {
	var h wsa.Headers
	if e.Header == nil {
		return h
	}
	const (
		fTo = 1 << iota
		fAction
		fMessageID
		fRelatesTo
		fReplyTo
		fFrom
	)
	var seen uint8
	for _, b := range e.Header.Blocks {
		if b.XMLName.Space != wsa.Namespace {
			continue
		}
		// First block of each name wins, like the HeaderBlock lookup the
		// per-property decode used to run.
		switch b.XMLName.Local {
		case "To":
			if seen&fTo != 0 {
				continue
			}
			seen |= fTo
			if v, ok := headerText(b.Raw); ok {
				h.To = v
			} else {
				var t toHeader
				if b.Decode(&t) == nil {
					h.To = t.Value
				}
			}
		case "Action":
			if seen&fAction != 0 {
				continue
			}
			seen |= fAction
			if v, ok := headerText(b.Raw); ok {
				h.Action = v
			} else {
				var a actionHeader
				if b.Decode(&a) == nil {
					h.Action = a.Value
				}
			}
		case "MessageID":
			if seen&fMessageID != 0 {
				continue
			}
			seen |= fMessageID
			if v, ok := headerText(b.Raw); ok {
				h.MessageID = wsa.MessageID(v)
			} else {
				var m messageIDHeader
				if b.Decode(&m) == nil {
					h.MessageID = wsa.MessageID(m.Value)
				}
			}
		case "RelatesTo":
			if seen&fRelatesTo != 0 {
				continue
			}
			seen |= fRelatesTo
			if v, ok := headerText(b.Raw); ok {
				h.RelatesTo = wsa.MessageID(v)
			} else {
				var r relatesToHeader
				if b.Decode(&r) == nil {
					h.RelatesTo = wsa.MessageID(r.Value)
				}
			}
		case "ReplyTo":
			if seen&fReplyTo != 0 {
				continue
			}
			seen |= fReplyTo
			var r replyToHeader
			if b.Decode(&r) == nil {
				epr := wsa.NewEPR(r.Address)
				h.ReplyTo = &epr
			}
		case "From":
			if seen&fFrom != 0 {
				continue
			}
			seen |= fFrom
			var f fromHeader
			if b.Decode(&f) == nil {
				epr := wsa.NewEPR(f.Address)
				h.From = &epr
			}
		}
	}
	return h
}

// Action returns the wsa:Action property — what a dispatcher routes on —
// without building the rest of Addressing: the text of the first wsa:Action
// header block is read where it lies and interned, so the result costs no
// allocation once the action has been seen and never aliases the envelope's
// bytes. Text that does not stand for itself (entity or character
// references, carriage returns, child content) takes Addressing's parse.
func (e *Envelope) Action() string {
	if h := e.addr.Load(); h != nil {
		return h.Action
	}
	for _, b := range e.headerBlocks() {
		if b.XMLName.Local != "Action" || b.XMLName.Space != wsa.Namespace {
			continue
		}
		if text, ok := headerChars(b.Raw); ok && FlatText(text).IsLiteral() {
			return names.intern(text)
		}
		return e.Addressing().Action
	}
	return ""
}

// MessageIDKey returns the wsa:MessageID property as bytes to look up or
// write with, like FlatText.Key, without building the rest of Addressing:
// the text of the first wsa:MessageID header block where it lies when it
// stands for itself — a view of the block, dying with the delivery's receive
// buffer — and otherwise Addressing's parse of it, copied. Nil when the
// header has none.
func (e *Envelope) MessageIDKey() []byte {
	for _, b := range e.headerBlocks() {
		if b.XMLName.Local != "MessageID" || b.XMLName.Space != wsa.Namespace {
			continue
		}
		if text, ok := headerChars(b.Raw); ok && FlatText(text).IsLiteral() {
			return text
		}
		if id := e.Addressing().MessageID; id != "" {
			return []byte(id)
		}
		return nil
	}
	return nil
}

// headerText extracts the character content of a simple captured element —
// no child elements, comments, or CDATA — unescaping entity references and
// normalizing line endings exactly as encoding/xml chardata capture would.
// ok=false sends the block to the encoding/xml slow path.
func headerText(raw []byte) (string, bool) {
	text, ok := headerChars(raw)
	if !ok {
		return "", false
	}
	return unescapeText(text)
}

// headerChars returns the character content of a simple captured element as
// it lies in raw, still escaped: empty for a self-closing element, ok=false
// for child elements, comments and CDATA.
func headerChars(raw []byte) ([]byte, bool) {
	// Skip the start tag, honouring quoted attribute values (which may
	// contain '>' and '/>').
	i := 1
	for i < len(raw) && raw[i] != '>' {
		if c := raw[i]; c == '"' || c == '\'' {
			i++
			for i < len(raw) && raw[i] != c {
				i++
			}
			if i >= len(raw) {
				return nil, false
			}
		}
		i++
	}
	if i >= len(raw) {
		return nil, false
	}
	if raw[i-1] == '/' {
		return nil, true // self-closing: empty content
	}
	i++
	start := i
	for i < len(raw) && raw[i] != '<' {
		i++
	}
	if i+1 >= len(raw) || raw[i+1] != '/' {
		return nil, false // child element, comment, or CDATA: slow path
	}
	return raw[start:i], true
}

// unescapeText expands entity references and normalizes \r\n / \r to \n,
// mirroring encoding/xml's chardata handling. Unknown entities fall back.
func unescapeText(text []byte) (string, bool) {
	if FlatText(text).IsLiteral() {
		return string(text), true
	}
	out := make([]byte, 0, len(text))
	for i := 0; i < len(text); {
		switch c := text[i]; c {
		case '&':
			n, r := entityLen(text[i:])
			if n < 0 {
				return "", false
			}
			out = utf8.AppendRune(out, r)
			i += n
		case '\r':
			out = append(out, '\n')
			i++
			if i < len(text) && text[i] == '\n' {
				i++
			}
		default:
			out = append(out, c)
			i++
		}
	}
	return string(out), true
}
