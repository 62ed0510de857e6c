package soap

import (
	"bytes"
	"encoding/xml"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"wsgossip/internal/wsa"
)

// Hand-rolled wire scanner.
//
// decodeScan is Decode's fast path: a direct []byte walk over the canonical
// wire format — the prefix-free documents the splice serializer emits, where
// every header/body block carries its own default xmlns declaration — plus
// the benign variation real peers produce (whitespace, comments, processing
// instructions, CDATA, character references, attributes with quoted '>' and
// '/>'). It matches the fixed Envelope/Header/Body scaffolding and slices
// each child block verbatim, tracking element nesting with a name stack,
// without ever running the encoding/xml tokenizer.
//
// Correctness is preserved by construction: every deviation from the
// grammar below returns ok=false and Decode hands the document to
// encoding/xml (decodeLegacy), so the scanner can only make canonical
// documents cheaper — it can never change what Decode accepts. Where the
// scanner does accept, the fallback must accept too and capture the same
// blocks: same names, same addressing, semantically equal content, and each
// scanner Raw a slice of the input. That law is pinned over a hand-built
// corpus and generated envelopes (scannerAgrees in scan_test.go) and fuzzed
// by FuzzDecodeEquivalence.
//
// Declined to the fallback (not exhaustive): namespace prefixes (':' in any
// element or attribute name, which also covers every "xmlns:" declaration),
// DOCTYPE and other <!…> directives, blocks without their own default xmlns
// declaration (they would inherit the envelope namespace and stop being
// self-contained), entity references where the scanner would have to
// resolve them structurally (inside an xmlns value), duplicate xmlns
// attributes on one tag, non-whitespace text between scaffolding elements,
// non-UTF-8 encoding declarations, xml-declaration PIs outside the prolog
// (the fallback's capture refuses them), and nesting deeper than the fixed
// name stack. Inside accepted regions the scanner enforces exactly what
// encoding/xml enforces: valid UTF-8, XML character range, the five named
// entities plus in-range numeric references, quoted attribute values with
// no raw '<', no literal "]]>" in character data, matching end tags, and
// '--'-free comments.

const maxScanDepth = 24 // nested elements per block; deeper falls back

var (
	envelopeLocal = []byte("Envelope")
	headerLocal   = []byte("Header")
	bodyLocal     = []byte("Body")
	envelopeNS    = []byte(Namespace)

	soapEnvelopeName = xml.Name{Space: Namespace, Local: "Envelope"}
	soapHeaderName   = xml.Name{Space: Namespace, Local: "Header"}
	soapBodyName     = xml.Name{Space: Namespace, Local: "Body"}

	piOpen        = []byte("<?")
	piClose       = []byte("?>")
	commentOpen   = []byte("<!--")
	commentDashes = []byte("--")
	cdataOpen     = []byte("<![CDATA[")
	cdataClose    = []byte("]]>")
)

// Inline block capacity of a scanned envelope. A gossiped notification
// carries five header blocks (To, Action, MessageID, Gossip,
// CoordinationContext) and one body child; a batch — an IHAVE listing an
// announce round, a push-sum exchange or ack envelope — carries a few body
// children. An envelope with more blocks than this appends past the inline
// array like any slice.
const (
	inlineHeaderBlocks = 7
	inlineBodyBlocks   = 4
)

// received is everything decodeScan builds for one document, allocated as a
// single object: the Request a binding hands its handler, the Envelope, its
// Header, and the array the header and body block slices start out in. The
// header gets blocks[:inlineHeaderBlocks] and the body the rest, each through
// a full slice expression, so an append to one can never write into the
// other's blocks.
//
// A binding's one-way delivery draws it from receivedPool and hands it back
// with release once the handler has returned; Decode's and a Call's are the
// caller's and never go back.
type received struct {
	req    Request
	env    Envelope
	header Header
	blocks [inlineHeaderBlocks + inlineBodyBlocks]Block
}

var receivedPool = sync.Pool{New: func() any { return new(received) }}

// release zeroes r, so a handler that kept its request finds it empty rather
// than reading the next delivery, and returns it to receivedPool. A nil r (a
// document the fallback decoded) is a no-op.
func (r *received) release() {
	if r == nil {
		return
	}
	*r = received{}
	receivedPool.Put(r)
}

// decodeScan parses data with a direct byte walk into a received object,
// drawn from receivedPool when pooled. ok=false means the document strays
// from the canonical grammar and the caller must fall back; it never implies
// the document is malformed.
func decodeScan(data []byte, pooled bool) (*received, bool) {
	s := wireScanner{data: data}
	if !s.prolog() {
		return nil, false
	}
	root, ok := s.startTag()
	if !ok || !bytes.Equal(s.name(root), envelopeLocal) ||
		!root.hasXMLNS || !bytes.Equal(s.slice(root.nsStart, root.nsEnd), envelopeNS) {
		return nil, false
	}
	var r *received
	if pooled {
		r = receivedPool.Get().(*received)
	} else {
		r = new(received)
	}
	r.req.Envelope = &r.env
	r.env.XMLName = soapEnvelopeName
	if !root.selfClose && !s.envelope(r) {
		if pooled {
			r.release()
		}
		return nil, false
	}
	return r, true
}

// envelope captures the children of the Envelope element whose open tag was
// just consumed into r, through its end tag.
func (s *wireScanner) envelope(r *received) bool {
	env := &r.env
	for {
		s.ws()
		if s.pos >= len(s.data) || s.data[s.pos] != '<' {
			// EOF inside the envelope, or loose text between scaffolding
			// elements (which could carry entities to validate): fall back.
			return false
		}
		switch {
		case s.lookingAt(commentOpen):
			if !s.comment() {
				return false
			}
		case s.lookingAt(piOpen):
			if !s.pi(false) {
				return false
			}
		case s.pos+1 < len(s.data) && s.data[s.pos+1] == '/':
			name, ok := s.endTag()
			// Like xml.Unmarshal, anything after </Envelope> is never read.
			return ok && bytes.Equal(name, envelopeLocal)
		case s.pos+1 < len(s.data) && s.data[s.pos+1] == '!':
			return false // DOCTYPE or other directive
		default:
			tag, ok := s.startTag()
			if !ok {
				return false
			}
			name := s.name(tag)
			// Header/Body inherit the envelope default namespace unless the
			// tag redeclares it; only the SOAP-namespace containers are
			// captured, everything else is skipped like Decoder.Skip would.
			soapScope := !tag.hasXMLNS || bytes.Equal(s.slice(tag.nsStart, tag.nsEnd), envelopeNS)
			switch {
			case soapScope && bytes.Equal(name, headerLocal):
				if env.Header == nil {
					r.header.XMLName = soapHeaderName
					env.Header = &r.header
				}
				inline := r.blocks[:0:inlineHeaderBlocks]
				if !tag.selfClose && !s.container(headerLocal, &env.Header.Blocks, inline) {
					return false
				}
			case soapScope && bytes.Equal(name, bodyLocal):
				env.Body.XMLName = soapBodyName
				inline := r.blocks[inlineHeaderBlocks:inlineHeaderBlocks:len(r.blocks)]
				if !tag.selfClose && !s.container(bodyLocal, &env.Body.Blocks, inline) {
					return false
				}
			default:
				if !tag.selfClose && !s.subtree(name) {
					return false
				}
			}
		}
	}
}

// wireScanner is a cursor over one document. All methods advance pos past
// what they consumed and report false on anything non-canonical.
type wireScanner struct {
	data []byte
	pos  int
}

func (s *wireScanner) slice(i, j int) []byte   { return s.data[i:j] }
func (s *wireScanner) name(t startTag) []byte  { return s.data[t.nameStart:t.nameEnd] }
func (s *wireScanner) lookingAt(p []byte) bool { return bytes.HasPrefix(s.data[s.pos:], p) }

func (s *wireScanner) ws() {
	for s.pos < len(s.data) && isXMLSpace(s.data[s.pos]) {
		s.pos++
	}
}

// prolog consumes everything before the root start tag: whitespace,
// comments, and processing instructions (checking any xml declaration for a
// UTF-8 encoding). It leaves pos at the root '<'.
func (s *wireScanner) prolog() bool {
	for {
		s.ws()
		if s.pos >= len(s.data) || s.data[s.pos] != '<' {
			return false
		}
		switch {
		case s.lookingAt(commentOpen):
			if !s.comment() {
				return false
			}
		case s.lookingAt(piOpen):
			if !s.pi(true) {
				return false
			}
		default:
			if s.pos+1 < len(s.data) && (s.data[s.pos+1] == '!' || s.data[s.pos+1] == '/') {
				return false
			}
			return true
		}
	}
}

// container captures every child element of a Header or Body whose open tag
// was just consumed, through the matching end tag. Each captured block is a
// verbatim slice spanning the child's start tag through its end tag. The
// first block starts *out off at inline (a container without children
// leaves it nil, as encoding/xml does).
func (s *wireScanner) container(local []byte, out *[]Block, inline []Block) bool {
	for {
		s.ws()
		if s.pos >= len(s.data) || s.data[s.pos] != '<' {
			return false
		}
		switch {
		case s.lookingAt(commentOpen):
			if !s.comment() {
				return false
			}
		case s.lookingAt(piOpen):
			if !s.pi(false) {
				return false
			}
		case s.pos+1 < len(s.data) && s.data[s.pos+1] == '/':
			name, ok := s.endTag()
			return ok && bytes.Equal(name, local)
		case s.pos+1 < len(s.data) && s.data[s.pos+1] == '!':
			return false
		default:
			start := s.pos
			tag, ok := s.startTag()
			if !ok {
				return false
			}
			if !tag.hasXMLNS {
				// The block would inherit the envelope's default namespace
				// and its verbatim slice would not be self-contained; the
				// fallback's capture writes the namespace into the block.
				return false
			}
			if !tag.selfClose && !s.subtree(s.name(tag)) {
				return false
			}
			space, ok := nsValue(s.slice(tag.nsStart, tag.nsEnd))
			if !ok {
				return false
			}
			if *out == nil {
				*out = inline
			}
			*out = append(*out, Block{
				XMLName: xml.Name{Space: space, Local: names.intern(s.name(tag))},
				Raw:     s.data[start:s.pos],
			})
		}
	}
}

// subtree validates the content of an element whose start tag was just
// consumed, through its matching end tag: nested elements (end tags must
// match by name), text with entity references, CDATA, comments, and PIs.
func (s *wireScanner) subtree(root []byte) bool {
	var stackArr [maxScanDepth][]byte
	stack := append(stackArr[:0], root)
	for len(stack) > 0 {
		if !s.text() {
			return false
		}
		switch {
		case s.lookingAt(commentOpen):
			if !s.comment() {
				return false
			}
		case s.lookingAt(cdataOpen):
			if !s.cdata() {
				return false
			}
		case s.lookingAt(piOpen):
			if !s.pi(false) {
				return false
			}
		case s.pos+1 < len(s.data) && s.data[s.pos+1] == '/':
			name, ok := s.endTag()
			if !ok || !bytes.Equal(name, stack[len(stack)-1]) {
				return false
			}
			stack = stack[:len(stack)-1]
		case s.pos+1 < len(s.data) && s.data[s.pos+1] == '!':
			return false
		default:
			tag, ok := s.startTag()
			if !ok {
				return false
			}
			if !tag.selfClose {
				if len(stack) == maxScanDepth {
					return false
				}
				stack = append(stack, s.name(tag))
			}
		}
	}
	return true
}

// text consumes character data up to the next '<', validating characters
// and entity references exactly as strictly as encoding/xml does —
// including the ban on a literal "]]>" outside a CDATA section.
func (s *wireScanner) text() bool {
	data := s.data
	i := s.pos
	for i < len(data) {
		c := data[i]
		if c == '<' {
			s.pos = i
			return true
		}
		if c == '&' {
			n, _ := entityLen(data[i:])
			if n < 0 {
				return false
			}
			i += n
			continue
		}
		if c == ']' && i+2 < len(data) && data[i+1] == ']' && data[i+2] == '>' {
			return false
		}
		if c >= 0x20 && c < 0x80 {
			i++
			continue
		}
		if c == '\t' || c == '\n' || c == '\r' {
			i++
			continue
		}
		if c < 0x20 {
			return false
		}
		r, size := utf8.DecodeRune(data[i:])
		if (r == utf8.RuneError && size == 1) || r == 0xFFFE || r == 0xFFFF {
			return false
		}
		i += size
	}
	return false // EOF inside an element
}

// startTag parses a start tag at pos ('<'). Element and attribute names are
// restricted to a prefix-free ASCII subset of XML names; attribute values
// may contain quoted '>' and '/>' and validated entity references.
type startTag struct {
	nameStart, nameEnd int
	nsStart, nsEnd     int // value span of the default xmlns attribute
	hasXMLNS           bool
	selfClose          bool
}

func (s *wireScanner) startTag() (startTag, bool) {
	var t startTag
	data := s.data
	i := s.pos + 1
	t.nameStart = i
	i = scanName(data, i)
	if i < 0 {
		return t, false
	}
	t.nameEnd = i
	for {
		sawSpace := false
		for i < len(data) && isXMLSpace(data[i]) {
			i++
			sawSpace = true
		}
		if i >= len(data) {
			return t, false
		}
		switch data[i] {
		case '>':
			s.pos = i + 1
			return t, true
		case '/':
			if i+1 >= len(data) || data[i+1] != '>' {
				return t, false
			}
			t.selfClose = true
			s.pos = i + 2
			return t, true
		}
		if !sawSpace {
			return t, false
		}
		aStart := i
		i = scanName(data, i)
		if i < 0 {
			return t, false
		}
		aEnd := i
		for i < len(data) && isXMLSpace(data[i]) {
			i++
		}
		if i >= len(data) || data[i] != '=' {
			return t, false
		}
		i++
		for i < len(data) && isXMLSpace(data[i]) {
			i++
		}
		if i >= len(data) || (data[i] != '"' && data[i] != '\'') {
			return t, false
		}
		quote := data[i]
		i++
		vStart := i
		i = scanAttrValue(data, i, quote)
		if i < 0 {
			return t, false
		}
		vEnd := i
		i++ // closing quote
		if string(data[aStart:aEnd]) == "xmlns" {
			if t.hasXMLNS {
				return t, false // duplicate declaration: ambiguous, fall back
			}
			t.hasXMLNS = true
			t.nsStart, t.nsEnd = vStart, vEnd
		}
	}
}

// endTag parses an end tag at pos ("</") and returns the name.
func (s *wireScanner) endTag() ([]byte, bool) {
	data := s.data
	start := s.pos + 2
	i := scanName(data, start)
	if i < 0 {
		return nil, false
	}
	end := i
	for i < len(data) && isXMLSpace(data[i]) {
		i++
	}
	if i >= len(data) || data[i] != '>' {
		return nil, false
	}
	s.pos = i + 1
	return data[start:end], true
}

// comment consumes "<!-- … -->" at pos. Like encoding/xml, "--" may appear
// only as part of the terminator.
func (s *wireScanner) comment() bool {
	i := s.pos + len(commentOpen)
	rel := bytes.Index(s.data[i:], commentDashes)
	if rel < 0 || i+rel+2 >= len(s.data) || s.data[i+rel+2] != '>' {
		return false
	}
	if !validRawChars(s.data[i : i+rel]) {
		return false
	}
	s.pos = i + rel + 3
	return true
}

// cdata consumes "<![CDATA[ … ]]>" at pos, validating characters.
func (s *wireScanner) cdata() bool {
	i := s.pos + len(cdataOpen)
	rel := bytes.Index(s.data[i:], cdataClose)
	if rel < 0 || !validRawChars(s.data[i:i+rel]) {
		return false
	}
	s.pos = i + rel + len(cdataClose)
	return true
}

// pi consumes "<? … ?>" at pos. Outside the prolog any xml declaration
// makes the scanner decline: the fallback's capture refuses a block
// containing one, so only the fallback may judge it. In the
// prolog (allowXMLDecl) it must not declare a non-UTF-8 encoding
// (encoding/xml would demand a CharsetReader).
func (s *wireScanner) pi(allowXMLDecl bool) bool {
	i := s.pos + len(piOpen)
	rel := bytes.Index(s.data[i:], piClose)
	if rel < 0 {
		return false
	}
	body := s.data[i : i+rel]
	// encoding/xml demands a target name right after "<?".
	if scanName(body, 0) <= 0 {
		return false
	}
	if !validRawChars(body) {
		return false
	}
	if isXMLDecl(body) && (!allowXMLDecl || !utf8Declared(body)) {
		return false
	}
	s.pos = i + rel + len(piClose)
	return true
}

// isXMLDecl reports whether a PI body is an xml declaration ("xml" target).
func isXMLDecl(body []byte) bool {
	if len(body) < 3 {
		return false
	}
	if (body[0]|0x20) != 'x' || (body[1]|0x20) != 'm' || (body[2]|0x20) != 'l' {
		return false
	}
	return len(body) == 3 || isXMLSpace(body[3])
}

// utf8Declared reports whether an xml declaration either omits the encoding
// pseudo-attribute or declares a UTF-8 variant.
func utf8Declared(body []byte) bool {
	i := bytes.Index(body, []byte("encoding"))
	if i < 0 {
		return true
	}
	i += len("encoding")
	for i < len(body) && isXMLSpace(body[i]) {
		i++
	}
	if i >= len(body) || body[i] != '=' {
		return false
	}
	i++
	for i < len(body) && isXMLSpace(body[i]) {
		i++
	}
	if i >= len(body) || (body[i] != '"' && body[i] != '\'') {
		return false
	}
	quote := body[i]
	i++
	end := bytes.IndexByte(body[i:], quote)
	if end < 0 {
		return false
	}
	val := body[i : i+end]
	return len(val) == 5 &&
		(val[0]|0x20) == 'u' && (val[1]|0x20) == 't' && (val[2]|0x20) == 'f' &&
		val[3] == '-' && val[4] == '8'
}

// scanName consumes an element or attribute name: a prefix-free ASCII
// subset of XML names ([A-Za-z_] then [A-Za-z0-9._-]). Names outside the
// subset — prefixed, non-ASCII — make the scanner fall back; the subset is
// strictly narrower than what encoding/xml accepts, never wider.
func scanName(data []byte, i int) int {
	if i >= len(data) {
		return -1
	}
	c := data[i]
	if !(c == '_' || c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z') {
		return -1
	}
	i++
	for i < len(data) {
		c = data[i]
		if c == '_' || c == '.' || c == '-' ||
			c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			i++
			continue
		}
		break
	}
	return i
}

// scanAttrValue consumes a quoted attribute value and returns the index of
// the closing quote. Raw '<' is rejected (as encoding/xml does); '>' and
// "/>" are fine inside quotes; entities and characters are validated.
func scanAttrValue(data []byte, i int, quote byte) int {
	for i < len(data) {
		c := data[i]
		if c == quote {
			return i
		}
		switch {
		case c == '<':
			return -1
		case c == '&':
			n, _ := entityLen(data[i:])
			if n < 0 {
				return -1
			}
			i += n
		case c >= 0x20 && c < 0x80, c == '\t', c == '\n', c == '\r':
			i++
		case c < 0x20:
			return -1
		default:
			r, size := utf8.DecodeRune(data[i:])
			if (r == utf8.RuneError && size == 1) || r == 0xFFFE || r == 0xFFFF {
				return -1
			}
			i += size
		}
	}
	return -1
}

// entityLen validates the entity reference at the start of b (b[0] == '&')
// and returns its byte length plus the referenced rune, or n=-1 when it is
// not one of the five predefined named entities or an in-range numeric
// character reference — the exact set encoding/xml accepts in strict mode.
func entityLen(b []byte) (n int, r rune) {
	limit := len(b)
	if limit > 12 { // longest accepted: &#x10FFFF; plus slack
		limit = 12
	}
	semi := bytes.IndexByte(b[1:limit], ';')
	if semi < 0 {
		return -1, 0
	}
	body := b[1 : 1+semi]
	if len(body) == 0 {
		return -1, 0
	}
	if body[0] == '#' {
		num := body[1:]
		base := rune(10)
		if len(num) > 0 && num[0] == 'x' { // lowercase only, as in encoding/xml
			base = 16
			num = num[1:]
		}
		if len(num) == 0 {
			return -1, 0
		}
		for _, c := range num {
			var d rune
			switch {
			case c >= '0' && c <= '9':
				d = rune(c - '0')
			case base == 16 && c >= 'a' && c <= 'f':
				d = rune(c-'a') + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = rune(c-'A') + 10
			default:
				return -1, 0
			}
			r = r*base + d
			if r > 0x10FFFF {
				return -1, 0
			}
		}
		if !xmlCharOK(r) {
			return -1, 0
		}
		return semi + 2, r
	}
	switch string(body) {
	case "amp":
		return semi + 2, '&'
	case "lt":
		return semi + 2, '<'
	case "gt":
		return semi + 2, '>'
	case "apos":
		return semi + 2, '\''
	case "quot":
		return semi + 2, '"'
	}
	return -1, 0
}

// xmlCharOK mirrors encoding/xml's character range check.
func xmlCharOK(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// validRawChars validates a region that takes no entity processing
// (comments, PIs, CDATA) against the XML character range.
func validRawChars(seg []byte) bool {
	for i := 0; i < len(seg); {
		c := seg[i]
		if c >= 0x20 && c < 0x80 || c == '\t' || c == '\n' || c == '\r' {
			i++
			continue
		}
		if c < 0x20 {
			return false
		}
		r, size := utf8.DecodeRune(seg[i:])
		if (r == utf8.RuneError && size == 1) || r == 0xFFFE || r == 0xFFFF {
			return false
		}
		i += size
	}
	return true
}

// nsValue converts a scanned xmlns attribute value into a namespace string.
// Values needing entity expansion or newline normalization fall back.
func nsValue(b []byte) (string, bool) {
	if bytes.IndexByte(b, '&') >= 0 || bytes.IndexByte(b, '\r') >= 0 {
		return "", false
	}
	return names.intern(b), true
}

// Bounds of the intern table: a hostile peer inventing a fresh name per
// message can make it learn at most maxInternNames names of at most
// maxInternLen bytes, once per process; every name past either bound is
// copied per use. FlatText.Symbol learns a body value only while the table
// holds fewer than maxInternSymbols names, so however many peers one
// process talks to — a simulation of thousands of nodes — their addresses
// never take the room the block names, namespaces and actions need.
const (
	maxInternNames   = 1024
	maxInternLen     = 256
	maxInternSymbols = maxInternNames / 2
)

// names is the intern table of the wire path: block local names, namespace
// URIs, wsa:Action values, and the body values FlatText.Symbol reads, whose
// number the deployment bounds (peer addresses, aggregate functions,
// metrics, protocols). It is seeded with the protocol stack's names (values,
// not dependencies), so they are interned however full a peer has made the
// table.
var names = newInternTable(
	"", Namespace, wsa.Namespace,
	"urn:wsgossip:2008", "http://docs.oasis-open.org/ws-tx/wscoor/2006/06", "urn:wsgossip:membership",
	"To", "Action", "MessageID", "RelatesTo", "ReplyTo", "From", "Fault",
	"Gossip", "CoordinationContext", "Digest", "Announce", "Fetch", "PullRequest",
	"AggregateStart", "AggregateShare", "AggregateExchangeAck", "Membership",
)

// internTable maps a name's bytes to one shared string. Lookups take no
// lock: the map is never written once published, and learning a name
// publishes a copy with it added (at most maxInternNames copies, ever).
type internTable struct {
	m  atomic.Pointer[map[string]string]
	mu sync.Mutex // serializes learners
}

func newInternTable(seed ...string) *internTable {
	m := make(map[string]string, len(seed))
	for _, s := range seed {
		m[s] = s
	}
	t := &internTable{}
	t.m.Store(&m)
	return t
}

// intern returns the table's string for b, learning b while the table has
// room. The result is never a view of b: interned strings are the table's
// own, and a name the table will not take is copied.
func (t *internTable) intern(b []byte) string { return t.learn(b, maxInternNames) }

// symbol is intern for a body value: it learns b only while the table holds
// fewer than maxInternSymbols names.
func (t *internTable) symbol(b []byte) string { return t.learn(b, maxInternSymbols) }

// learn looks b up, and learns it while the table holds fewer than limit
// names.
func (t *internTable) learn(b []byte, limit int) string {
	m := *t.m.Load()
	if s, ok := m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) > maxInternLen || len(m) >= limit {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m = *t.m.Load()
	if have, ok := m[s]; ok {
		return have
	}
	if len(m) >= limit {
		return s
	}
	next := make(map[string]string, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	next[s] = s
	t.m.Store(&next)
	return s
}
