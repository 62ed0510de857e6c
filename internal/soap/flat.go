package soap

import (
	"bytes"
	"encoding/xml"
	"strconv"
	"unicode/utf8"
)

// Flat-element codec.
//
// The blocks a gossiped message rewrites or reads at every hop — the gossip
// header, the WS-Addressing properties, the lazy-push IHAVE/IWANT bodies, the
// push-sum share and its ack — all have one shape: a namespaced element whose
// content is either text or a fixed sequence of text-only children,
//
//	<X xmlns="ns">text</X>
//	<X xmlns="ns"><A>text</A><B>text</B></X>
//
// A child may also nest: an element without attributes holding further
// children of these kinds — what encoding/xml makes of a struct field, or of
// a `xml:"L>R"` slice of structs (the membership view's entries),
//
//	<X xmlns="ns"><A>text</A><L><R><B>text</B><N>7</N></R><R>…</R></L></X>
//
// This file writes and reads exactly that shape with byte-level code, so the
// per-hop path never runs encoding/xml's reflection.
//
// The writer is the only way those blocks are produced, and its output is
// byte-identical to xml.Marshal of the equivalent struct: same start tag,
// same child order, text escaped through xml.EscapeText.
//
// The reader accepts only what the writer emits — the exact start tag,
// children in the caller's fixed order, text-only leaves, no attributes,
// comments, CDATA, or whitespace between tags — and reports "not canonical"
// for everything else, so the caller falls through to Block.Decode. Like the
// wire scanner it can only make canonical input cheaper; what is accepted,
// and the values produced, never change. Text is validated as strictly as
// encoding/xml validates it (the scanner's own text walk), because a block
// may have been built by hand rather than captured by Decode.
//
// Ownership: the reader returns views into the block bytes (FlatText), which
// alias the transport's pooled receive buffer and die with the delivery.
// Every string it hands out is interned or copied, never a view: String
// copies, and Symbol returns the wire path's intern-table string for a value
// the deployment bounds and the node sees again and again (a peer address, an
// aggregate function, a protocol), so a known value costs nothing.

// AppendFlatOpen appends the start tag `<local xmlns="space">`. space must
// need no escaping (the protocol namespaces are constants).
func AppendFlatOpen(dst []byte, space, local string) []byte {
	dst = append(dst, '<')
	dst = append(dst, local...)
	dst = append(dst, ` xmlns="`...)
	dst = append(dst, space...)
	return append(dst, `">`...)
}

// AppendFlatClose appends the end tag `</local>`.
func AppendFlatClose(dst []byte, local string) []byte {
	dst = append(dst, '<', '/')
	dst = append(dst, local...)
	return append(dst, '>')
}

// AppendFlatStart appends a child's start tag `<name>`: the opening of a
// nested child, which AppendFlatClose ends.
func AppendFlatStart(dst []byte, name string) []byte {
	dst = append(dst, '<')
	dst = append(dst, name...)
	return append(dst, '>')
}

// AppendFlatText appends one text-only child, `<name>value</name>`, with
// value — a string, or bytes — escaped as character data.
func AppendFlatText[T string | []byte](dst []byte, name string, value T) []byte {
	dst = AppendFlatStart(dst, name)
	dst = AppendEscaped(dst, value)
	return AppendFlatClose(dst, name)
}

// AppendFlatInt appends one integer child, `<name>v</name>`.
func AppendFlatInt(dst []byte, name string, v int64) []byte {
	dst = strconv.AppendInt(AppendFlatStart(dst, name), v, 10)
	return AppendFlatClose(dst, name)
}

// AppendFlatUint appends one unsigned child, `<name>v</name>`.
func AppendFlatUint(dst []byte, name string, v uint64) []byte {
	dst = strconv.AppendUint(AppendFlatStart(dst, name), v, 10)
	return AppendFlatClose(dst, name)
}

// AppendFlatFloat appends one float64 child in xml.Marshal's form: the
// shortest decimal that round-trips ('g', -1), NaN and ±Inf included.
func AppendFlatFloat(dst []byte, name string, v float64) []byte {
	dst = strconv.AppendFloat(AppendFlatStart(dst, name), v, 'g', -1, 64)
	return AppendFlatClose(dst, name)
}

// AppendFlatBool appends one boolean child, `<name>true</name>` or
// `<name>false</name>`.
func AppendFlatBool(dst []byte, name string, v bool) []byte {
	dst = strconv.AppendBool(AppendFlatStart(dst, name), v)
	return AppendFlatClose(dst, name)
}

// AppendEscaped appends s — a string, or bytes such as an identifier read in
// place — escaped as XML character data, byte-identical to xml.EscapeText:
// text that needs no escaping is copied straight through, anything else goes
// through xml.EscapeText itself.
func AppendEscaped[T string | []byte](dst []byte, s T) []byte {
	if plainText(s) {
		return append(dst, s...)
	}
	buf := getBuf()
	_ = xml.EscapeText(buf, []byte(s)) // writes to a bytes.Buffer cannot fail
	dst = append(dst, buf.Bytes()...)
	bufPool.Put(buf)
	return dst
}

// plainText reports whether xml.EscapeText would emit s unchanged: no markup
// characters, no control characters (tab and newlines are escaped too), valid
// UTF-8, and every rune inside the XML character range.
func plainText[T string | []byte](s T) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c < 0x20, c == '<', c == '>', c == '&', c == '\'', c == '"':
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if (r == utf8.RuneError && size == 1) || !xmlCharOK(r) {
			return false
		}
		i += size
	}
	return true
}

// FlatReader walks one canonical flat element. The zero value is not
// usable; obtain one from OpenFlat. Every method reports false on the first
// departure from the canonical form, and the caller then decodes the block
// with encoding/xml instead.
type FlatReader struct {
	s wireScanner
}

// OpenFlat starts reading raw, which must begin with exactly the start tag
// AppendFlatOpen writes for (space, local).
func OpenFlat(raw []byte, space, local string) (FlatReader, bool) {
	r := FlatReader{s: wireScanner{data: raw}}
	ok := r.lit("<") && r.lit(local) && r.lit(` xmlns="`) && r.lit(space) && r.lit(`">`)
	return r, ok
}

// lit consumes the literal p.
func (r *FlatReader) lit(p string) bool {
	rest := r.s.data[r.s.pos:]
	if len(rest) < len(p) || string(rest[:len(p)]) != p {
		return false
	}
	r.s.pos += len(p)
	return true
}

// Text consumes the child `<name>text</name>` and returns its character
// data in place. On false nothing is consumed, so an optional child can be
// probed for.
func (r *FlatReader) Text(name string) (FlatText, bool) {
	mark := r.s.pos
	if r.lit("<") && r.lit(name) && r.lit(">") {
		start := r.s.pos
		if r.s.text() {
			text := r.s.data[start:r.s.pos]
			if r.lit("</") && r.lit(name) && r.lit(">") {
				return text, true
			}
		}
	}
	r.s.pos = mark
	return nil, false
}

// String consumes the child `<name>text</name>` and returns its value as
// encoding/xml would decode it, in a fresh string.
func (r *FlatReader) String(name string) (string, bool) {
	text, ok := r.Text(name)
	return text.String(), ok
}

// Symbol is String for a value that recurs on the wire: see FlatText.Symbol.
func (r *FlatReader) Symbol(name string) (string, bool) {
	text, ok := r.Text(name)
	return text.Symbol(), ok
}

// Enter consumes the start tag `<name>` of a nested child, whose children the
// caller then reads in their fixed order and Leave ends. On false nothing is
// consumed, so a run of nested children can be walked by entering until it
// fails.
func (r *FlatReader) Enter(name string) bool {
	mark := r.s.pos
	if r.lit("<") && r.lit(name) && r.lit(">") {
		return true
	}
	r.s.pos = mark
	return false
}

// Leave consumes the end tag `</name>` of the nested child Enter opened.
func (r *FlatReader) Leave(name string) bool {
	mark := r.s.pos
	if r.lit("</") && r.lit(name) && r.lit(">") {
		return true
	}
	r.s.pos = mark
	return false
}

// readFlat consumes the child `<name>text</name>` if parse accepts its text.
// On false nothing is consumed: an optional child can be probed for, and a
// malformed one stops the next read.
func readFlat[T any](r *FlatReader, name string, parse func(FlatText) (T, bool)) (v T, ok bool) {
	mark := r.s.pos
	if text, found := r.Text(name); found {
		if v, ok = parse(text); ok {
			return v, true
		}
	}
	r.s.pos = mark
	return v, false
}

// Int consumes the child `<name>v</name>` where v is a decimal integer as
// strconv prints one: an optional '-' and one to nine digits (every such
// value fits an int on any platform and parses identically in encoding/xml).
// On false nothing is consumed.
func (r *FlatReader) Int(name string) (int, bool) {
	return readFlat(r, name, func(text FlatText) (int, bool) {
		digits := text
		if len(digits) > 0 && digits[0] == '-' {
			digits = digits[1:]
		}
		if len(digits) == 0 || len(digits) > 9 {
			return 0, false
		}
		v := 0
		for _, c := range digits {
			if c < '0' || c > '9' {
				return 0, false
			}
			v = v*10 + int(c-'0')
		}
		if len(digits) != len(text) {
			v = -v
		}
		return v, true
	})
}

// Uint consumes the child `<name>v</name>` where v is an unsigned decimal
// integer. Like Float it hands the literal text to the strconv function
// encoding/xml decodes the type with; encoding/xml only trims surrounding
// whitespace first, which that function rejects, so a value accepted here is
// the value xml.Unmarshal yields. On false nothing is consumed.
func (r *FlatReader) Uint(name string) (uint64, bool) {
	return readFlat(r, name, func(text FlatText) (uint64, bool) {
		v, err := strconv.ParseUint(string(text), 10, 64)
		return v, err == nil
	})
}

// Float consumes the child `<name>v</name>` where v is a float64 (see Uint).
func (r *FlatReader) Float(name string) (float64, bool) {
	return readFlat(r, name, func(text FlatText) (float64, bool) {
		v, err := strconv.ParseFloat(string(text), 64)
		return v, err == nil
	})
}

// Bool consumes the child `<name>true</name>` or `<name>false</name>`, the
// two spellings the writer emits. On false nothing is consumed.
func (r *FlatReader) Bool(name string) (v, ok bool) {
	return readFlat(r, name, func(text FlatText) (bool, bool) {
		switch string(text) {
		case "true":
			return true, true
		case "false":
			return false, true
		}
		return false, false
	})
}

// Close consumes the end tag `</local>` and reports whether it ends the
// block: trailing bytes are not canonical.
func (r *FlatReader) Close(local string) bool {
	return r.lit("</") && r.lit(local) && r.lit(">") && r.s.pos == len(r.s.data)
}

// FlatText is the character data of one child as FlatReader.Text found it:
// validated, still escaped, and a view into the block — it dies with the
// delivery's receive buffer.
type FlatText []byte

// String returns the value encoding/xml would decode — entity references
// expanded, line endings normalized — always as a fresh copy, never a view.
func (t FlatText) String() string {
	s, _ := unescapeText(t) // cannot fail: Text validated every reference
	return s
}

// Symbol returns the value String would, resolved through the wire path's
// intern table (the one that holds block names and actions): text that
// stands for itself is looked up in place, so a value the table holds costs
// no allocation, and a new one is learned while the table holds fewer than
// maxInternSymbols names (half its cap, the other half staying for block
// names and actions). Escaped text is unescaped and copied, never learned.
// Like String it never returns a view. The table never forgets, so Symbol is
// only for values whose number the deployment bounds — peer addresses,
// aggregate functions and metrics, protocol names — and never for an
// identifier minted at run time: a MessageID (one per notification), a task
// or an interaction ID (one per coordination context) would fill the table
// with values that stop recurring, and every value past it would be copied.
func (t FlatText) Symbol() string {
	if t.IsLiteral() {
		return names.symbol(t)
	}
	return t.String()
}

// IsLiteral reports whether the bytes stand for themselves — no entity
// references, no carriage returns to normalize — so they can serve as a
// lookup key without unescaping.
func (t FlatText) IsLiteral() bool {
	return bytes.IndexByte(t, '&') < 0 && bytes.IndexByte(t, '\r') < 0
}

// Key returns the value as bytes to look up with m[string(key)], which does
// not allocate: the text itself when it stands for itself — a view, dying
// with the delivery like t — and otherwise its unescaped copy.
func (t FlatText) Key() []byte {
	if t.IsLiteral() {
		return t
	}
	return []byte(t.String())
}
