package membership

import (
	"encoding/xml"
	"errors"

	"wsgossip/internal/soap"
)

// The one wire form of a membership message (see the package doc), on soap's
// flat-element codec: the writer is byte-identical to xml.Marshal of
// envelopeBody; the reader accepts only that canonical form, and
// canonicalBody hands anything else to encoding/xml and rewrites what it
// reads, so the Service has exactly one reader (FuzzMembershipBody pins both
// halves).

// envelopeBody is a membership message as encoding/xml sees it: the fallback
// decoder's target and the tests' oracle.
type envelopeBody struct {
	XMLName xml.Name    `xml:"urn:wsgossip:membership Membership"`
	From    string      `xml:"From"`
	Members []wireEntry `xml:"Members>M"`
}

// wireEntry is one member row: its address and heartbeat.
type wireEntry struct {
	Addr      string `xml:"A"`
	Heartbeat uint64 `xml:"H"`
}

// bodyNamespace is the membership body's XML namespace.
const bodyNamespace = "urn:wsgossip:membership"

var bodyName = xml.Name{Space: bodyNamespace, Local: "Membership"}

// errNoMembers faults a body listing no member. Every message the Service
// sends lists at least its sender, and so a body from an older build, whose
// view rode as JSON in a Data element encoding/xml skips, is malformed.
var errNoMembers = errors.New("membership body lists no members")

// entryOverhead is the markup of one entry around its address, with room for
// a heartbeat of any width: `<M><A></A><H>…</H></M>`.
const entryOverhead = len("<M><A></A><H></H></M>") + 20

// appendBodyOpen appends the body up to its first entry.
func appendBodyOpen(dst []byte, from string) []byte {
	dst = soap.AppendFlatOpen(dst, bodyNamespace, "Membership")
	dst = soap.AppendFlatText(dst, "From", from)
	return soap.AppendFlatStart(dst, "Members")
}

// appendEntry appends one member row.
func appendEntry(dst []byte, addr string, hb uint64) []byte {
	dst = soap.AppendFlatStart(dst, "M")
	dst = soap.AppendFlatText(dst, "A", addr)
	dst = soap.AppendFlatUint(dst, "H", hb)
	return soap.AppendFlatClose(dst, "M")
}

// appendBodyClose ends the body after its last entry.
func appendBodyClose(dst []byte) []byte {
	dst = soap.AppendFlatClose(dst, "Members")
	return soap.AppendFlatClose(dst, "Membership")
}

// bodySize bounds the canonical body of from and n entries whose addresses
// total addrs bytes, none needing escapes.
func bodySize(from string, n, addrs int) int {
	return len(bodyNamespace) + 64 + len(from) + n*entryOverhead + addrs
}

// writeBody writes b in the canonical form.
func writeBody(b envelopeBody) []byte {
	addrs := 0
	for _, e := range b.Members {
		addrs += len(e.Addr)
	}
	buf := appendBodyOpen(make([]byte, 0, bodySize(b.From, len(b.Members), addrs)), b.From)
	for _, e := range b.Members {
		buf = appendEntry(buf, e.Addr, e.Heartbeat)
	}
	return appendBodyClose(buf)
}

// openBody starts reading a canonical body: it returns the sender's address
// in place and a reader positioned at the first entry, which nextEntry walks.
func openBody(raw []byte) (from soap.FlatText, r soap.FlatReader, ok bool) {
	if r, ok = soap.OpenFlat(raw, bodyNamespace, "Membership"); !ok {
		return nil, r, false
	}
	if from, ok = r.Text("From"); !ok {
		return nil, r, false
	}
	return from, r, r.Enter("Members")
}

// nextEntry reads the next member row in place, and false once none is
// left — or at a row departing from the canonical form, which
// closeBody then fails on.
func nextEntry(r *soap.FlatReader) (addr soap.FlatText, hb uint64, ok bool) {
	mark := *r
	if !r.Enter("M") {
		return nil, 0, false
	}
	if addr, ok = r.Text("A"); ok {
		if hb, ok = r.Uint("H"); ok && r.Leave("M") {
			return addr, hb, true
		}
	}
	*r = mark
	return nil, 0, false
}

// closeBody consumes the end of the body after its last entry and reports
// whether the block ends there.
func closeBody(r *soap.FlatReader) bool {
	return r.Leave("Members") && r.Close("Membership")
}

// scanBody reports whether raw is a canonical body listing at least one
// member, walking it in place.
func scanBody(raw []byte) bool {
	_, r, ok := openBody(raw)
	if !ok {
		return false
	}
	n := 0
	for _, _, more := nextEntry(&r); more; _, _, more = nextEntry(&r) {
		n++
	}
	return n > 0 && closeBody(&r)
}

// rewriteBody decodes a body scanBody declined with encoding/xml and writes
// what it reads in the canonical form, in a fresh buffer.
func rewriteBody(raw []byte) ([]byte, error) {
	var b envelopeBody
	if err := xml.Unmarshal(raw, &b); err != nil {
		return nil, err
	}
	if len(b.Members) == 0 {
		return nil, errNoMembers
	}
	return writeBody(b), nil
}

// canonicalBody returns raw itself (inPlace) when scanBody accepts it, and
// its rewrite in a fresh buffer otherwise. Its result is walked with
// openBody and nextEntry, which then cannot fail.
func canonicalBody(raw []byte) (body []byte, inPlace bool, err error) {
	if scanBody(raw) {
		return raw, true, nil
	}
	body, err = rewriteBody(raw)
	return body, false, err
}
