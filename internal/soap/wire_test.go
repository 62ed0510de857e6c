package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"wsgossip/internal/wsa"
)

// Equivalence tests for the wire path: the splice serializer and the
// scanner's slice-based capture must agree with the encoding/xml fallback on
// every envelope either can produce. Byte equivalence to the legacy
// serializer is deliberately NOT asserted — the legacy encoder emitted a
// duplicate xmlns attribute per block and grew the message on every
// re-encode — so the properties checked are (a) semantic equivalence of
// both paths, and (b) byte-stability of the new path across wire cycles,
// which the legacy path never had.

// xmlNode is a normalized view of one element: name, non-namespace
// attributes, character content, and children, for semantic comparison.
type xmlNode struct {
	XMLName xml.Name
	Attrs   []xml.Attr `xml:",any,attr"`
	Content string     `xml:",chardata"`
	Nodes   []xmlNode  `xml:",any"`
}

func (n *xmlNode) normalize() {
	kept := n.Attrs[:0]
	for _, a := range n.Attrs {
		if a.Name.Local == "xmlns" || a.Name.Space == "xmlns" {
			continue
		}
		kept = append(kept, a)
	}
	n.Attrs = kept
	if len(kept) == 0 {
		n.Attrs = nil
	}
	n.Content = strings.TrimSpace(n.Content)
	for i := range n.Nodes {
		n.Nodes[i].normalize()
	}
	if len(n.Nodes) == 0 {
		n.Nodes = nil
	}
}

func blockNode(t *testing.T, b Block) xmlNode {
	t.Helper()
	var n xmlNode
	if err := xml.Unmarshal(b.Raw, &n); err != nil {
		t.Fatalf("re-parse block %v: %v\nraw: %s", b.XMLName, err, b.Raw)
	}
	n.normalize()
	return n
}

// blocksOf lists e's header blocks, then its body blocks.
func blocksOf(e *Envelope) []Block {
	var out []Block
	if e.Header != nil {
		out = append(out, e.Header.Blocks...)
	}
	return append(out, e.Body.Blocks...)
}

// equivalent asserts that two envelopes carry the same blocks with the same
// names and normalized content.
func equivalent(t *testing.T, label string, a, b *Envelope) {
	t.Helper()
	ab, bb := blocksOf(a), blocksOf(b)
	if len(ab) != len(bb) {
		t.Fatalf("%s: block count %d != %d", label, len(ab), len(bb))
	}
	for i := range ab {
		if ab[i].XMLName != bb[i].XMLName {
			t.Fatalf("%s: block %d name %v != %v", label, i, ab[i].XMLName, bb[i].XMLName)
		}
		an, bn := blockNode(t, ab[i]), blockNode(t, bb[i])
		if !reflect.DeepEqual(an, bn) {
			t.Fatalf("%s: block %d content\n  %+v\n  !=\n  %+v\nraw a: %s\nraw b: %s",
				label, i, an, bn, ab[i].Raw, bb[i].Raw)
		}
	}
	if !reflect.DeepEqual(a.Addressing(), b.Addressing()) {
		t.Fatalf("%s: addressing %+v != %+v", label, a.Addressing(), b.Addressing())
	}
}

type wireBody struct {
	XMLName xml.Name `xml:"urn:wiretest Item"`
	Attr    string   `xml:"attr,attr"`
	Value   string   `xml:"Value"`
	Nested  struct {
		Deep string `xml:"Deep"`
	} `xml:"Nested"`
}

type wireHeader struct {
	XMLName xml.Name `xml:"urn:wiretest:hdr Meta"`
	Tag     string   `xml:"Tag,attr"`
	Body    string   `xml:",chardata"`
}

func buildWireEnvelope(t *testing.T, value string) *Envelope {
	t.Helper()
	env := NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		To: "mem://peer", Action: "urn:wiretest:op", MessageID: "urn:uuid:w1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := env.AddHeader(wireHeader{Tag: "t&<>\"'", Body: "header text"}); err != nil {
		t.Fatal(err)
	}
	b := wireBody{Attr: "a<b&c", Value: value}
	b.Nested.Deep = "deep " + value
	if err := env.SetBody(b); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestZeroCopyMatchesLegacyDecode: the zero-copy capture and the encoding/xml
// fallback agree on a range of wire documents — attributes, nested blocks,
// namespaces, CDATA, comments, entities, whitespace — and whichever of the two
// Decode picked, its envelope survives a wire cycle. legacy marks the
// documents only the fallback may take.
func TestZeroCopyMatchesLegacyDecode(t *testing.T) {
	docs := map[string]struct {
		doc    string
		legacy bool
	}{
		"canonical": {doc: `<?xml version="1.0" encoding="UTF-8"?>` +
			`<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Header>` +
			`<Meta xmlns="urn:wiretest:hdr" Tag="x">hdr</Meta></Header>` +
			`<Body><Item xmlns="urn:wiretest" attr="v"><Value>a&amp;b</Value></Item></Body></Envelope>`},
		"cdata": {doc: `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body>` +
			`<Item xmlns="urn:wiretest"><Value><![CDATA[raw <markup> & stuff]]></Value></Item></Body></Envelope>`},
		"comments-and-space": {doc: "<Envelope xmlns=\"http://www.w3.org/2003/05/soap-envelope\">\n  " +
			"<!-- a comment -->\n  <Header>\n    <Meta xmlns=\"urn:wiretest:hdr\">m</Meta>\n  </Header>\n  " +
			"<Body>\n    <Item xmlns=\"urn:wiretest\"><Value>v</Value></Item>\n  </Body>\n</Envelope>"},
		"nested-namespaces": {doc: `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body>` +
			`<Item xmlns="urn:wiretest"><Sub xmlns="urn:other"><Deep>x</Deep></Sub><Value>y</Value></Item></Body></Envelope>`},
		"entities": {doc: `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body>` +
			`<Item xmlns="urn:wiretest" attr="&lt;&amp;&gt;"><Value>&#65;&#x42;c &quot;q&quot;</Value></Item></Body></Envelope>`},
		"empty-body": {doc: `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body></Body></Envelope>`},
		"no-header-decl-free-block": {doc: `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body>` +
			`<Plain xmlns="">text</Plain></Body></Envelope>`},
		// What encodeLegacy writes: one xmlns attribute too many per block.
		"legacy-duplicate-xmlns": {legacy: true, doc: `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope">` +
			`<Body xmlns="http://www.w3.org/2003/05/soap-envelope">` +
			`<Item xmlns="urn:wiretest" xmlns="urn:wiretest"><Value>dup</Value></Item></Body></Envelope>`},
		"prefixed": {legacy: true, doc: `<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope" xmlns:w="urn:wiretest">` +
			`<env:Body><w:Item attr="v"><w:Value>pfx</w:Value></w:Item></env:Body></env:Envelope>`},
		// A block inheriting the envelope's default namespace cannot be
		// sliced verbatim; only the fallback's re-encode makes it whole.
		"inherited-default-ns": {legacy: true, doc: `<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body>` +
			`<Fault><Code><Value>soapenv</Value></Code></Fault></Body></Envelope>`},
	}
	for name, tc := range docs {
		t.Run(name, func(t *testing.T) {
			if _, scanned := scannerAgrees(t, name, []byte(tc.doc)); scanned == tc.legacy {
				t.Fatalf("scanner accepted = %v, want %v", scanned, !tc.legacy)
			}
			got, err := Decode([]byte(tc.doc))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			data, err := got.Encode()
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			again, err := Decode(data)
			if err != nil {
				t.Fatalf("re-decode: %v\n%s", err, data)
			}
			equivalent(t, name+" after cycle", got, again)
		})
	}
}

// TestWireByteStability: the wire path is byte-stable — once an envelope
// has been through one encode, further decode/encode cycles reproduce the
// exact same bytes, and every encode passes the strict oracle. That holds for
// a built envelope and for documents only the fallback decoder takes, whose
// blocks it captures self-contained.
func TestWireByteStability(t *testing.T) {
	built, err := buildWireEnvelope(t, "stable").Encode()
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string][]byte{
		"built": built,
		"prefixed": []byte(`<env:Envelope xmlns:env="` + Namespace + `" xmlns:w="urn:wiretest" xmlns:a="` + wsa.Namespace + `">` +
			`<env:Header><a:Action>urn:wiretest:op</a:Action><w:Meta env:mustUnderstand="true" xml:lang="en">m</w:Meta></env:Header>` +
			`<env:Body><w:Item attr="v"><w:Value>pfx</w:Value><Plain>unqualified</Plain></w:Item></env:Body></env:Envelope>`),
		"declaration-free-block": []byte(`<Envelope xmlns="` + Namespace + `"><Header><Meta>inherits</Meta></Header>` +
			`<Body><Event xmlns="urn:example"><Value>v</Value></Event></Body></Envelope>`),
		"legacy-duplicate-xmlns": []byte(`<Envelope xmlns="` + Namespace + `">` +
			`<Body xmlns="` + Namespace + `">` +
			`<Item xmlns="urn:wiretest" xmlns="urn:wiretest"><Value>dup</Value></Item></Body></Envelope>`),
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			decoded, err := Decode(doc)
			if err != nil {
				t.Fatal(err)
			}
			data, err := decoded.Encode()
			if err != nil {
				t.Fatal(err)
			}
			mustBeWellFormed(t, "first encode", data)
			for i := 0; i < 3; i++ {
				decoded, err := Decode(data)
				if err != nil {
					t.Fatalf("cycle %d decode: %v", i, err)
				}
				next, err := decoded.Encode()
				if err != nil {
					t.Fatalf("cycle %d encode: %v", i, err)
				}
				if !bytes.Equal(next, data) {
					t.Fatalf("cycle %d changed bytes:\n%s\nvs\n%s", i, data, next)
				}
			}
		})
	}
}

// TestZeroCopyAliasesInput: captured blocks slice the input buffer instead
// of re-encoding into fresh memory.
func TestZeroCopyAliasesInput(t *testing.T) {
	data, err := buildWireEnvelope(t, "alias").Encode()
	if err != nil {
		t.Fatal(err)
	}
	env, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Body.Blocks) != 1 {
		t.Fatalf("body blocks = %d", len(env.Body.Blocks))
	}
	raw := env.Body.Blocks[0].Raw
	start := bytes.Index(data, []byte("<Item"))
	if start < 0 {
		t.Fatalf("no Item in %s", data)
	}
	if &raw[0] != &data[start] {
		t.Fatal("body block raw is a copy, not a slice of the input buffer")
	}
}

// TestEncodeTemplateRenderTo: a rendered per-target message is equivalent
// to fully encoding the same envelope with To set, for plain and
// escape-needing addresses.
func TestEncodeTemplateRenderTo(t *testing.T) {
	env := buildWireEnvelope(t, "tmpl")
	// buildWireEnvelope sets a stale To ("mem://peer"); EncodeTemplate must
	// drop it so the rendered per-target To is the only one — a leftover
	// block would win the receiver's first-match header lookup.
	tmpl, err := env.EncodeTemplate()
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{"mem://peer1", "http://host:8080/svc?a=1&b=<2>"} {
		rendered, err := Decode(tmpl.RenderTo(addr))
		if err != nil {
			t.Fatalf("decode rendered: %v", err)
		}
		if got := rendered.Addressing().To; got != addr {
			t.Fatalf("rendered To = %q, want %q", got, addr)
		}
		toBlocks := 0
		for _, b := range rendered.Header.Blocks {
			if b.XMLName.Local == "To" && b.XMLName.Space == wsa.Namespace {
				toBlocks++
			}
		}
		if toBlocks != 1 {
			t.Fatalf("rendered To blocks = %d, want exactly 1 (stale To must be dropped)", toBlocks)
		}
		full := env.Snapshot()
		a := full.Addressing()
		a.To = addr
		if err := full.SetAddressing(a); err != nil {
			t.Fatal(err)
		}
		data, err := full.Encode()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rendered.Addressing(), direct.Addressing()) {
			t.Fatalf("addressing %+v != %+v", rendered.Addressing(), direct.Addressing())
		}
		var rb, db wireBody
		if err := rendered.DecodeBody(&rb); err != nil {
			t.Fatal(err)
		}
		if err := direct.DecodeBody(&db); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rb, db) {
			t.Fatalf("body %+v != %+v", rb, db)
		}
	}
}

// TestRenderToFreshBuffers: every render owns its bytes (SendEncoded hands
// over ownership, so shared buffers would corrupt queued messages).
func TestRenderToFreshBuffers(t *testing.T) {
	env := buildWireEnvelope(t, "fresh")
	env.RemoveHeader(wsa.Namespace, "To")
	tmpl, err := env.EncodeTemplate()
	if err != nil {
		t.Fatal(err)
	}
	a := tmpl.RenderTo("mem://a")
	b := tmpl.RenderTo("mem://b")
	copyA := append([]byte(nil), a...)
	for i := range b {
		b[i] = 0
	}
	if !bytes.Equal(a, copyA) {
		t.Fatal("renders share a buffer")
	}
}

// TestSnapshotIndependence: block-list mutations on a snapshot never leak
// into the original (and vice versa), even though Raw bytes are shared.
func TestSnapshotIndependence(t *testing.T) {
	env := buildWireEnvelope(t, "snap")
	snap := env.Snapshot()
	if !snap.RemoveHeader("urn:wiretest:hdr", "Meta") {
		t.Fatal("snapshot missing header")
	}
	if _, ok := env.HeaderBlock("urn:wiretest:hdr", "Meta"); !ok {
		t.Fatal("snapshot mutation leaked into original")
	}
	if err := env.SetAddressing(wsa.Headers{To: "mem://other", Action: "urn:wiretest:op2"}); err != nil {
		t.Fatal(err)
	}
	if got := snap.Addressing().To; got != "mem://peer" {
		t.Fatalf("original mutation leaked into snapshot: To = %q", got)
	}
}

// TestSpliceInjectsNamespace: a hand-built block whose raw bytes carry no
// xmlns declaration must not silently inherit the envelope namespace.
func TestSpliceInjectsNamespace(t *testing.T) {
	cases := []Block{
		{XMLName: xml.Name{Space: "urn:inject", Local: "Foo"}, Raw: []byte(`<Foo><Bar>x</Bar></Foo>`)},
		{XMLName: xml.Name{Local: "Foo"}, Raw: []byte(`<Foo>plain</Foo>`)},
		{XMLName: xml.Name{Space: "urn:inject", Local: "Foo"}, Raw: []byte(`<Foo a="1"/>`)},
	}
	for i, b := range cases {
		env := NewEnvelope()
		env.Body.Blocks = []Block{b}
		data, err := env.Encode()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		decoded, err := Decode(data)
		if err != nil {
			t.Fatalf("case %d decode: %v\n%s", i, err, data)
		}
		if got := decoded.BodyName(); got != b.XMLName {
			t.Fatalf("case %d: body name %v, want %v\nwire: %s", i, got, b.XMLName, data)
		}
	}
}

// TestWireRoundTripQuick: generated envelopes survive the new wire path
// with values intact (the quick-check analogue of FuzzWireRoundTrip).
func TestWireRoundTripQuick(t *testing.T) {
	f := func(value, tag string, n int) bool {
		if !validXMLString(value) || !validXMLString(tag) {
			return true
		}
		env := NewEnvelope()
		if err := env.SetAddressing(wsa.Headers{
			To: "mem://q", Action: "urn:q", MessageID: wsa.MessageID(fmt.Sprintf("urn:uuid:%d", n)),
		}); err != nil {
			return false
		}
		if err := env.AddHeader(wireHeader{Tag: tag, Body: value}); err != nil {
			return false
		}
		b := wireBody{Attr: tag, Value: value}
		if err := env.SetBody(b); err != nil {
			return false
		}
		data, err := env.Encode()
		if err != nil {
			return false
		}
		decoded, err := Decode(data)
		if err != nil {
			return false
		}
		var out wireBody
		if err := decoded.DecodeBody(&out); err != nil {
			return false
		}
		var h wireHeader
		if err := decoded.DecodeHeader("urn:wiretest:hdr", "Meta", &h); err != nil {
			return false
		}
		return out.Value == value && out.Attr == tag && h.Tag == tag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func validXMLString(s string) bool {
	if !utf8.ValidString(s) {
		// encoding/xml replaces invalid UTF-8 with U+FFFD on output (both
		// the legacy and the splice path); not a round-trippable input.
		return false
	}
	for _, r := range s {
		if r == 0x09 || r == 0x0A || r == 0x0D {
			continue
		}
		if r < 0x20 || r == 0xFFFE || r == 0xFFFF ||
			(r >= 0xD800 && r <= 0xDFFF) || r > 0x10FFFF {
			return false
		}
	}
	return true
}

// FuzzDecodeEquivalence feeds arbitrary documents to both of Decode's parse
// paths: whenever the hand-rolled scanner accepts, the encoding/xml fallback
// must accept too and capture the same envelope — block names, addressing,
// semantically equal blocks, every scanner Raw a slice of the input
// (scannerAgrees); neither path may panic; and whatever Decode captured must
// re-encode into a document that passes the strict oracle, which Decode takes
// back and which encodes to the same bytes again.
func FuzzDecodeEquivalence(f *testing.F) {
	f.Add([]byte(`<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Header>` +
		`<Meta xmlns="urn:wiretest:hdr" Tag="x">hdr</Meta></Header>` +
		`<Body><Item xmlns="urn:wiretest"><Value>v</Value></Item></Body></Envelope>`))
	f.Add([]byte(`<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">` +
		`<env:Body><a:B xmlns:a="urn:a">x</a:B></env:Body></env:Envelope>`))
	f.Add([]byte(`<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body>` +
		`<I xmlns="urn:i"><![CDATA[<x>&]]></I></Body></Envelope>`))
	f.Add([]byte(`<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body><Plain>t</Plain></Body></Envelope>`))
	f.Add([]byte(`<!-- c --><Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body/></Envelope>`))
	// Scanner-adversarial seeds: structures the byte walk must track
	// exactly — comments/CDATA/PIs inside blocks, '>' and '/>' inside
	// attribute values, nested same-name elements, entities, multibyte
	// runes at tag boundaries, deep nesting, malformed look-alikes.
	for _, doc := range scannerAdversarialDocs() {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body>` +
		`<I xmlns="urn:i" a="</I>"><I a=">">&#xA;</I></I></Body></Envelope>`))
	f.Add([]byte(`<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body>` +
		`<I xmlns="urn:i"><!--->--><V><![CDATA[]]>]]<![CDATA[>]]></V></I></Body></Envelope>`))
	f.Add([]byte("<Envelope xmlns=\"http://www.w3.org/2003/05/soap-envelope\"><Body>" +
		"<I xmlns=\"urn:i\">\xe6\x97\xa5<V a=\"\xe2\x9c\x93\">\xc3\xbc</V>\xe6\x9c\xac</I></Body></Envelope>"))
	f.Add([]byte(`<Envelope xmlns="http://www.w3.org/2003/05/soap-envelope"><Body>` +
		`<I xmlns="urn:i">&#55296;&bad;&#x10FFFF;</I></Body></Envelope>`))
	// Fallback captures the strict oracle holds to: namespaced and repeated
	// attributes, an attribute prefix nobody declared, xml:lang, and an
	// unqualified child under a namespaced parent.
	f.Add([]byte(`<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope"><s:Body>` +
		`<a:B xmlns:a="urn:a" xmlns:b="urn:a" a:x="1" b:x="2" s:mustUnderstand="true" xml:lang="en" q:y="3"><C x="1" x="2"/></a:B></s:Body></s:Envelope>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		scannerAgrees(t, "fuzz", data)
		// The same byte walk names blocks in MarshalBlock: whenever it answers,
		// the xml.Unmarshal probe it stands in for must answer the same.
		if name, ok := blockName(data); ok {
			if want, err := probeName(data); err != nil || name != want {
				t.Fatalf("blockName = %v, probe = %v, %v for %q", name, want, err, data)
			}
		}
		got, err := Decode(data)
		if err != nil {
			return
		}
		out, err := got.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v\ninput: %q", err, data)
		}
		if err := wellFormed(out); err != nil {
			t.Fatalf("re-encode not well formed: %v\nwire: %q\ninput: %q", err, out, data)
		}
		again, err := Decode(out)
		if err != nil {
			t.Fatalf("re-decode: %v\nwire: %q\ninput: %q", err, out, data)
		}
		if next, err := again.Encode(); err != nil || !bytes.Equal(next, out) {
			t.Fatalf("second hop: %v\n%q\n%q", err, out, next)
		}
	})
}

// FuzzWireRoundTrip fuzzes application values through a full build → encode
// → decode → re-encode cycle, asserting value preservation and stability.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add("hello", "tag")
	f.Add("a&b <c> 'q' \"z\"", "t&<>\"'")
	f.Add("line\nbreak\ttab", "")
	f.Add("ünïcødé ✓", "日本語")
	f.Fuzz(func(t *testing.T, value, tag string) {
		if !validXMLString(value) || !validXMLString(tag) {
			return
		}
		env := NewEnvelope()
		if err := env.SetAddressing(wsa.Headers{To: "mem://f", Action: "urn:f"}); err != nil {
			t.Fatal(err)
		}
		b := wireBody{Attr: tag, Value: value}
		if err := env.SetBody(b); err != nil {
			t.Fatal(err)
		}
		data, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		mustBeWellFormed(t, "encode", data)
		decoded, err := Decode(data)
		if err != nil {
			t.Fatalf("decode: %v\n%q", err, data)
		}
		var out wireBody
		if err := decoded.DecodeBody(&out); err != nil {
			t.Fatal(err)
		}
		if out.Value != value || out.Attr != tag {
			t.Fatalf("round trip (%q, %q) -> (%q, %q)", value, tag, out.Value, out.Attr)
		}
		again, err := decoded.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("wire bytes not stable:\n%q\n%q", data, again)
		}
	})
}
