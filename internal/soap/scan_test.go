package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"wsgossip/internal/metrics"
	"wsgossip/internal/wsa"
)

// Tests for the hand-rolled wire scanner. The load-bearing law: whatever the
// scanner accepts, the encoding/xml fallback accepts too and captures the
// same envelope (scannerAgrees) — checked over a hand-built corpus, over
// generated envelopes, and under fuzzing (FuzzDecodeEquivalence).

// scannerAgrees checks the scanner's law on doc and reports whether the
// scanner accepted it. Acceptance obliges decodeLegacy to accept as well and
// both to agree on header presence, block names, Addressing(), Action() and
// — under equivalent's normalized comparison — every block's content; and
// every scanner Raw must be a slice of doc itself. Together that pins
// verbatim, correctly bounded, self-contained capture: a Raw cut one byte
// off, or one that needed namespace context from outside its own bytes,
// re-parses to something other than what the fallback's token-by-token
// re-encode wrote. The scanner's envelope also keeps its header and body
// block lists apart: appending header blocks past the inline array never
// moves a body block.
func scannerAgrees(t *testing.T, label string, doc []byte) (*Envelope, bool) {
	t.Helper()
	rec, ok := decodeScan(doc, false)
	if !ok {
		return nil, false
	}
	got := rec.req.Envelope
	want, err := decodeLegacy(doc)
	if err != nil {
		t.Fatalf("%s: scanner accepted what encoding/xml rejects (%v):\n%q", label, err, doc)
	}
	if (got.Header == nil) != (want.Header == nil) {
		t.Fatalf("%s: header presence %v != %v", label, got.Header != nil, want.Header != nil)
	}
	if got.Header != nil && len(got.Header.Blocks) != len(want.Header.Blocks) {
		t.Fatalf("%s: header block count %d != %d", label, len(got.Header.Blocks), len(want.Header.Blocks))
	}
	// Action first, while neither envelope has cached its addressing.
	gotAction, wantAction := got.Action(), want.Action()
	equivalent(t, label, got, want)
	if gotAction != got.Addressing().Action || gotAction != want.Addressing().Action || wantAction != gotAction {
		t.Fatalf("%s: Action() = %q (legacy %q), Addressing().Action = %q (legacy %q)",
			label, gotAction, wantAction, got.Addressing().Action, want.Addressing().Action)
	}
	for i, b := range blocksOf(got) {
		// Verbatim means aliasing the input, not a copy that happens to match.
		off := cap(doc) - cap(b.Raw)
		if len(b.Raw) == 0 || off < 0 || off+len(b.Raw) > len(doc) || &b.Raw[0] != &doc[off] {
			t.Fatalf("%s: block %d (%v) is not a slice of the input", label, i, b.XMLName)
		}
	}
	headerAppendSparesBody(t, label, doc)
	return got, true
}

// headerAppendSparesBody decodes doc afresh and appends header blocks until
// the header has outgrown the inline array; the body's blocks must come
// through unchanged.
func headerAppendSparesBody(t *testing.T, label string, doc []byte) {
	t.Helper()
	rec, _ := decodeScan(doc, false)
	env := rec.req.Envelope
	body := append([]Block(nil), env.Body.Blocks...)
	extra := Block{XMLName: xml.Name{Space: "urn:extra", Local: "X"}, Raw: []byte(`<X xmlns="urn:extra"/>`)}
	for i := 0; i <= inlineHeaderBlocks; i++ {
		env.AddHeaderBlock(extra)
	}
	if !reflect.DeepEqual(env.Body.Blocks, body) {
		t.Fatalf("%s: appending header blocks changed the body: %v != %v", label, env.Body.Blocks, body)
	}
}

// scannerAdversarialDocs are canonical documents engineered against the
// scanner's weak spots: comments/CDATA/PIs inside blocks, attribute values
// containing '>' and '/>', nested same-name elements, entity references,
// and UTF-8 multibyte sequences hugging tag boundaries.
func scannerAdversarialDocs() map[string]string {
	soapNS := Namespace
	return map[string]string{
		"comment-inside-block": `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<I xmlns="urn:i"><!-- <fake> tags &amp; entities --><V>x</V></I></Body></Envelope>`,
		"cdata-inside-block": `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<I xmlns="urn:i"><V><![CDATA[</V> raw & <markup> ]]></V></I></Body></Envelope>`,
		"pi-inside-block": `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<I xmlns="urn:i"><?p data with > and </I> inside?><V>x</V></I></Body></Envelope>`,
		"attr-gt": `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<I xmlns="urn:i" a="x>y" b='p>q'><V>v</V></I></Body></Envelope>`,
		"attr-selfclose-lookalike": `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<I xmlns="urn:i" a="x/>y"><V>v</V></I></Body></Envelope>`,
		"nested-same-name": `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<I xmlns="urn:i"><I><I>deep</I></I><I/></I></Body></Envelope>`,
		"same-name-as-container": `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<Body xmlns="urn:i"><Body>x</Body></Body></Body></Envelope>`,
		"entities-everywhere": `<Envelope xmlns="` + soapNS + `"><Header>` +
			`<To xmlns="` + wsa.Namespace + `">mem://a&amp;b&lt;c&gt;&quot;d&quot;&apos;</To></Header>` +
			`<Body><I xmlns="urn:i" a="&#65;&#x42;"><V>&#x1F600;</V></I></Body></Envelope>`,
		"multibyte-at-boundaries": `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<I xmlns="urn:i">日本語<V>ünïcødé✓</V>末尾</I></Body></Envelope>`,
		"multibyte-attr-boundary": `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<I xmlns="urn:i" a="日本語"><V>✓</V></I></Body></Envelope>`,
		"whitespace-shapes": "<Envelope xmlns=\"" + soapNS + "\">\r\n  <Header >\n" +
			"    <Meta xmlns = 'urn:m'\ta = \"1\" >m</Meta >\n  </Header>\n" +
			"  <Body><I xmlns=\"urn:i\"/></Body>\n</Envelope>\ntrailing junk ignored",
		"empty-containers": `<Envelope xmlns="` + soapNS + `"><Header/><Body/></Envelope>`,
		"empty-ns-block":   `<Envelope xmlns="` + soapNS + `"><Body><Plain xmlns="">t</Plain></Body></Envelope>`,
		"prolog-variety": `<?xml version="1.0" encoding="utf-8"?><!-- head --><?keep going?>` + "\n" +
			`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i">x</I></Body></Envelope>`,
		"comment-between-blocks": `<Envelope xmlns="` + soapNS + `"><Header><!-- a -->` +
			`<To xmlns="` + wsa.Namespace + `">mem://x</To><!-- b --></Header>` +
			`<Body><!-- c --><I xmlns="urn:i"/></Body></Envelope>`,
		"unknown-envelope-child": `<Envelope xmlns="` + soapNS + `"><Ignored xmlns="urn:x"><Sub>s</Sub></Ignored>` +
			`<Body><I xmlns="urn:i">x</I></Body></Envelope>`,
		// Action() reads the text in place only when it stands for itself;
		// each of these must still agree with Addressing() and the fallback.
		"action-escaped": actionDoc(`<Action xmlns="` + wsa.Namespace + `">urn:a&amp;b&#x3C;c</Action>`),
		"action-cr":      actionDoc("<Action xmlns=\"" + wsa.Namespace + "\">urn:a\r\nb\rc</Action>"),
		"action-selfclose": actionDoc(`<Action xmlns="` + wsa.Namespace + `"/>` +
			`<Action xmlns="` + wsa.Namespace + `">urn:second</Action>`),
		"action-attr-gt": actionDoc(`<Action xmlns="` + wsa.Namespace + `" a="x>y" b='/>'>urn:after-attrs</Action>`),
		"action-comment": actionDoc(`<Action xmlns="` + wsa.Namespace + `"><!-- c -->urn:commented</Action>`),
		"action-foreign": actionDoc(`<Action xmlns="urn:not-wsa">urn:foreign</Action>` +
			`<Action xmlns="` + wsa.Namespace + `">urn:real</Action>`),
		"more-blocks-than-inline": manyBlocksDoc(inlineHeaderBlocks+3, inlineBodyBlocks+2),
	}
}

// actionDoc is a canonical envelope whose header holds the given blocks.
func actionDoc(header string) string {
	return `<Envelope xmlns="` + Namespace + `"><Header>` + header + `</Header>` +
		`<Body><I xmlns="urn:i">x</I></Body></Envelope>`
}

// manyBlocksDoc is a canonical envelope with the given block counts.
func manyBlocksDoc(header, body int) string {
	var sb strings.Builder
	sb.WriteString(`<Envelope xmlns="` + Namespace + `"><Header>`)
	sb.WriteString(`<Action xmlns="` + wsa.Namespace + `">urn:many</Action>`)
	for i := 1; i < header; i++ {
		fmt.Fprintf(&sb, `<H%d xmlns="urn:h">%d</H%d>`, i, i, i)
	}
	sb.WriteString(`</Header><Body>`)
	for i := 0; i < body; i++ {
		fmt.Fprintf(&sb, `<B%d xmlns="urn:b">%d</B%d>`, i, i, i)
	}
	sb.WriteString(`</Body></Envelope>`)
	return sb.String()
}

// TestScannerMatchesZeroCopy: the scanner's zero-copy capture agrees with the
// encoding/xml fallback over the adversarial corpus.
func TestScannerMatchesZeroCopy(t *testing.T) {
	for name, doc := range scannerAdversarialDocs() {
		t.Run(name, func(t *testing.T) {
			env, ok := scannerAgrees(t, name, []byte(doc))
			if !ok {
				t.Fatalf("scanner declined canonical document:\n%s", doc)
			}
			// The captured envelope must survive a full wire cycle.
			data, err := env.Encode()
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if _, err := Decode(data); err != nil {
				t.Fatalf("re-decode: %v\n%s", err, data)
			}
		})
	}
}

// TestScannerMatchesZeroCopyQuick extends the law to generated envelopes:
// everything the splice serializer emits must take the scanner path and
// agree with the fallback.
func TestScannerMatchesZeroCopyQuick(t *testing.T) {
	f := func(value, tag string, n int) bool {
		if !validXMLString(value) || !validXMLString(tag) {
			return true
		}
		env := buildWireEnvelope(t, value)
		if err := env.AddHeader(wireHeader{Tag: tag, Body: value}); err != nil {
			return false
		}
		data, err := env.Encode()
		if err != nil {
			return false
		}
		_, ok := scannerAgrees(t, fmt.Sprintf("quick %d", n), data)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScannerRejects: non-canonical documents must be declined (never
// mis-captured) and judged by the encoding/xml fallback alone: the
// well-formed ones decode on the legacy rung to the block names below, the
// others are rejected.
func TestScannerRejects(t *testing.T) {
	soapNS := Namespace
	docs := map[string]struct {
		doc      string
		want     []xml.Name
		rejected bool
	}{
		"prefixed": {doc: `<env:Envelope xmlns:env="` + soapNS + `">` +
			`<env:Body><a:B xmlns:a="urn:a">x</a:B></env:Body></env:Envelope>`,
			want: []xml.Name{{Space: "urn:a", Local: "B"}}},
		"doctype": {doc: `<!DOCTYPE Envelope><Envelope xmlns="` + soapNS + `"><Body/></Envelope>`},
		"inherited-default-ns": {doc: `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<Fault><Code><Value>soapenv</Value></Code></Fault></Body></Envelope>`,
			want: []xml.Name{{Space: soapNS, Local: "Fault"}}},
		"entity-in-xmlns": {doc: `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<I xmlns="urn:a&amp;b">x</I></Body></Envelope>`,
			want: []xml.Name{{Space: "urn:a&b", Local: "I"}}},
		"duplicate-xmlns": {doc: `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<I xmlns="urn:i" xmlns="urn:i">x</I></Body></Envelope>`,
			want: []xml.Name{{Space: "urn:i", Local: "I"}}},
		"non-utf8-encoding-decl": {doc: `<?xml version="1.0" encoding="ISO-8859-1"?>` +
			`<Envelope xmlns="` + soapNS + `"><Body/></Envelope>`, rejected: true},
		"text-in-envelope": {doc: `<Envelope xmlns="` + soapNS + `">stray<Body/></Envelope>`},
		"wrong-root-ns":    {doc: `<Envelope xmlns="urn:not-soap"><Body/></Envelope>`, rejected: true},
		"directive-in-body": {doc: `<Envelope xmlns="` + soapNS + `"><Body>` +
			`<!ENTITY x><I xmlns="urn:i"/></Body></Envelope>`,
			want: []xml.Name{{Space: "urn:i", Local: "I"}}},
	}
	for name, tc := range docs {
		t.Run(name, func(t *testing.T) {
			if _, ok := decodeScan([]byte(tc.doc), false); ok {
				t.Fatalf("scanner accepted non-canonical document:\n%s", tc.doc)
			}
			reg := metrics.NewRegistry()
			InstallWireMetrics(reg)
			defer InstallWireMetrics(nil)
			env, err := Decode([]byte(tc.doc))
			if tc.rejected {
				if err == nil {
					t.Fatalf("Decode accepted a malformed document:\n%s", tc.doc)
				}
				return
			}
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			var got []xml.Name
			for _, b := range blocksOf(env) {
				got = append(got, b.XMLName)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("block names %v, want %v", got, tc.want)
			}
			if n := reg.CounterVec("soap_decode_total", "rung").With("legacy").Value(); n != 1 {
				t.Fatalf("legacy rung = %d, want 1", n)
			}
		})
	}
}

// TestScannerMalformed: malformed documents never panic the scanner, and it
// accepts none that the fallback would not. (The fallback decides the final
// verdict.)
func TestScannerMalformed(t *testing.T) {
	soapNS := Namespace
	docs := []string{
		"",
		"<",
		"<Envelope",
		`<Envelope xmlns="` + soapNS + `">`,
		`<Envelope xmlns="` + soapNS + `"><Body>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i"></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i"><J></I></J></I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i">&bogus;</I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i">&#x110000;</I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i" a="un'terminated></I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i" a=bare></I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i"><!-- -- --></I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i" a="x<y"/></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i">` + "\x01" + `</I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i">` + "\xff\xfe" + `</I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i"><![CDATA[unterminated</I></Body></Envelope>`,
		// Divergence regressions (also pinned as fuzz corpus): "]]>" in
		// character data, PIs without a target, directives and xml
		// declarations inside blocks (the legacy path cannot replay them).
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns="urn:i">a]]>b</I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns=""><??></I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns=""><!"></I></Body></Envelope>`,
		`<Envelope xmlns="` + soapNS + `"><Body><I xmlns=""><?xml version="1.0"?></I></Body></Envelope>`,
	}
	for i, doc := range docs {
		// Acceptance is only legal if encoding/xml agrees completely.
		scannerAgrees(t, fmt.Sprintf("case %d", i), []byte(doc))
	}
}

// TestScannerDeepNesting: past the fixed name-stack depth the scanner must
// decline, and the fallback still decodes the document.
func TestScannerDeepNesting(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`<Envelope xmlns="` + Namespace + `"><Body><I xmlns="urn:i">`)
	for i := 0; i < maxScanDepth+4; i++ {
		sb.WriteString("<N>")
	}
	sb.WriteString("x")
	for i := 0; i < maxScanDepth+4; i++ {
		sb.WriteString("</N>")
	}
	sb.WriteString(`</I></Body></Envelope>`)
	doc := []byte(sb.String())
	if _, ok := decodeScan(doc, false); ok {
		t.Fatal("scanner accepted nesting beyond its stack depth")
	}
	env, err := Decode(doc)
	if err != nil {
		t.Fatalf("fallback decode: %v", err)
	}
	if len(env.Body.Blocks) != 1 {
		t.Fatalf("body blocks = %d", len(env.Body.Blocks))
	}
}

// TestAddressingCache: one parse serves repeated lookups, and header
// mutations invalidate the cache.
func TestAddressingCache(t *testing.T) {
	env := buildWireEnvelope(t, "cached")
	first := env.Addressing()
	if first.To != "mem://peer" {
		t.Fatalf("To = %q", first.To)
	}
	if again := env.Addressing(); !reflect.DeepEqual(first, again) {
		t.Fatalf("cached addressing diverged: %+v vs %+v", first, again)
	}
	a := first
	a.To = "mem://elsewhere"
	if err := env.SetAddressing(a); err != nil {
		t.Fatal(err)
	}
	if got := env.Addressing().To; got != "mem://elsewhere" {
		t.Fatalf("stale cache after SetAddressing: To = %q", got)
	}
	env.RemoveHeader(wsa.Namespace, "To")
	if got := env.Addressing().To; got != "" {
		t.Fatalf("stale cache after RemoveHeader: To = %q", got)
	}
	// Snapshots share the cache but not mutations.
	snap := env.Snapshot()
	if err := env.SetAddressing(wsa.Headers{To: "mem://mutated", Action: "urn:x"}); err != nil {
		t.Fatal(err)
	}
	if got := snap.Addressing().To; got != "" {
		t.Fatalf("original mutation leaked into snapshot cache: To = %q", got)
	}
}

// TestAddressingTextExtraction: the direct text extraction agrees with the
// encoding/xml block decode across entity, whitespace, and structure edge
// cases — including ones that force the slow path.
func TestAddressingTextExtraction(t *testing.T) {
	cases := []string{
		`<To xmlns="` + wsa.Namespace + `">mem://plain</To>`,
		`<To xmlns="` + wsa.Namespace + `">a&amp;b&lt;c&gt;&quot;d&quot;&apos;e&#65;&#x42;</To>`,
		`<To xmlns="` + wsa.Namespace + `"> spaced  out </To>`,
		`<To xmlns="` + wsa.Namespace + `"></To>`,
		`<To xmlns="` + wsa.Namespace + `"/>`,
		`<To xmlns="` + wsa.Namespace + `" extra="a>b/>c">v</To>`,
		`<To xmlns="` + wsa.Namespace + `">line1&#10;line2</To>`,
		`<To xmlns="` + wsa.Namespace + `">ünïcødé ✓ 日本語</To>`,
		// Slow-path shapes: child elements, CDATA, comments.
		`<To xmlns="` + wsa.Namespace + `"><!-- c -->text</To>`,
		`<To xmlns="` + wsa.Namespace + `"><![CDATA[raw]]></To>`,
	}
	for _, raw := range cases {
		doc := `<Envelope xmlns="` + Namespace + `"><Header>` + raw + `</Header><Body/></Envelope>`
		env, err := Decode([]byte(doc))
		if err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		var want toHeader
		b, ok := env.HeaderBlock(wsa.Namespace, "To")
		if !ok {
			t.Fatalf("no To block in %s", raw)
		}
		if err := b.Decode(&want); err != nil {
			t.Fatalf("xml decode %s: %v", raw, err)
		}
		if got := env.Addressing().To; got != want.Value {
			t.Fatalf("To extraction %q != xml %q for %s", got, want.Value, raw)
		}
	}
}

// TestInternTableConcurrent: bindings decode on many goroutines at once, so
// learners race each other and every reader. Each answer must spell what
// was asked, and the cap must hold exactly.
func TestInternTableConcurrent(t *testing.T) {
	table := newInternTable("seed")
	const workers, distinct = 8, maxInternNames + 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < distinct; i++ {
				name := fmt.Sprintf("urn:name:%d", (i*7+w*131)%distinct)
				if s := table.intern([]byte(name)); s != name {
					t.Errorf("intern(%q) = %q", name, s)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m := *table.m.Load()
	if len(m) != maxInternNames {
		t.Fatalf("table holds %d names, cap %d", len(m), maxInternNames)
	}
	for name, s := range m {
		if name != s {
			t.Fatalf("table maps %q to %q", name, s)
		}
	}
	if _, ok := m["seed"]; !ok {
		t.Fatal("seed name lost")
	}
}

// TestPoolRoundTrip: pooled buffers keep renders intact and recycle cleanly
// across size classes.
func TestPoolRoundTrip(t *testing.T) {
	for _, n := range []int{1, 100, 511, 512, 513, 4096, 1 << 16, 2 << 20} {
		b := getBytes(n)
		if len(b) != 0 || cap(b) < n {
			t.Fatalf("getBytes(%d): len=%d cap=%d", n, len(b), cap(b))
		}
		b = append(b, bytes.Repeat([]byte{0xAB}, n)...)
		putBytes(b)
	}
	// A recycled buffer must come back zero-length with its capacity.
	big := getBytes(1 << 14)
	big = append(big, "payload"...)
	putBytes(big)
	again := getBytes(1 << 14)
	if len(again) != 0 {
		t.Fatalf("recycled buffer not reset: len=%d", len(again))
	}
}

// TestPoolRecyclesOffPowerOfTwoSizes: a buffer obtained for a size that is
// not a power of two must be filed, on put, under the class the next get of
// that size looks in. It used not to be — a miss allocated cap n, which put
// filed one class lower — so rendered fan-out messages never recycled.
func TestPoolRecyclesOffPowerOfTwoSizes(t *testing.T) {
	for _, n := range []int{513, 1285, 5000, 1<<16 + 1} {
		// A pooled size always gets its whole class, so get and put agree.
		if b := getBytes(n); cap(b)&(cap(b)-1) != 0 || cap(b) < n || cap(b) >= 2*n {
			t.Fatalf("getBytes(%d): cap %d is not the size class", n, cap(b))
		}
		// sync.Pool drops a random fraction of puts under the race detector
		// (and everything at a GC), so look for one recycle in many cycles.
		recycled := false
		for attempt := 0; attempt < 100 && !recycled; attempt++ {
			b := getBytes(n)[:1]
			putBytes(b)
			again := getBytes(n)[:1]
			recycled = &again[0] == &b[0]
		}
		if !recycled {
			t.Errorf("get→put→get of %d bytes never returned the recycled buffer", n)
		}
	}
}
