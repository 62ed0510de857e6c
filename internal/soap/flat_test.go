package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"slices"
	"strings"
	"testing"

	"wsgossip/internal/wsa"
)

// Tests for the flat-element codec and the tag-derived block names. Two
// load-bearing properties: the writer is byte-identical to xml.Marshal, and
// whatever the byte-level readers accept they decode exactly as encoding/xml
// does — anything else they decline, so the caller's encoding/xml fallback
// decides.

// codecTexts are the character-data inputs every writer/reader table runs
// over: plain, each escaped character, invalid UTF-8, runes outside the XML
// character range, and the empty string.
var codecTexts = []string{
	"",
	"urn:uuid:6ba7b810-9dad-11d1-80b4-00c04fd430c8",
	"mem://node-7",
	`a<b>c&d"e'f`,
	"tab\there\nnewline\rreturn\r\nboth",
	"&amp; already &#x41; escaped",
	"]]>",
	"bad\xffutf8\xc3",
	"ctl\x01\x0b\x1f",
	"noncharacters \ufffe \uffff and replacement \ufffd",
	"日本語 ✓ \U0001F600",
	"  padded  ",
}

func TestAppendEscapedMatchesEscapeText(t *testing.T) {
	for _, s := range codecTexts {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, []byte(s)); err != nil {
			t.Fatal(err)
		}
		got := AppendEscaped([]byte("prefix"), s)
		if string(got) != "prefix"+want.String() {
			t.Errorf("AppendEscaped(%q) = %q, xml.EscapeText = %q", s, got[len("prefix"):], want.String())
		}
		if plainText(s) != (want.String() == s) {
			t.Errorf("plainText(%q) = %v, but EscapeText output %q", s, plainText(s), want.String())
		}
	}
}

// TestSetAddressingMatchesMarshal: every block SetAddressing writes is
// byte-identical to xml.Marshal of the header struct it used to marshal, and
// reads back to the value written.
func TestSetAddressingMatchesMarshal(t *testing.T) {
	for _, s := range codecTexts {
		epr := wsa.NewEPR(s)
		h := wsa.Headers{
			To: s, Action: s, MessageID: wsa.MessageID(s), RelatesTo: wsa.MessageID(s),
			ReplyTo: &epr, From: &epr,
		}
		env := NewEnvelope()
		if err := env.SetAddressing(h); err != nil {
			t.Fatal(err)
		}
		want := []any{
			toHeader{Value: s}, actionHeader{Value: s}, messageIDHeader{Value: s}, relatesToHeader{Value: s},
			replyToHeader{Address: s}, fromHeader{Address: s},
		}
		if s == "" {
			want = want[4:] // empty text properties are omitted; references are not
		}
		if len(env.Header.Blocks) != len(want) {
			t.Fatalf("%q: %d blocks, want %d", s, len(env.Header.Blocks), len(want))
		}
		for i, v := range want {
			ref, err := MarshalBlock(v)
			if err != nil {
				t.Fatal(err)
			}
			got := env.Header.Blocks[i]
			if got.XMLName != ref.XMLName || !bytes.Equal(got.Raw, ref.Raw) {
				t.Errorf("%q block %d:\n got %v %s\nwant %v %s", s, i, got.XMLName, got.Raw, ref.XMLName, ref.Raw)
			}
		}
		// What encoding/xml reads back from those bytes (invalid input comes
		// back as U+FFFD, "\r" as "\n") is what Addressing must report.
		var back toHeader
		if s != "" {
			if err := env.Header.Blocks[0].Decode(&back); err != nil {
				t.Fatal(err)
			}
			if a := env.Addressing(); a.To != back.Value || a.Action != back.Value ||
				string(a.MessageID) != back.Value || string(a.RelatesTo) != back.Value ||
				a.ReplyTo.Address != back.Value || a.From.Address != back.Value {
				t.Errorf("%q: addressing read back %+v, encoding/xml reads %q", s, a, back.Value)
			}
		}
	}
}

// TestSetAddressingBlocksAreIndependent: the blocks share one backing
// buffer, so appending to one block's Raw must reallocate rather than run
// into its neighbour, and SetAddressing must replace earlier blocks in
// place without disturbing the others.
func TestSetAddressingBlocksAreIndependent(t *testing.T) {
	env := NewEnvelope()
	if err := env.AddHeader(struct {
		XMLName xml.Name `xml:"urn:test Keep"`
	}{}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetAddressing(wsa.Headers{To: "mem://a", Action: "urn:act", MessageID: "urn:uuid:1"}); err != nil {
		t.Fatal(err)
	}
	action := string(env.Header.Blocks[2].Raw)
	_ = append(env.Header.Blocks[1].Raw, "XXXXXXXX"...)
	if got := string(env.Header.Blocks[2].Raw); got != action {
		t.Fatalf("append to the To block clobbered the Action block: %s", got)
	}
	if err := env.SetAddressing(wsa.Headers{Action: "urn:other"}); err != nil {
		t.Fatal(err)
	}
	if len(env.Header.Blocks) != 2 || env.Header.Blocks[0].XMLName.Local != "Keep" {
		t.Fatalf("blocks after re-addressing: %+v", env.Header.Blocks)
	}
	if a := env.Addressing(); a.To != "" || a.Action != "urn:other" || a.MessageID != "" {
		t.Fatalf("addressing after re-addressing: %+v", a)
	}
}

// probeName is the xml.Unmarshal probe MarshalBlock used to run on every block.
func probeName(raw []byte) (xml.Name, error) {
	var probe struct {
		XMLName xml.Name
	}
	err := xml.Unmarshal(raw, &probe)
	return probe.XMLName, err
}

// TestBlockNameMatchesProbe: the tag-derived name equals the probe's on
// every shape it accepts, and the shapes it must leave to the probe are
// declined rather than guessed at.
func TestBlockNameMatchesProbe(t *testing.T) {
	accepted := []string{
		`<To xmlns="http://www.w3.org/2005/08/addressing">mem://a</To>`,
		`<Plain>text</Plain>`,
		`<Plain/>`,
		`<Empty xmlns="urn:e"/>`,
		`<Empty xmlns="urn:e"></Empty>`,
		`<Attr id="7" xmlns="urn:a" other="&lt;">x</Attr>`,
		`<Nested xmlns="urn:n"><A><B>&#xA;</B></A><C xmlns="urn:other"/></Nested>`,
		`<Fault xmlns="http://www.w3.org/2003/05/soap-envelope"><Code><Value>Sender</Value></Code></Fault>`,
		`<Unknown-name_1.x xmlns="urn:unknown:namespace">v</Unknown-name_1.x>`,
	}
	for _, raw := range accepted {
		got, ok := blockName([]byte(raw))
		want, err := probeName([]byte(raw))
		if err != nil {
			t.Fatalf("probe rejects %s: %v", raw, err)
		}
		if !ok || got != want {
			t.Errorf("blockName(%s) = %v, %v; probe says %v", raw, got, ok, want)
		}
	}
	declined := []string{
		``,
		`text`,
		`<p:Prefixed xmlns:p="urn:p">x</p:Prefixed>`,
		`<Esc xmlns="urn:a&amp;b">x</Esc>`,
		`<Two xmlns="urn:t">1</Two><Two xmlns="urn:t">2</Two>`,
		`<Trail xmlns="urn:t">x</Trail> `,
		`<!-- c --><After xmlns="urn:a"/>`,
		`<Ünï xmlns="urn:u">x</Ünï>`,
		`<Open xmlns="urn:o">`,
		`<Bad xmlns="urn:b"><A></B></Bad>`,
		`<Bad xmlns="urn:b">&nosuch;</Bad>`,
		`<Deep>` + strings.Repeat(`<d>`, maxScanDepth) + strings.Repeat(`</d>`, maxScanDepth) + `</Deep>`,
	}
	for _, raw := range declined {
		if name, ok := blockName([]byte(raw)); ok {
			t.Errorf("blockName(%s) = %v, want it left to the probe", raw, name)
		}
	}
}

// TestBlockOfKeepsProbeSemantics: through MarshalBlock the name is the probe's
// for fast and fallback shapes alike, and values whose marshaled form is not
// well-formed XML are still refused.
func TestBlockOfKeepsProbeSemantics(t *testing.T) {
	type prefixedAttr struct {
		XMLName xml.Name `xml:"urn:p Holder"`
		Lang    string   `xml:"http://www.w3.org/XML/1998/namespace lang,attr"`
	}
	type rawInner struct {
		XMLName xml.Name `xml:"urn:r Raw"`
		Inner   string   `xml:",innerxml"`
	}
	for _, v := range []any{
		toHeader{Value: "x"},
		Fault{},
		prefixedAttr{Lang: "en"},
		rawInner{Inner: `<ok/>`},
		[]toHeader{{Value: "1"}, {Value: "2"}},
		"bare string",
	} {
		b, err := MarshalBlock(v)
		if err != nil {
			t.Fatalf("MarshalBlock(%#v): %v", v, err)
		}
		want, err := probeName(b.Raw)
		if err != nil {
			t.Fatal(err)
		}
		if b.XMLName != want {
			t.Errorf("MarshalBlock(%#v) named %v, probe says %v (raw %s)", v, b.XMLName, want, b.Raw)
		}
	}
	if _, err := MarshalBlock(rawInner{Inner: `<unclosed>`}); err == nil {
		t.Error("MarshalBlock accepted a value that marshals to malformed XML")
	}
}

// flatDoc is the reference the reader tables decode with encoding/xml.
type flatDoc struct {
	XMLName xml.Name `xml:"urn:flat Doc"`
	A       string   `xml:"A"`
	N       int      `xml:"N"`
	B       string   `xml:"B,omitempty"`
}

// readFlatDoc is a FlatReader client shaped like the ones in core: fixed
// order, one optional trailing child.
func readFlatDoc(raw []byte) (flatDoc, bool) {
	d := flatDoc{XMLName: xml.Name{Space: "urn:flat", Local: "Doc"}}
	r, ok := OpenFlat(raw, "urn:flat", "Doc")
	if !ok {
		return d, false
	}
	if d.A, ok = r.String("A"); !ok {
		return d, false
	}
	if d.N, ok = r.Int("N"); !ok {
		return d, false
	}
	if b, ok := r.Text("B"); ok {
		d.B = b.String()
	}
	return d, r.Close("Doc")
}

func writeFlatDoc(d flatDoc) []byte {
	buf := AppendFlatOpen(nil, "urn:flat", "Doc")
	buf = AppendFlatText(buf, "A", d.A)
	buf = AppendFlatInt(buf, "N", int64(d.N))
	if d.B != "" {
		buf = AppendFlatText(buf, "B", d.B)
	}
	return AppendFlatClose(buf, "Doc")
}

// TestFlatWriterReaderAgainstEncodingXML: over every text input and a spread
// of integers, the writer equals xml.Marshal and the reader equals
// xml.Unmarshal of those bytes.
func TestFlatWriterReaderAgainstEncodingXML(t *testing.T) {
	ints := []int{0, 1, -1, 7, 999999999, -999999999, 1 << 40, -(1 << 40)}
	for i, s := range codecTexts {
		for _, b := range []string{"", s} {
			d := flatDoc{A: s, N: ints[i%len(ints)], B: b}
			raw := writeFlatDoc(d)
			want, err := xml.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("writer:\n got %s\nwant %s", raw, want)
			}
			var ref flatDoc
			if err := xml.Unmarshal(raw, &ref); err != nil {
				t.Fatalf("encoding/xml rejects writer output %s: %v", raw, err)
			}
			got, ok := readFlatDoc(raw)
			if wide := d.N > 999999999 || d.N < -999999999; ok == wide {
				t.Fatalf("reader accepted=%v for %s", ok, raw)
			}
			if ok && got != ref {
				t.Fatalf("reader %+v != encoding/xml %+v for %s", got, ref, raw)
			}
		}
	}
}

// TestFlatReaderDeclines: every departure from the canonical form is
// declined — including forms encoding/xml reads happily — and everything
// accepted decodes as encoding/xml decodes it.
func TestFlatReaderDeclines(t *testing.T) {
	const open, end = `<Doc xmlns="urn:flat">`, `</Doc>`
	canonical := []string{
		open + `<A>x</A><N>3</N>` + end,
		open + `<A></A><N>-0</N><B></B>` + end,
		open + `<A>a&amp;b&#x9;&#xD;c` + "\r\n" + `d > e</A><N>007</N><B>` + "\r" + `</B>` + end,
	}
	for _, raw := range canonical {
		var ref flatDoc
		if err := xml.Unmarshal([]byte(raw), &ref); err != nil {
			t.Fatalf("encoding/xml rejects %s: %v", raw, err)
		}
		if got, ok := readFlatDoc([]byte(raw)); !ok || got != ref {
			t.Errorf("reader = %+v, %v; encoding/xml = %+v for %s", got, ok, ref, raw)
		}
	}
	declined := map[string]string{
		"prefixed":          `<f:Doc xmlns:f="urn:flat"><f:A>x</f:A><f:N>3</f:N></f:Doc>`,
		"reordered":         open + `<N>3</N><A>x</A>` + end,
		"missing child":     open + `<N>3</N>` + end,
		"padded":            open + ` <A>x</A><N>3</N>` + end,
		"padded end":        open + `<A>x</A><N>3</N> ` + end,
		"padded tag":        open + `<A >x</A><N>3</N>` + end,
		"padded end tag":    open + `<A>x</A ><N>3</N>` + end,
		"root attribute":    `<Doc xmlns="urn:flat" id="1"><A>x</A><N>3</N></Doc>`,
		"child attribute":   open + `<A id="1">x</A><N>3</N>` + end,
		"single quotes":     `<Doc xmlns='urn:flat'><A>x</A><N>3</N></Doc>`,
		"comment":           open + `<A>x<!-- c --></A><N>3</N>` + end,
		"comment between":   open + `<A>x</A><!-- c --><N>3</N>` + end,
		"cdata":             open + `<A><![CDATA[x]]></A><N>3</N>` + end,
		"pi":                open + `<A>x<?p?></A><N>3</N>` + end,
		"nested":            open + `<A><X>x</X></A><N>3</N>` + end,
		"duplicated child":  open + `<A>x</A><A>y</A><N>3</N>` + end,
		"duplicated last":   open + `<A>x</A><N>3</N><B>b</B><B>c</B>` + end,
		"unknown child":     open + `<A>x</A><N>3</N><Z>z</Z>` + end,
		"self-closing":      open + `<A/><N>3</N>` + end,
		"self-closing root": `<Doc xmlns="urn:flat"/>`,
		"padded int":        open + `<A>x</A><N> 3 </N>` + end,
		"plus int":          open + `<A>x</A><N>+3</N>` + end,
		"empty int":         open + `<A>x</A><N></N>` + end,
		"escaped int":       open + `<A>x</A><N>&#51;</N>` + end,
		"wide int":          open + `<A>x</A><N>1234567890</N>` + end,
		"trailing bytes":    open + `<A>x</A><N>3</N>` + end + "\n",
		"other namespace":   `<Doc xmlns="urn:other"><A>x</A><N>3</N></Doc>`,
		"other name":        `<Dot xmlns="urn:flat"><A>x</A><N>3</N></Dot>`,
		"truncated":         open + `<A>x</A><N>3</N></Do`,
		"unknown entity":    open + `<A>&nbsp;</A><N>3</N>` + end,
		"uppercase charref": open + `<A>&#X41;</A><N>3</N>` + end, // encoding/xml takes &#x41; only
		"invalid utf8":      open + "<A>\xff</A><N>3</N>" + end,
		"control char":      open + "<A>\x01</A><N>3</N>" + end,
		"cdata end in text": open + `<A>]]></A><N>3</N>` + end,
		"bare ampersand":    open + `<A>a & b</A><N>3</N>` + end,
	}
	for label, raw := range declined {
		if got, ok := readFlatDoc([]byte(raw)); ok {
			t.Errorf("%s: reader accepted %s as %+v", label, raw, got)
		}
	}
}

// TestFlatTypedReadsAgainstEncodingXML pins the number and boolean children:
// a text the reader accepts decodes to what xml.Unmarshal decodes it to, and
// a text it declines (padding, entity references, other spellings, overflow
// — some of which encoding/xml reads happily) consumes nothing, so an
// optional child can be probed for and a malformed one stops the next read.
func TestFlatTypedReadsAgainstEncodingXML(t *testing.T) {
	type typed struct {
		XMLName xml.Name `xml:"urn:flat T"`
		F       float64  `xml:"F,omitempty"`
		U       uint64   `xml:"U,omitempty"`
		B       bool     `xml:"B,omitempty"`
		N       int      `xml:"N,omitempty"`
	}
	reads := map[string]func(*FlatReader, *typed) bool{
		"F": func(r *FlatReader, v *typed) (ok bool) { v.F, ok = r.Float("F"); return },
		"U": func(r *FlatReader, v *typed) (ok bool) { v.U, ok = r.Uint("U"); return },
		"B": func(r *FlatReader, v *typed) (ok bool) { v.B, ok = r.Bool("B"); return },
		"N": func(r *FlatReader, v *typed) (ok bool) { v.N, ok = r.Int("N"); return },
	}
	texts := []string{
		"0", "-0", "1", "007", "1.5", "-2.5e-300", "5e-324", "1.7976931348623157e+308", "1e999",
		"+Inf", "-Inf", "inf", "0x1p-2", "1_0", "+5", "-5", "18446744073709551615",
		"18446744073709551616", "1234567890", "true", "false", "TRUE", "t", "", " 1", "1 ", "&#49;",
	}
	accepted := 0
	for name, read := range reads {
		for _, text := range texts {
			raw := []byte(`<T xmlns="urn:flat"><` + name + `>` + text + `</` + name + `></T>`)
			r, _ := OpenFlat(raw, "urn:flat", "T")
			got := typed{XMLName: xml.Name{Space: "urn:flat", Local: "T"}}
			if !read(&r, &got) {
				if _, ok := r.Text(name); !ok {
					t.Fatalf("%s %q: the declined read consumed the child", name, text)
				}
				continue
			}
			accepted++
			var want typed
			if err := xml.Unmarshal(raw, &want); err != nil {
				t.Fatalf("%s %q: reader accepted what encoding/xml rejects: %v", name, text, err)
			}
			if got != want || !r.Close("T") {
				t.Fatalf("%s %q: reader %+v, encoding/xml %+v", name, text, got, want)
			}
		}
	}
	if accepted < 30 {
		t.Fatalf("only %d reads accepted; the table is not exercising the fast path", accepted)
	}
}

// TestFlatTextStringNeverAliases: strings handed out by the reader are
// copies, so recycling (here: overwriting) the buffer cannot change them.
func TestFlatTextStringNeverAliases(t *testing.T) {
	raw := []byte(`<Doc xmlns="urn:flat"><A>literal</A><N>3</N><B>es&amp;caped</B></Doc>`)
	r, ok := OpenFlat(raw, "urn:flat", "Doc")
	if !ok {
		t.Fatal("open")
	}
	a, okA := r.Text("A")
	_, okN := r.Int("N")
	b, okB := r.Text("B")
	if !okA || !okN || !okB || !r.Close("Doc") {
		t.Fatal("read")
	}
	if !a.IsLiteral() || b.IsLiteral() {
		t.Fatalf("IsLiteral: A %v, B %v", a.IsLiteral(), b.IsLiteral())
	}
	as, bs := a.String(), b.String()
	for i := range raw {
		raw[i] = '#'
	}
	if as != "literal" || bs != "es&caped" {
		t.Fatalf("strings changed with the buffer: %q, %q", as, bs)
	}
}

// flatRec and flatNestedDoc are the reference for the nested construct: a
// `xml:"L>R"` slice of structs (the membership view's entries) and a struct
// field, each child of them text or a number.
type flatRec struct {
	B string `xml:"B"`
	N uint64 `xml:"N"`
}

type flatNestedDoc struct {
	XMLName xml.Name  `xml:"urn:flat NDoc"`
	A       string    `xml:"A"`
	Recs    []flatRec `xml:"Rs>R"`
	C       flatRec   `xml:"C"`
}

func appendFlatRec(dst []byte, name string, r flatRec) []byte {
	dst = AppendFlatStart(dst, name)
	dst = AppendFlatText(dst, "B", r.B)
	dst = AppendFlatUint(dst, "N", r.N)
	return AppendFlatClose(dst, name)
}

func writeFlatNestedDoc(d flatNestedDoc) []byte {
	buf := AppendFlatOpen(nil, "urn:flat", "NDoc")
	buf = AppendFlatText(buf, "A", d.A)
	buf = AppendFlatStart(buf, "Rs")
	for _, r := range d.Recs {
		buf = appendFlatRec(buf, "R", r)
	}
	buf = AppendFlatClose(buf, "Rs")
	buf = appendFlatRec(buf, "C", d.C)
	return AppendFlatClose(buf, "NDoc")
}

// readFlatRec reads one nested record, consuming nothing unless it is whole.
func readFlatRec(r *FlatReader, name string) (rec flatRec, ok bool) {
	mark := *r
	if r.Enter(name) {
		if rec.B, ok = r.String("B"); ok {
			if rec.N, ok = r.Uint("N"); ok && r.Leave(name) {
				return rec, true
			}
		}
	}
	*r = mark
	return flatRec{}, false
}

// readFlatNestedDoc is a FlatReader client shaped like membership's body
// reader: enter the list, take records until one fails, leave the list.
func readFlatNestedDoc(raw []byte) (flatNestedDoc, bool) {
	d := flatNestedDoc{XMLName: xml.Name{Space: "urn:flat", Local: "NDoc"}}
	r, ok := OpenFlat(raw, "urn:flat", "NDoc")
	if !ok {
		return d, false
	}
	if d.A, ok = r.String("A"); !ok || !r.Enter("Rs") {
		return d, false
	}
	for rec, more := readFlatRec(&r, "R"); more; rec, more = readFlatRec(&r, "R") {
		d.Recs = append(d.Recs, rec)
	}
	if !r.Leave("Rs") {
		return d, false
	}
	if d.C, ok = readFlatRec(&r, "C"); !ok {
		return d, false
	}
	return d, r.Close("NDoc")
}

func equalFlatNestedDoc(a, b flatNestedDoc) bool {
	return a.XMLName == b.XMLName && a.A == b.A && a.C == b.C && slices.Equal(a.Recs, b.Recs)
}

// TestFlatNestedAgainstEncodingXML: for lists of 0, 1 and 300 records over
// every text of codecTexts and a spread of numbers, the writer equals
// xml.Marshal — the empty list's wrapper included — and the reader equals
// xml.Unmarshal of those bytes.
func TestFlatNestedAgainstEncodingXML(t *testing.T) {
	nums := []uint64{0, 1, 7, 1 << 62, 1<<64 - 1}
	var all []flatRec
	for i, s := range codecTexts {
		all = append(all, flatRec{B: s, N: nums[i%len(nums)]})
	}
	var many []flatRec
	for i := 0; i < 300; i++ {
		many = append(many, flatRec{B: fmt.Sprintf("mem://node%03d", i), N: uint64(i) * 37})
	}
	for i, recs := range [][]flatRec{nil, {}, all[:1], all, many} {
		d := flatNestedDoc{A: codecTexts[i%len(codecTexts)], Recs: recs, C: all[(i+3)%len(all)]}
		raw := writeFlatNestedDoc(d)
		want, err := xml.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("writer, %d records:\n got %.400s\nwant %.400s", len(recs), raw, want)
		}
		var ref flatNestedDoc
		if err := xml.Unmarshal(raw, &ref); err != nil {
			t.Fatalf("encoding/xml rejects writer output %.300s: %v", raw, err)
		}
		got, ok := readFlatNestedDoc(raw)
		if !ok || !equalFlatNestedDoc(got, ref) {
			t.Fatalf("reader (accepted=%v), %d records:\n got %+v\nwant %+v", ok, len(recs), got, ref)
		}
	}
}

// TestFlatNestedDeclines: the nested construct is accepted only as the
// writer spells it; every other spelling — most of which encoding/xml reads
// happily — is declined, and what is accepted decodes as encoding/xml
// decodes it.
func TestFlatNestedDeclines(t *testing.T) {
	const open, c, end = `<NDoc xmlns="urn:flat"><A>x</A>`, `<C><B>c</B><N>1</N></C>`, `</NDoc>`
	const rec = `<R><B>b</B><N>2</N></R>`
	canonical := []string{
		open + `<Rs></Rs>` + c + end,
		open + `<Rs>` + rec + `</Rs>` + c + end,
		open + `<Rs>` + rec + `<R><B>a&lt;b&#xD;` + "\r\n" + `</B><N>18446744073709551615</N></R></Rs>` + c + end,
	}
	for _, raw := range canonical {
		var ref flatNestedDoc
		if err := xml.Unmarshal([]byte(raw), &ref); err != nil {
			t.Fatalf("encoding/xml rejects %s: %v", raw, err)
		}
		if got, ok := readFlatNestedDoc([]byte(raw)); !ok || !equalFlatNestedDoc(got, ref) {
			t.Errorf("reader = %+v, %v; encoding/xml = %+v for %s", got, ok, ref, raw)
		}
	}
	declined := map[string]string{
		"absent list":          open + c + end,
		"self-closing list":    open + `<Rs/>` + c + end,
		"self-closing record":  open + `<Rs><R/></Rs>` + c + end,
		"record attribute":     open + `<Rs><R id="1"><B>b</B><N>2</N></R></Rs>` + c + end,
		"list attribute":       open + `<Rs id="1">` + rec + `</Rs>` + c + end,
		"padded record":        open + `<Rs><R> <B>b</B><N>2</N></R></Rs>` + c + end,
		"padded list":          open + `<Rs> ` + rec + `</Rs>` + c + end,
		"padded record end":    open + `<Rs><R><B>b</B><N>2</N></R ></Rs>` + c + end,
		"reordered record":     open + `<Rs><R><N>2</N><B>b</B></R></Rs>` + c + end,
		"missing field":        open + `<Rs><R><B>b</B></R></Rs>` + c + end,
		"extra field":          open + `<Rs><R><B>b</B><N>2</N><Z>z</Z></R></Rs>` + c + end,
		"text in record":       open + `<Rs><R>t<B>b</B><N>2</N></R></Rs>` + c + end,
		"comment in list":      open + `<Rs>` + rec + `<!-- c -->` + rec + `</Rs>` + c + end,
		"foreign record":       open + `<Rs>` + rec + `<Q><B>b</B><N>2</N></Q></Rs>` + c + end,
		"padded number":        open + `<Rs><R><B>b</B><N> 2 </N></R></Rs>` + c + end,
		"wide number":          open + `<Rs><R><B>b</B><N>18446744073709551616</N></R></Rs>` + c + end,
		"missing struct field": open + `<Rs>` + rec + `</Rs>` + end,
		"struct self-closing":  open + `<Rs>` + rec + `</Rs><C/>` + end,
		"unclosed record":      open + `<Rs><R><B>b</B><N>2</N></Rs>` + c + end,
		"wrong end tag":        open + `<Rs><R><B>b</B><N>2</N></Q></Rs>` + c + end,
		"trailing bytes":       open + `<Rs>` + rec + `</Rs>` + c + end + " ",
		"truncated":            open + `<Rs><R><B>b</B><N>2</N></R`,
	}
	for label, raw := range declined {
		if got, ok := readFlatNestedDoc([]byte(raw)); ok {
			t.Errorf("%s: reader accepted %s as %+v", label, raw, got)
		}
	}
}

// TestFlatEnterLeaveConsumeNothingOnDecline: a declined Enter or Leave
// leaves the reader where it was.
func TestFlatEnterLeaveConsumeNothingOnDecline(t *testing.T) {
	raw := []byte(`<NDoc xmlns="urn:flat"><A>x</A><Rs></Rs><C><B>c</B><N>1</N></C></NDoc>`)
	r, _ := OpenFlat(raw, "urn:flat", "NDoc")
	if r.Enter("Rs") || r.Leave("A") || r.Leave("NDoc") {
		t.Fatal("Enter or Leave matched a tag that is not next")
	}
	if a, ok := r.String("A"); !ok || a != "x" {
		t.Fatal("a declined Enter or Leave consumed something")
	}
	if r.Enter("R") || !r.Enter("Rs") || r.Leave("R") || !r.Leave("Rs") {
		t.Fatal("Enter/Leave matched the wrong tags")
	}
	if rec, ok := readFlatRec(&r, "C"); !ok || rec != (flatRec{B: "c", N: 1}) || !r.Close("NDoc") {
		t.Fatalf("struct field = %+v, %v", rec, ok)
	}
}
