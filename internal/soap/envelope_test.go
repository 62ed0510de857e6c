package soap

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"
	"testing/quick"

	"wsgossip/internal/wsa"
)

type testBody struct {
	XMLName xml.Name `xml:"urn:test Ping"`
	Value   string   `xml:"Value"`
	N       int      `xml:"N"`
}

type testHeader struct {
	XMLName xml.Name `xml:"urn:test Meta"`
	Tag     string   `xml:"Tag"`
}

func TestEnvelopeBodyRoundTrip(t *testing.T) {
	env := NewEnvelope()
	if err := env.SetBody(testBody{Value: "hello", N: 7}); err != nil {
		t.Fatalf("set body: %v", err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Contains(data, []byte(Namespace)) {
		t.Fatalf("missing soap namespace in %s", data)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var out testBody
	if err := decoded.DecodeBody(&out); err != nil {
		t.Fatalf("decode body: %v", err)
	}
	if out.Value != "hello" || out.N != 7 {
		t.Fatalf("round trip body = %+v", out)
	}
}

func TestEnvelopeBodyName(t *testing.T) {
	env := NewEnvelope()
	if name := env.BodyName(); name.Local != "" {
		t.Fatalf("empty envelope body name = %v", name)
	}
	if err := env.SetBody(testBody{Value: "x"}); err != nil {
		t.Fatal(err)
	}
	name := env.BodyName()
	if name.Space != "urn:test" || name.Local != "Ping" {
		t.Fatalf("body name = %v", name)
	}
}

func TestDecodeEmptyBody(t *testing.T) {
	env := NewEnvelope()
	var out testBody
	if err := env.DecodeBody(&out); err != ErrEmptyBody {
		t.Fatalf("err = %v, want ErrEmptyBody", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	env := NewEnvelope()
	if err := env.AddHeader(testHeader{Tag: "abc"}); err != nil {
		t.Fatalf("add header: %v", err)
	}
	if err := env.SetBody(testBody{Value: "v"}); err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var h testHeader
	if err := decoded.DecodeHeader("urn:test", "Meta", &h); err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if h.Tag != "abc" {
		t.Fatalf("header tag = %q", h.Tag)
	}
}

func TestHeaderNotFound(t *testing.T) {
	env := NewEnvelope()
	var h testHeader
	err := env.DecodeHeader("urn:test", "Meta", &h)
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveHeader(t *testing.T) {
	env := NewEnvelope()
	if env.RemoveHeader("urn:test", "Meta") {
		t.Fatal("removed from empty envelope")
	}
	if err := env.AddHeader(testHeader{Tag: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := env.AddHeader(testHeader{Tag: "b"}); err != nil {
		t.Fatal(err)
	}
	if !env.RemoveHeader("urn:test", "Meta") {
		t.Fatal("remove reported nothing removed")
	}
	if _, ok := env.HeaderBlock("urn:test", "Meta"); ok {
		t.Fatal("header survived removal")
	}
}

// TestUnknownHeaderPassThrough is the property the paper's Consumer role
// depends on: header blocks a node does not understand survive a full
// decode/encode cycle byte-compatibly enough to re-decode.
func TestUnknownHeaderPassThrough(t *testing.T) {
	env := NewEnvelope()
	if err := env.AddHeader(testHeader{Tag: "keep-me"}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(testBody{Value: "v"}); err != nil {
		t.Fatal(err)
	}
	// Two full wire cycles.
	for i := 0; i < 2; i++ {
		data, err := env.Encode()
		if err != nil {
			t.Fatalf("cycle %d encode: %v", i, err)
		}
		env, err = Decode(data)
		if err != nil {
			t.Fatalf("cycle %d decode: %v", i, err)
		}
	}
	var h testHeader
	if err := env.DecodeHeader("urn:test", "Meta", &h); err != nil {
		t.Fatalf("header lost after cycles: %v", err)
	}
	if h.Tag != "keep-me" {
		t.Fatalf("header tag = %q", h.Tag)
	}
}

func TestEnvelopeClone(t *testing.T) {
	env := NewEnvelope()
	if err := env.AddHeader(testHeader{Tag: "orig"}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(testBody{Value: "v"}); err != nil {
		t.Fatal(err)
	}
	cp := env.Clone()
	// Mutating the clone must not affect the original.
	cp.RemoveHeader("urn:test", "Meta")
	if _, ok := env.HeaderBlock("urn:test", "Meta"); !ok {
		t.Fatal("clone mutation leaked into original")
	}
	// Raw bytes must be independent.
	cp2 := env.Clone()
	cp2.Header.Blocks[0].Raw[0] = 'X'
	var h testHeader
	if err := env.DecodeHeader("urn:test", "Meta", &h); err != nil {
		t.Fatalf("original corrupted by clone byte mutation: %v", err)
	}
	// The clone's blocks share one slab: growing one Raw must not run into
	// the next, and the block lists hold no spare capacity to retain.
	cp3 := env.Clone()
	body := string(cp3.Body.Blocks[0].Raw)
	_ = append(cp3.Header.Blocks[0].Raw, "spill"...)
	if string(cp3.Body.Blocks[0].Raw) != body {
		t.Fatalf("append to a cloned header block overwrote the body: %s", cp3.Body.Blocks[0].Raw)
	}
	if cap(cp3.Header.Blocks) != len(cp3.Header.Blocks) || cap(cp3.Body.Blocks) != len(cp3.Body.Blocks) {
		t.Fatalf("clone block lists not exactly sized: header %d/%d, body %d/%d",
			len(cp3.Header.Blocks), cap(cp3.Header.Blocks), len(cp3.Body.Blocks), cap(cp3.Body.Blocks))
	}
}

func TestAddressingRoundTrip(t *testing.T) {
	env := NewEnvelope()
	reply := wsa.NewEPR("mem://caller")
	in := wsa.Headers{
		To:        "mem://svc",
		Action:    "urn:op",
		MessageID: "urn:uuid:1234",
		RelatesTo: "urn:uuid:0000",
		ReplyTo:   &reply,
	}
	if err := env.SetAddressing(in); err != nil {
		t.Fatalf("set addressing: %v", err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	out := decoded.Addressing()
	if out.To != in.To || out.Action != in.Action || out.MessageID != in.MessageID || out.RelatesTo != in.RelatesTo {
		t.Fatalf("addressing round trip = %+v, want %+v", out, in)
	}
	if out.ReplyTo == nil || out.ReplyTo.Address != "mem://caller" {
		t.Fatalf("reply-to = %+v", out.ReplyTo)
	}
}

func TestSetAddressingReplaces(t *testing.T) {
	env := NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{To: "mem://a", Action: "urn:1"}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetAddressing(wsa.Headers{To: "mem://b", Action: "urn:2"}); err != nil {
		t.Fatal(err)
	}
	got := env.Addressing()
	if got.To != "mem://b" || got.Action != "urn:2" {
		t.Fatalf("addressing = %+v", got)
	}
	// Exactly one To block should remain.
	count := 0
	for _, b := range env.Header.Blocks {
		if b.XMLName.Local == "To" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("To blocks = %d, want 1", count)
	}
}

func TestBodyRoundTripProperty(t *testing.T) {
	f := func(value string, n int) bool {
		for _, r := range value {
			if r < 0x20 || r == 0xFFFE || r == 0xFFFF || !isValidXMLRune(r) {
				return true
			}
		}
		env := NewEnvelope()
		if err := env.SetBody(testBody{Value: value, N: n}); err != nil {
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
		var out testBody
		if err := decoded.DecodeBody(&out); err != nil {
			return false
		}
		return out.Value == value && out.N == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func isValidXMLRune(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}
