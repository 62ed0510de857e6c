package soap

import (
	"bytes"
	"encoding/xml"
	"slices"
	"strings"
	"testing"

	"wsgossip/internal/testkit"
	"wsgossip/internal/wsa"
)

// retainSource is a received notification with addressing, an unknown
// header and a body of n bytes of text, decoded from a buffer of its own,
// which is returned so a test can recycle it.
func retainSource(t testing.TB, n int) (*Envelope, []byte) {
	t.Helper()
	env := NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{To: "mem://self", Action: "urn:test:notify", MessageID: "urn:uuid:r1", ReplyTo: &wsa.EndpointReference{Address: "mem://reply"}}); err != nil {
		t.Fatal(err)
	}
	env.AddHeaderBlock(Block{XMLName: xml.Name{Space: "urn:trace", Local: "Trace"}, Raw: []byte(`<Trace xmlns="urn:trace" hop="3">t</Trace>`)})
	if err := env.SetBody(struct {
		XMLName xml.Name `xml:"urn:test Note"`
		Data    string   `xml:"Data"`
	}{Data: strings.Repeat("x", n)}); err != nil {
		t.Fatal(err)
	}
	wire, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	return got, wire
}

// TestRetainedKeepsWhatForwardReads: the copy is the source's header blocks
// other than the WS-Addressing properties but wsa:MessageID, in order, and
// its body, none of it in the source's buffer; its addressing reads as the
// MessageID alone.
func TestRetainedKeepsWhatForwardReads(t *testing.T) {
	src, wire := retainSource(t, 64)
	if src.Addressing().MessageID == "" {
		t.Fatal("source without addressing")
	}
	var r Retained
	r.Retain(src, xml.Name{})
	var kept []Block
	for _, b := range src.Header.Blocks {
		if !isAddressingName(b.XMLName) || b.XMLName.Local == "MessageID" {
			kept = append(kept, Block{XMLName: b.XMLName, Raw: bytes.Clone(b.Raw)})
		}
	}
	body := bytes.Clone(src.Body.Blocks[0].Raw)
	for i := range wire {
		wire[i] = '#' // the transport recycles the receive buffer
	}
	env := r.Envelope()
	if len(kept) != 2 || !slices.EqualFunc(env.Header.Blocks, kept, func(a, b Block) bool {
		return a.XMLName == b.XMLName && bytes.Equal(a.Raw, b.Raw)
	}) {
		t.Fatalf("header = %v, want %v", env.Header.Blocks, kept)
	}
	if len(env.Body.Blocks) != 1 || !bytes.Equal(env.Body.Blocks[0].Raw, body) {
		t.Fatalf("body = %v", env.Body.Blocks)
	}
	if h := env.Addressing(); h != (wsa.Headers{MessageID: "urn:uuid:r1"}) {
		t.Fatalf("addressing = %+v, want the MessageID alone", h)
	}
	if id := env.MessageIDKey(); string(id) != "urn:uuid:r1" {
		t.Fatalf("MessageIDKey = %q", id)
	}
	// An append to one block never writes into the next.
	header := env.Header.Blocks[0].Raw
	_ = append(header, '!')
	if !bytes.Equal(env.Body.Blocks[0].Raw, body) {
		t.Fatal("an append to a header block wrote into the body")
	}
}

// TestRetainedLeavesOutANamedBlock: a block its owner writes itself is left
// out of the copy, and the rest is kept as without it.
func TestRetainedLeavesOutANamedBlock(t *testing.T) {
	src, _ := retainSource(t, 64)
	var r Retained
	r.Retain(src, xml.Name{Space: "urn:trace", Local: "Trace"})
	env := r.Envelope()
	if len(env.Header.Blocks) != 1 || env.Header.Blocks[0].XMLName.Local != "MessageID" || len(env.Body.Blocks) != 1 {
		t.Fatalf("copy = %+v", env)
	}
}

// TestRetainedRefillsInPlace: refilling a copy with an envelope of about the
// same size allocates nothing, and a larger one grows the slab once; what
// the copy held before leaves no block behind.
func TestRetainedRefillsInPlace(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	a, _ := retainSource(t, 200)
	b, _ := retainSource(t, 190)
	var r Retained
	r.Retain(a, xml.Name{})
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		if flip = !flip; flip {
			r.Retain(b, xml.Name{})
		} else {
			r.Retain(a, xml.Name{})
		}
	})
	if allocs != 0 {
		t.Fatalf("refill = %.1f allocs, want 0", allocs)
	}
	small := cap(r.slab)
	large, _ := retainSource(t, 4096)
	r.Retain(large, xml.Name{})
	if cap(r.slab) <= small || cap(r.slab) < 4096 {
		t.Fatalf("slab of %d bytes after a refill with a 4 KiB body, %d before", cap(r.slab), small)
	}
	if allocs := testing.AllocsPerRun(10, func() { r.Retain(a, xml.Name{}) }); allocs != 0 {
		t.Fatalf("refill with a smaller envelope after a larger = %.1f allocs, want 0", allocs)
	}
	bare := NewEnvelope()
	bare.SetBodyBlock(Block{XMLName: xml.Name{Space: "urn:test", Local: "Bare"}, Raw: []byte(`<Bare xmlns="urn:test"/>`)})
	r.Retain(bare, xml.Name{})
	if env := r.Envelope(); env.Header != nil || len(env.Body.Blocks) != 1 || string(env.Body.Blocks[0].Raw) != `<Bare xmlns="urn:test"/>` {
		t.Fatalf("refilled with a headerless envelope: header %v, body %v", env.Header, env.Body.Blocks)
	}
	if tail := r.blocks[1:cap(r.blocks)]; slices.ContainsFunc(tail, func(b Block) bool { return b.Raw != nil }) {
		t.Fatal("blocks past the copy keep an earlier copy's bytes")
	}
}
