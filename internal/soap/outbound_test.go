package soap

import (
	"bytes"
	"fmt"
	"testing"

	"wsgossip/internal/wsa"
)

// Tests of NewEnvelope's one-object layout (outbound): it must encode exactly
// as an envelope whose header and block lists are allocations of their own,
// and no copy or append may reach from one envelope's inline slots into
// another's, or from the header slots into the body slot.

// numberedBlock is a distinct header block per n.
func numberedBlock(t testing.TB, n int) Block {
	t.Helper()
	b, err := MarshalBlock(struct {
		XMLName struct{} `xml:"urn:test Hop"`
		N       int      `xml:"N"`
	}{N: n})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// buildBoth runs the same builder steps on a NewEnvelope product and on a
// plain &Envelope{}, whose header and lists are allocated as they grow.
func buildBoth(build func(*Envelope)) (inline, plain *Envelope) {
	inline, plain = NewEnvelope(), &Envelope{}
	build(inline)
	build(plain)
	return inline, plain
}

func mustEncode(t testing.TB, e *Envelope) []byte {
	t.Helper()
	out, err := e.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestNewEnvelopeWireIdentity: for every shape the builders produce — body
// only, addressing and body, up to past the inline header slots — a
// NewEnvelope product encodes, templates and renders byte for byte as the
// plain envelope does.
func TestNewEnvelopeWireIdentity(t *testing.T) {
	_, body := outboundBlocks(t)
	addressing := wsa.Headers{To: "mem://to", Action: "urn:test:op", MessageID: "urn:uuid:fixed"}
	for headers := 0; headers <= outboundHeaderBlocks+2; headers++ {
		for _, withAddr := range []bool{false, true} {
			name := fmt.Sprintf("headers=%d/addressing=%v", headers, withAddr)
			inline, plain := buildBoth(func(e *Envelope) {
				if withAddr {
					_ = e.SetAddressing(addressing)
				}
				for i := 0; i < headers; i++ {
					e.AddHeaderBlock(numberedBlock(t, i))
				}
				e.SetBodyBlock(body)
			})
			got, want := mustEncode(t, inline), mustEncode(t, plain)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: encode\n got %s\nwant %s", name, got, want)
			}
			gt, err1 := inline.EncodeTemplate()
			wt, err2 := plain.EncodeTemplate()
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: template: %v, %v", name, err1, err2)
			}
			if g, w := gt.RenderTo("mem://peer"), wt.RenderTo("mem://peer"); !bytes.Equal(g, w) {
				t.Fatalf("%s: render\n got %s\nwant %s", name, g, w)
			}
			back, err := Decode(got)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if n, want := len(back.headerBlocks()), len(plain.headerBlocks()); n != want {
				t.Fatalf("%s: decoded %d header blocks, want %d", name, n, want)
			}
		}
	}
}

// TestNewEnvelopeBodyOnlyHasNoHeader: the header attaches on the first
// header write, so a body-only envelope encodes with no Header element, as
// one built without NewEnvelope does.
func TestNewEnvelopeBodyOnlyHasNoHeader(t *testing.T) {
	env := NewEnvelope()
	if err := env.SetBody(testBody{Value: "only"}); err != nil {
		t.Fatal(err)
	}
	if env.Header != nil {
		t.Fatal("a body-only envelope has a header")
	}
	out := mustEncode(t, env)
	if bytes.Contains(out, []byte("Header")) {
		t.Fatalf("body-only envelope encodes a Header element:\n%s", out)
	}
	// A removal that empties nothing attaches nothing either.
	env.RemoveHeader(wsa.Namespace, "To")
	if env.Header != nil {
		t.Fatal("RemoveHeader attached a header")
	}
}

// TestNewEnvelopeSetBodyTwice: a second SetBodyBlock replaces the body, and
// a slice of the first body taken in between keeps what it saw.
func TestNewEnvelopeSetBodyTwice(t *testing.T) {
	env := NewEnvelope()
	first, second := numberedBlock(t, 1), numberedBlock(t, 2)
	env.SetBodyBlock(first)
	held := env.Body.Blocks
	env.SetBodyBlock(second)
	if len(env.Body.Blocks) != 1 || !bytes.Equal(env.Body.Blocks[0].Raw, second.Raw) {
		t.Fatalf("body after the second SetBodyBlock = %+v", env.Body.Blocks)
	}
	if !bytes.Equal(held[0].Raw, first.Raw) {
		t.Fatal("the second SetBodyBlock wrote into the first body's slice")
	}
	if !bytes.Contains(mustEncode(t, env), []byte("<N>2</N>")) {
		t.Fatal("encoded body is not the second block")
	}
}

// TestNewEnvelopeHeadersPastInline: header blocks beyond the inline slots
// append like any slice, keep their order, and never overwrite the body.
func TestNewEnvelopeHeadersPastInline(t *testing.T) {
	env := NewEnvelope()
	body := numberedBlock(t, -1)
	env.SetBodyBlock(body)
	const n = outboundHeaderBlocks + 3
	for i := 0; i < n; i++ {
		env.AddHeaderBlock(numberedBlock(t, i))
		if !bytes.Equal(env.Body.Blocks[0].Raw, body.Raw) {
			t.Fatalf("header block %d overwrote the body", i)
		}
	}
	if len(env.Header.Blocks) != n {
		t.Fatalf("%d header blocks, want %d", len(env.Header.Blocks), n)
	}
	back, err := Decode(mustEncode(t, env))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range back.Header.Blocks {
		if want := numberedBlock(t, i); !bytes.Equal(b.Raw, want.Raw) {
			t.Fatalf("header block %d = %s, want %s", i, b.Raw, want.Raw)
		}
	}
}

// TestNewEnvelopeCopiesShareNoSlots: a Snapshot or Clone of a NewEnvelope
// product has arrays of its own — an append, a replacement or a removal on
// either side leaves the other as it was.
func TestNewEnvelopeCopiesShareNoSlots(t *testing.T) {
	for _, copyOf := range []struct {
		name string
		fn   func(*Envelope) *Envelope
	}{{"Snapshot", (*Envelope).Snapshot}, {"Clone", (*Envelope).Clone}} {
		t.Run(copyOf.name, func(t *testing.T) {
			build := func() *Envelope {
				env := NewEnvelope()
				_ = env.SetAddressing(wsa.Headers{Action: "urn:test:op", MessageID: "urn:uuid:fixed"})
				env.SetBodyBlock(numberedBlock(t, 0))
				return env
			}
			for _, mutateOriginal := range []bool{false, true} {
				orig := build()
				cp := copyOf.fn(orig)
				want := mustEncode(t, build())
				target, other := cp, orig
				if mutateOriginal {
					target, other = orig, cp
				}
				target.AddHeaderBlock(numberedBlock(t, 7))
				target.SetBodyBlock(numberedBlock(t, 8))
				target.RemoveHeader(wsa.Namespace, "Action")
				if got := mustEncode(t, other); !bytes.Equal(got, want) {
					t.Fatalf("mutating the %s changed the other:\n got %s\nwant %s",
						map[bool]string{false: "copy", true: "original"}[mutateOriginal], got, want)
				}
			}
		})
	}
}
