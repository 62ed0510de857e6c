package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"testing"

	"wsgossip/internal/wsa"
)

// The message writer against the envelope it replaces: what a Message puts on
// the wire — sent to one peer, or fanned out — must be byte for byte what its
// sender put there when it built the message as an Envelope: NewEnvelope,
// SetAddressing with To, Action and MessageID, AddHeaderBlock for each header
// block, SetBodyBlock (or a Body.Blocks list for more than one child), then
// Encode, or Fanout, which renders each copy from its template. The writer
// writes the bytes itself; a block the splice writer declines is the same
// error either way, and every output passes the strict oracle.

// byteRecorder takes messages as bytes; its Send encodes the envelope.
type byteRecorder struct{ msgs [][]byte }

func (r *byteRecorder) SendEncoded(_ context.Context, _ string, data []byte) error {
	r.msgs = append(r.msgs, bytes.Clone(data))
	return nil
}

func (r *byteRecorder) Send(_ context.Context, _ string, env *Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	r.msgs = append(r.msgs, data)
	return nil
}

func (r *byteRecorder) Call(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	return nil, r.Send(ctx, to, env)
}

// fuzzBlock is one of the block shapes the stack sends, picked by kind: a
// canonical block, one that declares no namespace (the writer injects it),
// one with a prefixed name (which the splice writer declines, and only a
// hand builds), one with a prefixed attribute declared on its own tag (as
// the fallback decoder captures one), and a wsa:To, which a fan-out replaces.
func fuzzBlock(kind byte, name, text string) Block {
	const space = "urn:fuzz"
	local := "B" + name
	if !isNameish(local) {
		local = "Block"
	}
	escaped := string(AppendEscaped(nil, text))
	switch kind % 5 {
	case 0:
		return Block{XMLName: xml.Name{Space: space, Local: local}, Raw: []byte(`<` + local + ` xmlns="` + space + `">` + escaped + `</` + local + `>`)}
	case 1:
		return Block{XMLName: xml.Name{Space: space, Local: local}, Raw: []byte(`<` + local + `>` + escaped + `</` + local + `>`)}
	case 2:
		return Block{XMLName: xml.Name{Space: space, Local: local}, Raw: []byte(`<p:` + local + ` xmlns:p="` + space + `">` + escaped + `</p:` + local + `>`)}
	case 3:
		return Block{XMLName: xml.Name{Space: space, Local: local}, Raw: []byte(`<` + local + ` xmlns="` + space + `" xmlns:q="urn:q" q:a="1">` + escaped + `</` + local + `>`)}
	default:
		return Block{XMLName: xml.Name{Space: wsa.Namespace, Local: "To"}, Raw: []byte(`<To xmlns="` + wsa.Namespace + `">` + escaped + `</To>`)}
	}
}

// isNameish reports whether s is a plain ASCII XML name.
func isNameish(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || i > 0 && c >= '0' && c <= '9') {
			return false
		}
	}
	return s != ""
}

// builtEnvelope is the envelope a sender built for m before the writer: the
// reference the writer's bytes are held to.
func builtEnvelope(m *Message) *Envelope {
	env := NewEnvelope()
	_ = env.SetAddressing(wsa.Headers{To: m.To, Action: m.Action, MessageID: wsa.MessageID(m.ID)})
	for _, b := range m.Header {
		env.AddHeaderBlock(b)
	}
	blocks := append([]Block(nil), m.Body...)
	var buf []byte
	for i := range m.Parts {
		start := len(buf)
		buf = m.Write(buf, i)
		blocks = append(blocks, Block{XMLName: m.Name, Raw: buf[start:len(buf):len(buf)]})
	}
	switch len(blocks) {
	case 0:
	case 1:
		env.SetBodyBlock(blocks[0])
	default:
		env.Body.Blocks = blocks
	}
	return env
}

func FuzzMessageWriter(f *testing.F) {
	f.Add("urn:wsgossip:2008:ihave", "", "urn:uuid:0123", []byte{}, []byte{0}, 1, "mem://a", "x")
	f.Add("urn:wsgossip:2008:iwant", "mem://holder", "urn:uuid:4567", []byte{}, []byte{}, 1, "mem://b", "Fetch")
	f.Add("urn:wsgossip:2008:aggregate:exchange", "", "urn:uuid:89", []byte{0, 1}, []byte{}, 3, "mem://c", "a<b&c")
	f.Add("urn:wsgossip:2008:membership:exchange", "mem://a&b", "urn:uuid:ab", []byte{}, []byte{0}, 0, "mem://d", "view")
	f.Add("urn:probe", "mem://t", "id", []byte{2}, []byte{3}, 0, "mem://e", "prefixed")
	f.Add("urn:a", "", "id", []byte{4, 0}, []byte{0}, 1, "mem://e", "mem://stale")
	f.Add("", "", "", []byte{}, []byte{}, 0, "mem://f", "")
	f.Add("a\"'<>&\t\r\n\x00\xff", "mem://\r\n", "\xff\xfe", []byte{1, 0, 1}, []byte{1, 1}, 2, "mem://g", "\x01")
	f.Fuzz(func(t *testing.T, action, to, id string, header, body []byte, parts int, target, text string) {
		if len(header) > 8 || len(body) > 8 || parts < 0 || parts > 8 {
			return
		}
		m := &Message{To: to, Action: action, ID: []byte(id), Name: xml.Name{Space: "urn:fuzz", Local: "Part"}, Parts: parts}
		for i, k := range header {
			m.Header = append(m.Header, fuzzBlock(k, "H"+string(rune('a'+i)), text))
		}
		for i, k := range body {
			m.Body = append(m.Body, fuzzBlock(k, "C"+string(rune('a'+i)), text))
		}
		m.Write = func(dst []byte, i int) []byte {
			dst = AppendFlatOpen(dst, "urn:fuzz", "Part")
			dst = AppendFlatText(dst, "Text", text)
			dst = AppendFlatInt(dst, "I", int64(i))
			return AppendFlatClose(dst, "Part")
		}
		ctx := context.Background()
		targets := []string{target, target + "/2"}

		got, want := &byteRecorder{}, &byteRecorder{}
		err := m.Send(ctx, got, target)
		if wantErr := want.Send(ctx, target, builtEnvelope(m)); err != wantErr {
			t.Fatalf("Send: %v, want %v", err, wantErr)
		}
		// A fan-out renders each target's To, so the message has none.
		fan := *m
		fan.To = ""
		sent, failed := fan.Fanout(ctx, got, targets)
		wantSent, wantFailed := Fanout(ctx, want, builtEnvelope(&fan), targets)
		if sent != wantSent || len(failed) != len(wantFailed) {
			t.Fatalf("fan-out sent %d, failed %v; want %d, %v", sent, failed, wantSent, wantFailed)
		}
		if len(got.msgs) != len(want.msgs) {
			t.Fatalf("%d messages, want %d", len(got.msgs), len(want.msgs))
		}
		for i := range want.msgs {
			if !bytes.Equal(got.msgs[i], want.msgs[i]) {
				t.Fatalf("message %d:\n got %q\nwant %q", i, got.msgs[i], want.msgs[i])
			}
			mustBeWellFormed(t, "message", got.msgs[i])
		}
	})
}

// TestMessageWriterSplicesOrDeclines: the canonical, the declaration-free
// and the prefixed-attribute blocks are written and sent as bytes, and a
// block with a prefixed name, in the header or the body, is ErrNotSpliceable
// with nothing sent.
func TestMessageWriterSplicesOrDeclines(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name         string
		header, body byte
		spliced      bool
	}{
		{"canonical", 0, 0, true},
		{"declaration-free", 1, 1, true},
		{"prefixed header", 2, 0, false},
		{"prefixed body", 0, 2, false},
		{"prefixed attribute", 3, 0, true},
	} {
		m := Message{
			Action: "urn:a", ID: []byte("urn:uuid:1"),
			Header: []Block{fuzzBlock(tc.header, "H", "h")},
			Body:   []Block{fuzzBlock(tc.body, "C", "c")},
		}
		rec := &countingRecorder{}
		err := m.Send(ctx, rec, "mem://a")
		if tc.spliced && (err != nil || rec.encoded != 1) || !tc.spliced && (!errors.Is(err, ErrNotSpliceable) || rec.encoded != 0) {
			t.Errorf("%s: %v, %d written; want spliced %v", tc.name, err, rec.encoded, tc.spliced)
		}
		if rec.envelopes != 0 {
			t.Errorf("%s: %d envelopes sent", tc.name, rec.envelopes)
		}
	}
}

// countingRecorder counts the messages it takes as bytes and as envelopes.
type countingRecorder struct{ encoded, envelopes int }

func (r *countingRecorder) SendEncoded(context.Context, string, []byte) error {
	r.encoded++
	return nil
}

func (r *countingRecorder) Send(context.Context, string, *Envelope) error {
	r.envelopes++
	return nil
}

func (r *countingRecorder) Call(context.Context, string, *Envelope) (*Envelope, error) {
	return nil, nil
}
