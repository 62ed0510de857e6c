package membership

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
)

// Wire-identity guard for the view exchange a Service sends through its
// SOAPEndpoint: its bytes, with the message ID replaced by a fixed one, must
// equal the committed testdata/wire/exchange.xml — encoded from the envelope
// a binding without SendEncoded is handed, and as written for one that takes
// bytes.

// envRecorder is a binding that keeps every envelope sent through it.
type envRecorder struct{ sent []*soap.Envelope }

func (r *envRecorder) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}

func (r *envRecorder) Send(_ context.Context, _ string, env *soap.Envelope) error {
	r.sent = append(r.sent, env)
	return nil
}

// byteRecorder is a binding that keeps the bytes of every message sent
// through it as written.
type byteRecorder struct {
	envRecorder
	msgs [][]byte
}

func (r *byteRecorder) SendEncoded(_ context.Context, _ string, data []byte) error {
	r.msgs = append(r.msgs, bytes.Clone(data))
	return nil
}

// TestOutboundWireGolden: a Service joins through two seeds, so the first
// exchange it sends lists itself first at heartbeat 1, then both seeds in
// address order at heartbeat 0.
func TestOutboundWireGolden(t *testing.T) {
	join := func(caller soap.Caller) {
		svc, err := New(Config{
			Endpoint: NewSOAPEndpoint("mem://self", caller), Clock: clock.NewVirtual(),
			Fanout: 2, SuspectAfter: time.Second, RemoveAfter: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.Join(context.Background(), []string{"mem://peer", "mem://a&b"})
	}
	rec, written := &envRecorder{}, &byteRecorder{}
	join(rec)
	join(written)
	if len(rec.sent) != 2 || len(written.msgs) != 2 {
		t.Fatalf("%d envelopes and %d written messages sent, want 2 each", len(rec.sent), len(written.msgs))
	}
	encoded, err := rec.sent[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "wire", "exchange.xml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{encoded, written.msgs[0]} {
		env, err := soap.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		data = bytes.ReplaceAll(data, []byte(env.Addressing().MessageID), []byte("urn:uuid:fixed-message-id"))
		if !bytes.Equal(data, want) {
			t.Errorf("view exchange on the wire:\n got %s\nwant %s", data, want)
		}
	}
}
