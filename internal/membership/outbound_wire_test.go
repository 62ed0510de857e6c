package membership

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
)

// Wire-identity guard for the view exchange SOAPEndpoint.Send originates:
// its encoded bytes, with the message ID replaced by a fixed one, must equal
// the committed testdata/wire/exchange.xml.

// envRecorder is a binding that keeps every envelope sent through it.
type envRecorder struct{ sent []*soap.Envelope }

func (r *envRecorder) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}

func (r *envRecorder) Send(_ context.Context, _ string, env *soap.Envelope) error {
	r.sent = append(r.sent, env)
	return nil
}

func TestOutboundWireGolden(t *testing.T) {
	rec := &envRecorder{}
	ep := NewSOAPEndpoint("mem://self", rec)
	msg := transport.Message{To: "mem://peer", Action: ActionExchange, Body: []byte(`{"from":"mem://self","view":["mem://a","mem://b"]}`)}
	if err := ep.Send(context.Background(), msg); err != nil {
		t.Fatal(err)
	}
	if len(rec.sent) != 1 {
		t.Fatalf("%d messages sent, want 1", len(rec.sent))
	}
	env := rec.sent[0]
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.ReplaceAll(data, []byte(env.Addressing().MessageID), []byte("urn:uuid:fixed-message-id"))
	want, err := os.ReadFile(filepath.Join("testdata", "wire", "exchange.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("view exchange on the wire:\n got %s\nwant %s", data, want)
	}
}
