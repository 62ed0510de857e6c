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
// SOAPEndpoint: its encoded bytes, with the message ID replaced by a fixed
// one, must equal the committed testdata/wire/exchange.xml.

// envRecorder is a binding that keeps every envelope sent through it.
type envRecorder struct{ sent []*soap.Envelope }

func (r *envRecorder) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}

func (r *envRecorder) Send(_ context.Context, _ string, env *soap.Envelope) error {
	r.sent = append(r.sent, env)
	return nil
}

// TestOutboundWireGolden: a Service joins through two seeds, so the first
// exchange it sends lists itself first at heartbeat 1, then both seeds in
// address order at heartbeat 0.
func TestOutboundWireGolden(t *testing.T) {
	rec := &envRecorder{}
	svc, err := New(Config{
		Endpoint: NewSOAPEndpoint("mem://self", rec), Clock: clock.NewVirtual(),
		Fanout: 2, SuspectAfter: time.Second, RemoveAfter: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Join(context.Background(), []string{"mem://peer", "mem://a&b"})
	if len(rec.sent) != 2 {
		t.Fatalf("%d messages sent, want 2", len(rec.sent))
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
