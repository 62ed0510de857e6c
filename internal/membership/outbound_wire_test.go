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
	"wsgossip/internal/transport"
	"wsgossip/internal/wsa"
)

// Wire-identity guard for the view exchange a Service sends through its
// SOAPEndpoint: its bytes as written, with the message ID replaced by a
// fixed one, must equal the committed testdata/wire/exchange.xml, and equal
// the envelope built field by field from the transport message the endpoint
// was handed.

// byteRecorder is a binding that keeps the bytes of every message sent
// through it as written.
type byteRecorder struct{ msgs [][]byte }

func (r *byteRecorder) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}

func (r *byteRecorder) Send(ctx context.Context, to string, env *soap.Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return r.SendEncoded(ctx, to, data)
}

func (r *byteRecorder) SendEncoded(_ context.Context, _ string, data []byte) error {
	r.msgs = append(r.msgs, bytes.Clone(data))
	return nil
}

// TestOutboundWireGolden: a Service joins through two seeds, so the first
// exchange it sends lists itself first at heartbeat 1, then both seeds in
// address order at heartbeat 0.
func TestOutboundWireGolden(t *testing.T) {
	written := &byteRecorder{}
	var handed []transport.Message
	svc, err := New(Config{
		Endpoint: &tapEndpoint{
			Endpoint: NewSOAPEndpoint("mem://self", written),
			tap:      func(msg transport.Message) { handed = append(handed, msg) },
		},
		Clock:  clock.NewVirtual(),
		Fanout: 2, SuspectAfter: time.Second, RemoveAfter: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Join(context.Background(), []string{"mem://peer", "mem://a&b"})
	if len(handed) != 2 || len(written.msgs) != 2 {
		t.Fatalf("%d messages handed and %d written, want 2 each", len(handed), len(written.msgs))
	}
	data := written.msgs[0]
	env, err := soap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	id := env.Addressing().MessageID
	msg := handed[0]
	built := soap.NewEnvelope()
	if err := built.SetAddressing(wsa.Headers{To: msg.To, Action: msg.Action, MessageID: id}); err != nil {
		t.Fatal(err)
	}
	built.SetBodyBlock(soap.Block{XMLName: bodyName, Raw: msg.Body})
	ref, err := built.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, ref) {
		t.Errorf("view exchange as written:\n got %s\nwant %s", data, ref)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "wire", "exchange.xml"))
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.ReplaceAll(data, []byte(id), []byte("urn:uuid:fixed-message-id"))
	if !bytes.Equal(data, want) {
		t.Errorf("view exchange on the wire:\n got %s\nwant %s", data, want)
	}
}
