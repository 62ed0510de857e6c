package probe

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// Wire-identity guard for the probe messages: each one's bytes as written,
// with its message ID replaced by a fixed one, must equal the committed
// testdata/wire/*.xml, and equal the envelope built field by field: To,
// Action and the same MessageID, and the body marshalled by encoding/xml.

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

// checkWireGolden compares one message's bytes, its wsa:MessageID fixed,
// with testdata/wire/name.xml.
func checkWireGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	env, err := soap.Decode(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if id := env.Addressing().MessageID; id != "" {
		data = bytes.ReplaceAll(data, []byte(id), []byte("urn:uuid:fixed-message-id"))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "wire", name+".xml"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%s on the wire:\n got %s\nwant %s", name, data, want)
	}
}

func TestOutboundWireGolden(t *testing.T) {
	written := &byteRecorder{}
	p := New(Config{Self: "mem://self", Caller: written, Clock: clock.NewVirtual(), Timeout: time.Second})
	defer p.Close()
	for _, tc := range []struct {
		name, action, to string
		body             any
	}{
		{"ping", ActionPing, "mem://target", pingBody{From: "mem://self", Nonce: "n1"}},
		{"ping_ack", ActionPingAck, "mem://origin", pingAckBody{From: "mem://self", Nonce: "n1"}},
		{"ping_req", ActionPingReq, "mem://helper", pingReqBody{Origin: "mem://self", Target: "mem://target", Nonce: "n2"}},
		{"ping_req_ack", ActionPingReqAck, "mem://origin", pingReqAckBody{From: "mem://self", Target: "mem://target", Nonce: "n2"}},
	} {
		written.msgs = nil
		p.send(tc.action, tc.to, tc.body, tc.name)
		if len(written.msgs) != 1 {
			t.Fatalf("%s: %d messages written, want 1", tc.name, len(written.msgs))
		}
		data := written.msgs[0]
		checkWireGolden(t, tc.name, data)
		env, err := soap.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		built := soap.NewEnvelope()
		if err := built.SetAddressing(wsa.Headers{To: tc.to, Action: tc.action, MessageID: env.Addressing().MessageID}); err != nil {
			t.Fatal(err)
		}
		if err := built.SetBody(tc.body); err != nil {
			t.Fatal(err)
		}
		ref, err := built.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, ref) {
			t.Errorf("%s as written:\n got %s\nwant %s", tc.name, data, ref)
		}
	}
}
