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
)

// Wire-identity guard for the probe messages: each one's bytes, with its
// message ID replaced by a fixed one, must equal the committed
// testdata/wire/*.xml — as written for a binding that takes bytes, and as
// encoded from the envelope a binding without SendEncoded is handed.

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
	rec, written := &envRecorder{}, &byteRecorder{}
	p := New(Config{Self: "mem://self", Caller: rec, Clock: clock.NewVirtual(), Timeout: time.Second})
	defer p.Close()
	w := New(Config{Self: "mem://self", Caller: written, Clock: clock.NewVirtual(), Timeout: time.Second})
	defer w.Close()
	for _, tc := range []struct {
		name, action, to string
		body             any
	}{
		{"ping", ActionPing, "mem://target", pingBody{From: "mem://self", Nonce: "n1"}},
		{"ping_ack", ActionPingAck, "mem://origin", pingAckBody{From: "mem://self", Nonce: "n1"}},
		{"ping_req", ActionPingReq, "mem://helper", pingReqBody{Origin: "mem://self", Target: "mem://target", Nonce: "n2"}},
		{"ping_req_ack", ActionPingReqAck, "mem://origin", pingReqAckBody{From: "mem://self", Target: "mem://target", Nonce: "n2"}},
	} {
		rec.sent, written.msgs = nil, nil
		p.send(tc.action, tc.to, tc.body, tc.name)
		w.send(tc.action, tc.to, tc.body, tc.name)
		if len(rec.sent) != 1 || len(written.msgs) != 1 {
			t.Fatalf("%s: %d envelopes and %d written messages sent, want 1 each", tc.name, len(rec.sent), len(written.msgs))
		}
		data, err := rec.sent[0].Encode()
		if err != nil {
			t.Fatal(err)
		}
		checkWireGolden(t, tc.name, data)
		checkWireGolden(t, tc.name, written.msgs[0])
	}
}
