package aggregate

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"wsgossip/internal/core"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// Wire-identity guard for the messages an aggregation Service originates —
// the windowed share and its ack, and the start flood: the encoded bytes,
// with the message ID replaced by a fixed one, must equal the committed
// testdata/wire/*.xml.

// checkWireGolden compares env's encoding, its wsa:MessageID fixed, with
// testdata/wire/name.xml.
func checkWireGolden(t *testing.T, name string, env *soap.Envelope) {
	t.Helper()
	data, err := env.Encode()
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
	cctx := wscoord.CoordinationContext{
		Identifier:          "urn:uuid:task",
		CoordinationType:    core.CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://coordinator"},
	}
	share := Share{
		TaskID: cctx.Identifier, Function: string(FuncAvg), From: "mem://a",
		Sum: 1.25, Weight: 0.5, HasExtremes: true, Min: 1, Max: 3,
		WindowMillis: 1000, Epoch: 7, Seq: 42, Root: "mem://root", Metric: "load",
	}
	env, err := newMessage(ActionExchange, contextBlock(cctx))
	if err != nil {
		t.Fatal(err)
	}
	env.SetBodyBlock(shareBlock(&share))
	checkWireGolden(t, "share", env)

	ack := ExchangeAck{TaskID: cctx.Identifier, From: "mem://b", Epoch: 7, Seq: 42}
	if env, err = newMessage(ActionExchangeAck, contextBlock(cctx)); err != nil {
		t.Fatal(err)
	}
	env.SetBodyBlock(ackBlock(&ack))
	checkWireGolden(t, "ack", env)

	start := Start{TaskID: cctx.Identifier, Function: string(FuncSum), Root: "mem://root", Hops: 3}
	if env, err = buildMessage(ActionStart, cctx, start); err != nil {
		t.Fatal(err)
	}
	checkWireGolden(t, "start", env)
}
