package aggregate

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"wsgossip/internal/core"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// Wire-identity guard for the messages an aggregation Service originates —
// the exchange envelope and its ack, for one share and for a batch of two
// tasks, and the start flood: the encoded bytes, with the message ID
// replaced by a fixed one, must equal the committed testdata/wire/*.xml.
// A change that moves them on purpose rewrites them with
// `go test ./internal/aggregate/ -run TestOutboundWireGolden -update`.

var updateWire = flag.Bool("update", false, "rewrite testdata/wire/*.xml")

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
	path := filepath.Join("testdata", "wire", name+".xml")
	if *updateWire {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("%s on the wire:\n got %s\nwant %s", name, data, want)
	}
}

func TestOutboundWireGolden(t *testing.T) {
	task := func(id string) wscoord.CoordinationContext {
		return wscoord.CoordinationContext{
			Identifier:          id,
			CoordinationType:    core.CoordinationTypeGossip,
			RegistrationService: wscoord.ServiceRef{Address: "mem://coordinator"},
		}
	}
	cctx, other := task("urn:uuid:task"), task("urn:uuid:other")
	share := Share{
		TaskID: cctx.Identifier, Function: string(FuncAvg), From: "mem://a",
		Sum: 1.25, Weight: 0.5, HasExtremes: true, Min: 1, Max: 3,
		WindowMillis: 1000, Epoch: 7, Seq: 42, Root: "mem://root", Metric: "load",
	}
	stage := func(c wscoord.CoordinationContext, sh Share) staged {
		return staged{taskID: c.Identifier, cctx: contextBlock(c), p: &pendingShare{to: "mem://b", share: sh}}
	}
	check := func(name string, env *soap.Envelope, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		checkWireGolden(t, name, env)
	}
	env, err := shareEnvelope([]staged{stage(cctx, share)})
	check("share", env, err)
	ack := ExchangeAck{TaskID: cctx.Identifier, From: "mem://b", Epoch: 7, Seq: 42}
	env, err = ackEnvelope([]ExchangeAck{ack})
	check("ack", env, err)

	// A round's shares for one peer: a retry and a fresh share of one task,
	// then a fresh share of another count task — one context per task.
	retry, count := share, Share{
		TaskID: other.Identifier, Function: string(FuncCount), From: "mem://a",
		Sum: 0.5, Weight: 0.25, WindowMillis: 1000, Epoch: 7, Seq: 9, Root: "mem://root", Metric: "nodes",
	}
	retry.Seq, retry.Sum, retry.Weight = 41, 2.5, 1
	env, err = shareEnvelope([]staged{stage(cctx, retry), stage(cctx, share), stage(other, count)})
	check("share_batch", env, err)
	acks := []ExchangeAck{
		{TaskID: cctx.Identifier, From: "mem://b", Epoch: 7, Seq: 41},
		ack,
		{TaskID: other.Identifier, From: "mem://b", Epoch: 7, Seq: 9},
	}
	env, err = ackEnvelope(acks)
	check("ack_batch", env, err)

	start := Start{TaskID: cctx.Identifier, Function: string(FuncSum), Root: "mem://root", Hops: 3}
	env, err = buildMessage(ActionStart, cctx, start)
	check("start", env, err)
}
