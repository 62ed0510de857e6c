package aggregate

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"wsgossip/internal/core"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
	"wsgossip/internal/wscoord"
)

// Wire-identity guard for the messages an aggregation Service originates —
// the exchange envelope and its ack, for one share and for a batch of two
// tasks (to a peer not known to hold them, and to one known to), and the
// start flood: the encoded bytes, with the message ID replaced by a fixed
// one, must equal the committed testdata/wire/*.xml.
// A change that moves them on purpose rewrites them with
// `go test ./internal/aggregate/ -run TestOutboundWireGolden -update`.

var updateWire = flag.Bool("update", false, "rewrite testdata/wire/*.xml")

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

// wireRecorder is a binding that keeps the bytes of every message sent
// through it as written, and delivers nothing.
type wireRecorder struct{ msgs [][]byte }

func (r *wireRecorder) SendEncoded(_ context.Context, _ string, data []byte) error {
	r.msgs = append(r.msgs, bytes.Clone(data))
	return nil
}

func (r *wireRecorder) Send(ctx context.Context, to string, env *soap.Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return r.SendEncoded(ctx, to, data)
}

func (r *wireRecorder) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	return nil, r.Send(ctx, to, env)
}

// fieldBuilt is the envelope a sender built field by field before messages
// were written: the action and id, a header block per context, and each
// body child marshalled by encoding/xml.
func fieldBuilt(action, id string, contexts []wscoord.CoordinationContext, body ...any) (*soap.Envelope, error) {
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{Action: action, MessageID: wsa.MessageID(id)}); err != nil {
		return nil, err
	}
	for _, c := range contexts {
		env.AddHeaderBlock(contextBlock(c))
	}
	blocks := make([]soap.Block, len(body))
	for i, v := range body {
		b, err := soap.MarshalBlock(v)
		if err != nil {
			return nil, err
		}
		blocks[i] = b
	}
	if len(blocks) == 1 {
		env.SetBodyBlock(blocks[0])
	} else {
		env.Body.Blocks = blocks
	}
	return env, nil
}

func TestOutboundWireGolden(t *testing.T) {
	ctx := context.Background()
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
	// stage stages sh as the Service does: join is set for a retry and for a
	// first send to a peer not known to hold the task.
	stage := func(c wscoord.CoordinationContext, sh Share, retry, known bool) staged {
		p := &pendingShare{to: "mem://b", share: sh, known: known}
		if retry {
			p.tries = 1
		}
		return staged{cctx: contextBlock(c), p: p, retry: p.retry(), join: p.join()}
	}
	// check sends one message and holds what it put on the wire to the
	// golden bytes, and to ref: the envelope built field by field under the
	// written message's ID, encoded.
	check := func(name string, send func(soap.Caller) error, ref func(id string) (*soap.Envelope, error)) {
		t.Helper()
		rec := &wireRecorder{}
		if err := send(rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.msgs) != 1 {
			t.Fatalf("%s: %d messages sent, want 1", name, len(rec.msgs))
		}
		written := rec.msgs[0]
		checkWireGolden(t, name, written)
		env, err := soap.Decode(written)
		if err != nil {
			t.Fatal(err)
		}
		built, err := ref(string(env.Addressing().MessageID))
		if err != nil {
			t.Fatal(err)
		}
		want, err := built.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, want) {
			t.Errorf("%s as written:\n got %s\nwant %s", name, written, want)
		}
	}
	one, both := []wscoord.CoordinationContext{cctx}, []wscoord.CoordinationContext{cctx, other}
	check("share", func(c soap.Caller) error { return sendShareBatch(ctx, c, []staged{stage(cctx, share, false, false)}) },
		func(id string) (*soap.Envelope, error) { return fieldBuilt(ActionExchange, id, one, share) })
	ack := ExchangeAck{TaskID: cctx.Identifier, From: "mem://b", Epoch: 7, Seq: 42}
	check("ack", func(c soap.Caller) error { return sendAcks(ctx, c, "mem://a", []ExchangeAck{ack}) },
		func(id string) (*soap.Envelope, error) { return fieldBuilt(ActionExchangeAck, id, nil, ack) })

	// A round's shares for a peer not known to hold either task: a retry and
	// a fresh share of one task, then a fresh share of another count task —
	// one context per task.
	retry, count := share, Share{
		TaskID: other.Identifier, Function: string(FuncCount), From: "mem://a",
		Sum: 0.5, Weight: 0.25, WindowMillis: 1000, Epoch: 7, Seq: 9, Root: "mem://root", Metric: "nodes",
	}
	retry.Seq, retry.Sum, retry.Weight = 41, 2.5, 1
	check("share_batch", func(c soap.Caller) error {
		return sendShareBatch(ctx, c, []staged{stage(cctx, retry, true, false), stage(cctx, share, false, false), stage(other, count, false, false)})
	}, func(id string) (*soap.Envelope, error) {
		return fieldBuilt(ActionExchange, id, both, retry, share, count)
	})
	// The same shares for a peer known to hold both tasks: only the task
	// with a retry needs its context, for the peer may have lost it since.
	check("share_batch_known", func(c soap.Caller) error {
		return sendShareBatch(ctx, c, []staged{stage(cctx, retry, true, true), stage(cctx, share, false, true), stage(other, count, false, true)})
	}, func(id string) (*soap.Envelope, error) {
		return fieldBuilt(ActionExchange, id, one, retry, share, count)
	})
	acks := []ExchangeAck{
		{TaskID: cctx.Identifier, From: "mem://b", Epoch: 7, Seq: 41},
		ack,
		{TaskID: other.Identifier, From: "mem://b", Epoch: 7, Seq: 9},
	}
	check("ack_batch", func(c soap.Caller) error { return sendAcks(ctx, c, "mem://a", acks) },
		func(id string) (*soap.Envelope, error) {
			return fieldBuilt(ActionExchangeAck, id, nil, acks[0], acks[1], acks[2])
		})

	// The start flood renders each target's To; the message it renders is
	// the golden one.
	start := Start{TaskID: cctx.Identifier, Function: string(FuncSum), Root: "mem://root", Hops: 3}
	check("start", func(c soap.Caller) error {
		m, err := startMessage(cctx, start, []byte(wsa.NewMessageID()))
		if err != nil {
			return err
		}
		return m.Send(ctx, c, "mem://b")
	}, func(id string) (*soap.Envelope, error) { return fieldBuilt(ActionStart, id, one, start) })
}

// handBuilt is an aggregation message built by hand, as a test sends it: the
// action and a message ID, and the given context blocks after them.
func handBuilt(action string, contexts ...soap.Block) (*soap.Envelope, error) {
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{Action: action, MessageID: wsa.NewMessageID()}); err != nil {
		return nil, err
	}
	for _, b := range contexts {
		if b.Raw == nil {
			return nil, errContext
		}
		env.AddHeaderBlock(b)
	}
	return env, nil
}

// handMarshalled is handBuilt with cctx's block and body marshalled by
// encoding/xml.
func handMarshalled(action string, cctx wscoord.CoordinationContext, body any) (*soap.Envelope, error) {
	env, err := handBuilt(action, contextBlock(cctx))
	if err != nil {
		return nil, err
	}
	if err := env.SetBody(body); err != nil {
		return nil, err
	}
	return env, nil
}
