package core

import (
	"context"
	"encoding/xml"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// BenchmarkForwardFanout measures the full fan-out hot path: one received
// notification re-routed to fanout peers over the in-memory binding,
// including per-target serialization and the receivers' decode. This is the
// per-hop cost the paper's scalability argument rests on; BENCH_02.json
// records it before and after the encode-once wire path.

type forwardBench struct {
	d       *Disseminator
	env     *soap.Envelope
	gh      GossipHeader
	n       notice // gh as a transfer acts on it
	state   *interactionState
	ctx     context.Context
	targets []string
}

type benchNote struct {
	XMLName xml.Name `xml:"urn:bench Note"`
	Data    string   `xml:"Data"`
}

func newForwardBench(b testing.TB, fanout, payload int) *forwardBench {
	b.Helper()
	bus := soap.NewMemBus()
	noop := soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) {
		return nil, nil
	})
	targets := make([]string, 16)
	for i := range targets {
		targets[i] = "mem://peer" + strconv.Itoa(i)
		bus.Register(targets[i], noop)
	}
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://self",
		Caller:  bus,
		RNG:     rand.New(rand.NewSource(1)),
	})
	if err != nil {
		b.Fatal(err)
	}
	gh := GossipHeader{InteractionID: "urn:bench:interaction", MessageID: "urn:uuid:bench", Hops: 4}
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		To:        "mem://self",
		Action:    ActionNotify,
		MessageID: wsa.MessageID(gh.MessageID),
	}); err != nil {
		b.Fatal(err)
	}
	if err := SetGossipHeader(env, gh); err != nil {
		b.Fatal(err)
	}
	if err := env.SetBody(benchNote{Data: strings.Repeat("x", payload)}); err != nil {
		b.Fatal(err)
	}
	state := newInteractionState(gh.InteractionID, ProtocolPushGossip, GossipParameters{Fanout: fanout, Hops: 4, Targets: targets})
	return &forwardBench{
		d: d, env: env, gh: gh, n: noticeOf(gh), state: state,
		ctx: context.Background(), targets: targets,
	}
}

// pushTransfer is the machine's decision for a push-style first receipt.
var pushTransfer = gossip.Transfer{Send: gossip.SendPayload}

// BenchmarkForwardFanout exercises a push forward at several fanouts with a
// 1 KiB payload.
func BenchmarkForwardFanout(b *testing.B) {
	for _, fanout := range []int{2, 4, 8} {
		b.Run("f"+strconv.Itoa(fanout), func(b *testing.B) {
			fb := newForwardBench(b, fanout, 1<<10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb.d.spread(fb.ctx, fb.env, fb.n, fb.state, pushTransfer)
			}
			stats := fb.d.Stats()
			if stats.Forwarded == 0 || stats.SendErrors != 0 {
				b.Fatalf("stats = %+v", stats)
			}
		})
	}
}

// BenchmarkRetransmit measures the stored-notification retransmission path
// shared by anti-entropy repair and WS-PullGossip (batch of 16 envelopes).
func BenchmarkRetransmit(b *testing.B) {
	fb := newForwardBench(b, 4, 1<<10)
	for i := 0; i < 16; i++ {
		env := soap.NewEnvelope()
		gh := GossipHeader{
			InteractionID: "urn:bench:interaction",
			MessageID:     "urn:uuid:stored" + strconv.Itoa(i),
			Hops:          4,
		}
		if err := SetGossipHeader(env, gh); err != nil {
			b.Fatal(err)
		}
		if err := env.SetBody(benchNote{Data: strings.Repeat("y", 1<<10)}); err != nil {
			b.Fatal(err)
		}
		fb.d.m.Hold(gossip.IDSum(gh.MessageID), storedOf(env))
	}
	// An empty digest: everything stored is missing.
	req, _ := receivedRequest(b, ActionDigest, digestBlock(fb.targets[0], nil, false).Raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := fb.d.Stats().Repaired
		if _, err := fb.d.handleDigest(fb.ctx, req); err != nil {
			b.Fatal(err)
		}
		if n := fb.d.Stats().Repaired - before; n != 16 {
			b.Fatalf("retransmitted %d", n)
		}
	}
}

// receivedNotification is fb's notification as a disseminator receives it:
// encoded, then decoded from a buffer of its own, so every block is a view
// of that buffer exactly as on the MemBus and HTTP receive paths.
func (fb *forwardBench) receivedNotification(b testing.TB) *soap.Envelope {
	b.Helper()
	data, err := fb.env.Encode()
	if err != nil {
		b.Fatal(err)
	}
	env, err := soap.Decode(data)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// duplicateDelivery registers fb's disseminator on its bus as mem://self,
// lets the notification reach it once, and returns one more delivery of it:
// a freshly rendered, pooled buffer handed to the bus, decoded, dispatched
// on its action and dropped by intercept as a duplicate — three receipts in
// four on mem-push-64.
func (fb *forwardBench) duplicateDelivery(b testing.TB) func() {
	b.Helper()
	bus := fb.d.cfg.Caller.(*soap.MemBus)
	bus.Register("mem://self", fb.d.Handler())
	fb.d.interactions[fb.gh.InteractionID] = fb.state
	tmpl, err := fb.env.EncodeTemplate()
	if err != nil {
		b.Fatal(err)
	}
	deliver := func() {
		if err := bus.SendEncoded(fb.ctx, "mem://self", tmpl.RenderTo("mem://self")); err != nil {
			b.Fatal(err)
		}
	}
	deliver() // the first receipt
	return deliver
}

// BenchmarkDuplicateDelivery measures a duplicate notification's whole
// receive path over the in-memory binding.
func BenchmarkDuplicateDelivery(b *testing.B) {
	fb := newForwardBench(b, 8, 1<<10)
	deliver := fb.duplicateDelivery(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver()
	}
	if stats := fb.d.Stats(); stats.Delivered != 1 || stats.Duplicates != int64(b.N) {
		b.Fatalf("stats = %+v", stats)
	}
}

// forwardHeaders re-heads a received envelope in memory: snapshot it,
// decrement the hop budget, re-address without To. No forward runs it —
// soap.Forward writes the re-headed copy straight into its template — and
// its budget row keeps what an in-memory re-head costs.
func forwardHeaders(env *soap.Envelope, gh GossipHeader) (*soap.Envelope, error) {
	out := env.Snapshot()
	gh.Hops--
	if err := SetGossipHeader(out, gh); err != nil {
		return nil, err
	}
	err := out.SetAddressing(wsa.Headers{Action: ActionNotify, MessageID: wsa.MessageID(gh.MessageID)})
	return out, err
}

// BenchmarkGossipHeaderFrom measures reading the gossip header of a
// received notification — run on every first receipt, and the whole of what
// a duplicate receipt costs the gossip layer.
func BenchmarkGossipHeaderFrom(b *testing.B) {
	fb := newForwardBench(b, 8, 1<<10)
	env := fb.receivedNotification(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gh, err := GossipHeaderFrom(env)
		if err != nil || gh.MessageID != fb.gh.MessageID {
			b.Fatalf("header = %+v, %v", gh, err)
		}
	}
}

// BenchmarkForwardHeaders measures the header rewrite of a forward's slow
// path, which every forward paid before soap.Forward wrote the copy straight
// into its template (BENCH_15.json records it before and after the
// flat-element writer).
func BenchmarkForwardHeaders(b *testing.B) {
	fb := newForwardBench(b, 8, 1<<10)
	env := fb.receivedNotification(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := forwardHeaders(env, fb.gh); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDigestReceipt measures a responder taking a 128-sum repair digest
// that finds nothing missing — what nearly every digest of a steady-state
// repair round is. "flat" is the digest as TickRepair writes it, read in
// place; "encoding-xml" is the same digest respelled so that the in-place
// reader declines it, which is what every receipt cost before the digest
// moved onto the flat codec.
func BenchmarkDigestReceipt(b *testing.B) {
	for _, row := range []struct {
		name  string
		spell func([]byte) []byte
	}{
		{"flat", asWritten},
		{"encoding-xml", respell},
	} {
		b.Run(row.name, func(b *testing.B) {
			d, req := fullDigestResponder(b, row.spell)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.handleDigest(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			if stats := d.Stats(); stats.Repaired != 0 {
				b.Fatalf("stats = %+v", stats)
			}
		})
	}
}

// notifyBench is an initiator that publishes over MemBus to 4 no-op peers,
// its interaction as StartInteraction returns it, and a body with one 256 B
// string field.
func notifyBench(tb testing.TB) (notify func()) {
	tb.Helper()
	bus := soap.NewMemBus()
	noop := soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) { return nil, nil })
	inter := goldenInteraction(tb, "urn:bench:interaction", ProtocolPushGossip)
	inter.Params.Targets = nil
	for i := range 4 {
		addr := "mem://peer" + strconv.Itoa(i)
		bus.Register(addr, noop)
		inter.Params.Targets = append(inter.Params.Targets, addr)
	}
	init, err := NewInitiator(InitiatorConfig{Address: "mem://init", Caller: bus, Activation: "mem://coordinator"})
	if err != nil {
		tb.Fatal(err)
	}
	body := &benchNote{Data: strings.Repeat("x", 256)}
	ctx := context.Background()
	return func() {
		if _, sent, err := init.Notify(ctx, inter, body); err != nil || sent != 4 {
			tb.Fatalf("Notify sent %d, %v", sent, err)
		}
	}
}

// BenchmarkInitiatorNotify measures one published notification: its ID, its
// header and body written once into a pooled template, and 4 rendered copies
// the bus delivers to no-op peers and recycles.
func BenchmarkInitiatorNotify(b *testing.B) {
	notify := notifyBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		notify()
	}
}
