package core

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
	"wsgossip/internal/wscoord"
)

// Wire-identity guard for every message a disseminator or an initiator
// originates: the bytes each builder puts on the wire, with its message ID
// replaced by a fixed one, must equal the committed testdata/wire/*.xml —
// how the message is assembled in memory is free to change, what the peer
// receives is not.

// wireRecorder is a binding that keeps the bytes of every message sent
// through it, rendered (SendEncoded) or encoded from the envelope (Send,
// Call), and delivers nothing.
type wireRecorder struct{ msgs [][]byte }

func (r *wireRecorder) SendEncoded(_ context.Context, _ string, data []byte) error {
	r.msgs = append(r.msgs, append([]byte(nil), data...))
	return nil
}

func (r *wireRecorder) Send(_ context.Context, _ string, env *soap.Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	r.msgs = append(r.msgs, data)
	return nil
}

func (r *wireRecorder) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	return nil, r.Send(ctx, to, env)
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
	ctx := context.Background()
	const interaction = "urn:uuid:interaction"
	newRecorded := func() (*Disseminator, *wireRecorder) {
		rec := &wireRecorder{}
		d, err := NewDisseminator(DisseminatorConfig{
			Address: "mem://self", Caller: rec, RNG: rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return d, rec
	}
	only := func(rec *wireRecorder, what string) []byte {
		t.Helper()
		if len(rec.msgs) != 1 {
			t.Fatalf("%s sent %d messages, want 1", what, len(rec.msgs))
		}
		return rec.msgs[0]
	}

	for _, tc := range []struct{ name, golden, protocol string }{
		{"initiator", "notify", ProtocolPushGossip},
		{"initiator_pull", "notify_pull", ProtocolPullGossip},
		{"initiator_context_changed", "notify_context_changed", ProtocolPushGossip},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inter := goldenInteraction(t, interaction, tc.protocol)
			if tc.golden == "notify_context_changed" {
				// Changed since Start: the prebuilt block is stale, and the
				// context is marshaled by the Notify call.
				inter.Context.ExpiresMillis = 30000
			}
			rec := &wireRecorder{}
			init, err := NewInitiator(InitiatorConfig{Address: "mem://init", Caller: rec, Activation: "mem://coordinator"})
			if err != nil {
				t.Fatal(err)
			}
			if _, sent, err := init.Notify(ctx, inter, quoteBody{Symbol: "WSG", Price: 1.5}); err != nil || sent != 1 {
				t.Fatalf("Notify sent %d, %v", sent, err)
			}
			checkWireGolden(t, tc.golden, only(rec, "Notify"))
		})
	}

	t.Run("announce", func(t *testing.T) {
		d, rec := newRecorded()
		state := newInteractionState(interaction, ProtocolPushGossip, GossipParameters{Fanout: 1, Hops: 4, Targets: []string{"mem://a"}})
		announce := gossip.Transfer{Send: gossip.SendAnnounce}
		d.spread(ctx, nil, noticeOf(GossipHeader{InteractionID: interaction, MessageID: "urn:uuid:notification", Hops: 4}), state, announce)
		checkWireGolden(t, "ihave", only(rec, "announce"))
	})

	t.Run("announce round", func(t *testing.T) {
		d, rec := newRecorded()
		state := newInteractionState(interaction, ProtocolPushGossip, GossipParameters{Fanout: 1, Hops: 4, Targets: []string{"mem://a"}})
		announce := gossip.Transfer{Send: gossip.SendAnnounce}
		d.DeferAnnouncements()
		d.spread(ctx, nil, noticeOf(GossipHeader{InteractionID: interaction, MessageID: "urn:uuid:notification", Hops: 4}), state, announce)
		d.spread(ctx, nil, noticeOf(GossipHeader{InteractionID: interaction, MessageID: "urn:uuid:notification-2", Hops: 2}), state, announce)
		d.TickAnnounce(ctx)
		checkWireGolden(t, "ihave_round", only(rec, "announce round"))
	})

	t.Run("handleIHave", func(t *testing.T) {
		d, rec := newRecorded()
		req := requestWithBody(t, ActionIHave, announceOf(Announce{
			InteractionID: interaction, MessageID: "urn:uuid:notification", Hops: 3, Holder: "mem://holder",
		}))
		if _, err := d.handleIHave(ctx, req); err != nil {
			t.Fatal(err)
		}
		checkWireGolden(t, "iwant", only(rec, "handleIHave"))
	})

	t.Run("handleIWant", func(t *testing.T) {
		d, rec := newRecorded()
		storeNotification(t, d, "urn:uuid:stored")
		req := requestWithBody(t, ActionIWant, fetchOf(Fetch{MessageID: "urn:uuid:stored", Requester: "mem://requester"}))
		if _, err := d.handleIWant(ctx, req); err != nil {
			t.Fatal(err)
		}
		checkWireGolden(t, "iwant_response", only(rec, "handleIWant"))
	})

	t.Run("retransmitMissing", func(t *testing.T) {
		d, rec := newRecorded()
		storeNotification(t, d, "urn:uuid:stored")
		req, _ := receivedRequest(t, ActionDigest, digestBlock("mem://puller", nil, false).Raw)
		if _, err := d.handleDigest(ctx, req); err != nil || d.Stats().Repaired != 1 {
			t.Fatalf("retransmitted %d (%v), want 1", d.Stats().Repaired, err)
		}
		checkWireGolden(t, "retransmit", only(rec, "retransmitMissing"))
	})

	for _, tc := range []struct {
		name      string
		pull      bool
		sums      []byte
		truncated bool
	}{
		{"digest", false, sumsOf("urn:uuid:a", "urn:uuid:b"), false},
		{"pull_request", true, sumsOf("urn:uuid:a"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, rec := newRecorded()
			d.sendDigest(ctx, tc.pull, tc.sums, tc.truncated, []string{"mem://a"})
			checkWireGolden(t, tc.name, only(rec, tc.name))
		})
	}
}

// requestWithBody is a received request for action carrying body, decoded
// from its wire form as a binding would hand it over.
func requestWithBody(t *testing.T, action string, body soap.Block) *soap.Request {
	t.Helper()
	env := soap.NewEnvelope()
	if err := env.SetAddressing(addressingFor("mem://self", action)); err != nil {
		t.Fatal(err)
	}
	env.SetBodyBlock(body)
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := soap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return &soap.Request{Envelope: back}
}

// goldenInteraction is an interaction as StartProtocolInteraction returns it,
// with its context block prebuilt, targeting mem://a.
func goldenInteraction(t testing.TB, id, protocol string) *Interaction {
	t.Helper()
	cctx := wscoord.CoordinationContext{
		Identifier:          id,
		CoordinationType:    CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://coordinator"},
	}
	block, err := wscoord.ContextBlock(cctx)
	if err != nil {
		t.Fatal(err)
	}
	return &Interaction{
		Context: cctx, Protocol: protocol, Params: GossipParameters{Fanout: 2, Hops: 4, Targets: []string{"mem://a"}},
		contextBlock: block, blockContext: cctx,
	}
}

// builtNotification is the notification Notify writes, built as an envelope
// field by field instead — the construction Notify replaced, and its oracle:
// addressing without To (the fan-out adds each target's), the coordination
// context, the gossip header and the body.
func builtNotification(inter *Interaction, msgID wsa.MessageID, body any) (*soap.Envelope, error) {
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{Action: ActionNotify, MessageID: msgID}); err != nil {
		return nil, err
	}
	if err := wscoord.AttachContext(env, inter.Context); err != nil {
		return nil, err
	}
	protocol := inter.Protocol
	if protocol == ProtocolPushGossip {
		protocol = ""
	}
	if err := SetGossipHeader(env, GossipHeader{
		InteractionID: inter.Context.Identifier,
		MessageID:     string(msgID),
		Hops:          inter.Params.Hops,
		Protocol:      protocol,
	}); err != nil {
		return nil, err
	}
	if err := env.SetBody(body); err != nil {
		return nil, err
	}
	return env, nil
}

// TestForwardMatchesRenotify: a forward — a push to two peers, and a
// retransmission to one — puts on the wire the bytes the re-head it replaced
// put there: a Snapshot with the gossip header removed and written anew and
// SetAddressing under the notification's MessageID, then Fanout, or Send to
// the one peer. The notification is the one the initiator sends, as the
// scanner decodes it, and the same notification spelled with namespace
// prefixes, which the scanner declines and the fallback decoder captures.
func TestForwardMatchesRenotify(t *testing.T) {
	ctx := context.Background()
	canonical, err := os.ReadFile(filepath.Join("testdata", "wire", "notify.xml"))
	if err != nil {
		t.Fatal(err)
	}
	prefixed := []byte(`<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope" xmlns:a="http://www.w3.org/2005/08/addressing"><s:Header>` +
		`<a:Action>urn:wsgossip:2008:notify</a:Action><a:MessageID>urn:uuid:m</a:MessageID>` +
		`<g:Gossip xmlns:g="urn:wsgossip:2008"><g:InteractionID>urn:uuid:interaction</g:InteractionID><g:MessageID>urn:uuid:m</g:MessageID><g:Hops>4</g:Hops></g:Gossip>` +
		`<a:To>mem://self</a:To></s:Header><s:Body><q:Quote xmlns:q="urn:example:stock"><q:Symbol>WSG</q:Symbol></q:Quote></s:Body></s:Envelope>`)
	for name, doc := range map[string][]byte{"canonical": canonical, "prefixed": prefixed} {
		env, err := soap.Decode(doc)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := env.HeaderBlock(Namespace, "Gossip")
		if !ok {
			t.Fatalf("%s: no gossip header", name)
		}
		interaction, n, _, err := readNotice(env, b)
		if err != nil {
			t.Fatal(err)
		}
		n.hops--
		renotify := func(to string) *soap.Envelope {
			out := env.Snapshot()
			out.RemoveHeader(Namespace, "Gossip")
			out.AddHeaderBlock(gossipBlock(string(interaction), n.hops, n.protocol, ""))
			_ = out.SetAddressing(wsa.Headers{To: to, Action: ActionNotify, MessageID: wsa.MessageID(n.messageID)})
			return out
		}
		for _, direct := range []bool{false, true} {
			targets := []string{"mem://a", "mem://b"}
			want := &wireRecorder{}
			if direct {
				targets = targets[:1]
				if err := want.Send(ctx, targets[0], renotify(targets[0])); err != nil {
					t.Fatal(err)
				}
			} else {
				soap.Fanout(ctx, want, renotify(""), targets)
			}
			got := &wireRecorder{}
			d, err := NewDisseminator(DisseminatorConfig{Address: "mem://self", Caller: got})
			if err != nil {
				t.Fatal(err)
			}
			if sent, failed := d.forward(ctx, env, &interactionState{id: string(interaction)}, n, direct, targets); sent != len(targets) || failed != nil {
				t.Fatalf("%s: forward sent %d, failed %v", name, sent, failed)
			}
			if len(got.msgs) != len(want.msgs) {
				t.Fatalf("%s (direct %v): %d messages, want %d", name, direct, len(got.msgs), len(want.msgs))
			}
			for i := range want.msgs {
				if !bytes.Equal(got.msgs[i], want.msgs[i]) {
					t.Errorf("%s (direct %v) copy %d:\n got %s\nwant %s", name, direct, i, got.msgs[i], want.msgs[i])
				}
			}
		}
	}
}
