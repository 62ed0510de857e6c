package core

import (
	"context"
	"math/rand"
	"testing"

	"wsgossip/internal/soap"
)

// repairPair builds two disseminators on one bus, with A holding a gossiped
// notification that B never received.
func repairPair(t *testing.T) (bus *soap.MemBus, a, b *Disseminator, bApp *CollectingApp) {
	t.Helper()
	bus = soap.NewMemBus()
	coord := NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(41)),
		Params:  func(int) (int, int) { return 1, 3 },
	})
	bus.Register("mem://coordinator", coord.Handler())
	ctx := context.Background()

	aApp := NewCollectingApp()
	var err error
	a, err = NewDisseminator(DisseminatorConfig{
		Address: "mem://a", Caller: bus, App: aApp,
		RNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://a", a.Handler())

	bApp = NewCollectingApp()
	b, err = NewDisseminator(DisseminatorConfig{
		Address: "mem://b", Caller: bus, App: bApp,
		RNG: rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://b", b.Handler())

	// Both subscribe; only A is targeted by the initiator.
	if err := coord.SubscribeLocal(ctx, "mem://a", RoleDisseminator); err != nil {
		t.Fatal(err)
	}
	if err := coord.SubscribeLocal(ctx, "mem://b", RoleDisseminator); err != nil {
		t.Fatal(err)
	}
	init, err := NewInitiator(InitiatorConfig{
		Address: "mem://init", Caller: bus, Activation: "mem://coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver straight to A only, simulating B having lost its copy.
	env, err := init.buildNotification(inter, "urn:uuid:lost-msg", quoteBody{Symbol: "RPR", Price: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(ctx, "mem://a", env); err != nil {
		t.Fatal(err)
	}
	if aApp.Count() != 1 {
		t.Fatalf("A deliveries = %d", aApp.Count())
	}
	if bApp.Count() != 0 {
		// A forwards to sampled targets; if B was hit the scenario is moot.
		t.Skip("seed delivered to B eagerly; repair scenario not exercised")
	}
	return bus, a, b, bApp
}

// TestDigestRepairDelivers: B sends a digest to A; A retransmits the
// notification B is missing; B delivers it to its application.
func TestDigestRepairDelivers(t *testing.T) {
	bus, a, b, bApp := repairPair(t)
	ctx := context.Background()
	// B advertises an empty store directly to A (TickRepair needs interaction
	// state B does not have yet — the direct digest is the primitive).
	env := soap.NewEnvelope()
	if err := env.SetAddressing(addressingFor("mem://a", ActionDigest)); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(Digest{Sender: "mem://b"}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(ctx, "mem://a", env); err != nil {
		t.Fatal(err)
	}
	if bApp.Count() != 1 {
		t.Fatalf("B deliveries after repair = %d", bApp.Count())
	}
	if got := a.Stats().Repaired; got != 1 {
		t.Fatalf("A repaired = %d", got)
	}
	_ = b
}

// TestDigestNoRetransmitWhenPeerHasAll: a digest listing the stored message
// triggers no retransmission.
func TestDigestNoRetransmitWhenPeerHasAll(t *testing.T) {
	bus, a, _, _ := repairPair(t)
	ctx := context.Background()
	env := soap.NewEnvelope()
	if err := env.SetAddressing(addressingFor("mem://a", ActionDigest)); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(Digest{Sender: "mem://b", MessageIDs: []string{"urn:uuid:lost-msg"}}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(ctx, "mem://a", env); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().Repaired; got != 0 {
		t.Fatalf("repaired = %d, want 0", got)
	}
}

// TestDigestRejectsMissingSender: a digest without a reply address is a
// sender fault.
func TestDigestRejectsMissingSender(t *testing.T) {
	bus, _, _, _ := repairPair(t)
	env := soap.NewEnvelope()
	if err := env.SetAddressing(addressingFor("mem://a", ActionDigest)); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(Digest{}); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Call(context.Background(), "mem://a", env); err == nil {
		t.Fatal("senderless digest accepted")
	}
}

// TestTickRepairRoundTrip: B participates in the interaction (empty-ish
// store), runs TickRepair, and recovers the missing notification from A.
func TestTickRepairRoundTrip(t *testing.T) {
	bus := soap.NewMemBus()
	coord := NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(43)),
		Params:  func(int) (int, int) { return 2, 4 },
	})
	bus.Register("mem://coordinator", coord.Handler())
	ctx := context.Background()

	apps := map[string]*CollectingApp{}
	nodes := map[string]*Disseminator{}
	for i, addr := range []string{"mem://a", "mem://b"} {
		app := NewCollectingApp()
		d, err := NewDisseminator(DisseminatorConfig{
			Address: addr, Caller: bus, App: app,
			RNG: rand.New(rand.NewSource(int64(i) + 7)),
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, d.Handler())
		apps[addr] = app
		nodes[addr] = d
		if err := coord.SubscribeLocal(ctx, addr, RoleDisseminator); err != nil {
			t.Fatal(err)
		}
	}
	init, err := NewInitiator(InitiatorConfig{
		Address: "mem://init", Caller: bus, Activation: "mem://coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Two notifications: deliver #1 to both (normal), then #2 to A only.
	if _, _, err := init.Notify(ctx, inter, quoteBody{Symbol: "N1", Price: 1}); err != nil {
		t.Fatal(err)
	}
	env, err := init.buildNotification(inter, "urn:uuid:only-a", quoteBody{Symbol: "N2", Price: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Strip the hop budget so A cannot eagerly forward it to B.
	if err := SetGossipHeader(env, GossipHeader{
		InteractionID: inter.Context.Identifier, MessageID: "urn:uuid:only-a", Hops: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(ctx, "mem://a", env); err != nil {
		t.Fatal(err)
	}
	if apps["mem://b"].Count() >= 2 {
		t.Fatal("B already has both; scenario broken")
	}
	// B repairs via digest gossip.
	nodes["mem://b"].TickRepair(ctx)
	if got := apps["mem://b"].Count(); got != 2 {
		t.Fatalf("B deliveries after TickRepair = %d, want 2", got)
	}
}

// sendRecorder is a caller that records every one-way send as "to action"
// and delivers nothing.
type sendRecorder struct{ sends []string }

func (r *sendRecorder) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}

func (r *sendRecorder) Send(_ context.Context, to string, env *soap.Envelope) error {
	r.sends = append(r.sends, to+" "+env.Addressing().Action)
	return nil
}

// TestDigestRoundsAreAFunctionOfTheSeed: a node in two interactions draws
// its repair and pull targets from one RNG. The draws must be made in a
// fixed interaction order and the sends issued in a fixed target order, or
// "same seed" does not mean "same send sequence" — which is what every
// deterministic replay above this layer assumes.
func TestDigestRoundsAreAFunctionOfTheSeed(t *testing.T) {
	run := func() []string {
		rec := &sendRecorder{}
		d, err := NewDisseminator(DisseminatorConfig{
			Address: "mem://self", Caller: rec, RNG: rand.New(rand.NewSource(7)),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Distinct target lists, so which interaction draws first matters.
		for id, prefix := range map[string]string{"urn:uuid:a": "mem://a", "urn:uuid:b": "mem://b"} {
			var targets []string
			for i := 0; i < 6; i++ {
				targets = append(targets, prefix+string(rune('0'+i)))
			}
			d.interactions[id] = &interactionState{
				protocol: ProtocolPullGossip,
				params:   GossipParameters{Fanout: 2, Hops: 4, Targets: targets},
			}
		}
		ctx := context.Background()
		for round := 0; round < 50; round++ {
			d.TickRepair(ctx)
			d.TickPull(ctx)
		}
		return rec.sends
	}
	first, second := run(), run()
	if len(first) != 50*2*4 {
		t.Fatalf("recorded %d sends, want %d (2 rounds × 2 interactions × fanout 2, 50 times)", len(first), 50*2*4)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("send %d differs between two runs at one seed: %q vs %q", i, first[i], second[i])
		}
	}
}
