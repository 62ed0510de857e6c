package core

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

type pullBody struct {
	XMLName xml.Name `xml:"urn:example:pull Event"`
	Seq     int      `xml:"Seq"`
}

// pullCluster is a coordinator + n disseminators over MemBus, ready for
// WS-PullGossip interactions.
type pullCluster struct {
	bus     *soap.MemBus
	coord   *Coordinator
	init    *Initiator
	dissems []*Disseminator
	apps    []*CollectingApp
}

func newPullCluster(t *testing.T, n int, seed int64) *pullCluster {
	t.Helper()
	ctx := context.Background()
	bus := soap.NewMemBus()
	c := &pullCluster{bus: bus}
	c.coord = NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(seed)),
	})
	bus.Register("mem://coordinator", c.coord.Handler())
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("mem://pull%02d", i)
		app := NewCollectingApp()
		d, err := NewDisseminator(DisseminatorConfig{
			Address: addr,
			Caller:  bus,
			App:     app,
			RNG:     rand.New(rand.NewSource(seed + 50 + int64(i))),
		})
		if err != nil {
			t.Fatalf("NewDisseminator: %v", err)
		}
		bus.Register(addr, d.Handler())
		c.dissems = append(c.dissems, d)
		c.apps = append(c.apps, app)
		if err := SubscribeClient(ctx, bus, "mem://coordinator", addr, RoleDisseminator); err != nil {
			t.Fatalf("subscribe: %v", err)
		}
	}
	var err error
	c.init, err = NewInitiator(InitiatorConfig{
		Address:    "mem://initiator",
		Caller:     bus,
		Activation: "mem://coordinator",
	})
	if err != nil {
		t.Fatalf("NewInitiator: %v", err)
	}
	return c
}

// TestPullGossipSpreadsThroughPullRoundsOnly checks the WS-PullGossip
// protocol end to end: the initiator seeds its targets once; no eager
// forwarding happens; repeated TickPull rounds then spread the notification
// to every joined disseminator.
func TestPullGossipSpreadsThroughPullRoundsOnly(t *testing.T) {
	const n = 24
	ctx := context.Background()
	c := newPullCluster(t, n, 17)

	inter, err := c.init.StartProtocolInteraction(ctx, ProtocolPullGossip)
	if err != nil {
		t.Fatalf("StartProtocolInteraction: %v", err)
	}
	if inter.Params.Style != "pull" {
		t.Fatalf("pull registration returned style %q, want pull", inter.Params.Style)
	}
	if _, _, err := c.init.Notify(ctx, inter, pullBody{Seq: 1}); err != nil {
		t.Fatalf("Notify: %v", err)
	}

	// Seeding reached only the initiator's direct targets; nothing was
	// eagerly re-forwarded.
	seeded := 0
	var forwarded int64
	for i, d := range c.dissems {
		st := d.Stats()
		forwarded += st.Forwarded + st.Announced
		if c.apps[i].Count() > 0 {
			seeded++
		}
	}
	if forwarded != 0 {
		t.Fatalf("pull interaction eagerly forwarded %d copies", forwarded)
	}
	if seeded == 0 || seeded >= n {
		t.Fatalf("seeding should reach some but not all nodes, reached %d/%d", seeded, n)
	}

	// Every remaining node joins the interaction and pulls.
	for _, d := range c.dissems {
		if err := d.JoinInteraction(ctx, inter.Context, ProtocolPullGossip); err != nil {
			t.Fatalf("JoinInteraction: %v", err)
		}
	}
	rounds := 0
	for ; rounds < 20; rounds++ {
		done := true
		for i, d := range c.dissems {
			if c.apps[i].Count() == 0 {
				done = false
				d.TickPull(ctx)
			}
		}
		if done {
			break
		}
	}
	reached := 0
	var pullsSent, pullServed int64
	for i, d := range c.dissems {
		if c.apps[i].Count() > 0 {
			reached++
		}
		st := d.Stats()
		pullsSent += st.PullsSent
		pullServed += st.PullServed
	}
	if reached != n {
		t.Fatalf("pull rounds reached %d/%d nodes after %d rounds", reached, n, rounds)
	}
	if pullsSent == 0 || pullServed == 0 {
		t.Fatalf("expected pull traffic, got pullsSent=%d pullServed=%d", pullsSent, pullServed)
	}
	t.Logf("pull: seeded=%d reached=%d/%d rounds=%d pullsSent=%d pullServed=%d",
		seeded, reached, n, rounds, pullsSent, pullServed)
}

// TestPullRequestNegativePath checks the malformed and empty-requester
// faults of the pull handler.
func TestPullRequestNegativePath(t *testing.T) {
	c := newPullCluster(t, 2, 3)
	env := soap.NewEnvelope()
	if err := env.SetAddressing(addressingFor("mem://pull00", ActionPullRequest)); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(PullRequest{Requester: ""}); err != nil {
		t.Fatal(err)
	}
	_, err := c.bus.Call(context.Background(), "mem://pull00", env)
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("expected SOAP fault for empty requester, got %v", err)
	}
}

// TestRegistryAcceptsKnownProtocolsAndFaultsUnknown is the registry's
// contract: registrations for all three built-in protocol URIs succeed,
// while an unknown URI is answered with a Sender fault (the negative path
// the pre-registry coordinator never had coverage for).
func TestRegistryAcceptsKnownProtocolsAndFaultsUnknown(t *testing.T) {
	ctx := context.Background()
	c := newPullCluster(t, 4, 5)
	cctx, err := c.coord.CreateActivity()
	if err != nil {
		t.Fatalf("CreateActivity: %v", err)
	}
	client := wscoord.NewRegistrationClient(c.bus, "mem://registrant")
	for _, protocol := range []string{ProtocolPushGossip, ProtocolPullGossip, ProtocolAggregate} {
		resp, err := client.Register(ctx, cctx, protocol, "mem://pull00")
		if err != nil {
			t.Fatalf("registration for %s failed: %v", protocol, err)
		}
		if resp == nil {
			t.Fatalf("registration for %s returned no response", protocol)
		}
	}
	_, err = client.Register(ctx, cctx, Namespace+":gossip:bogus", "mem://pull00")
	var fault *soap.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("expected SOAP fault for unknown protocol, got %v", err)
	}
	if fault.Code.Value != soap.CodeSender {
		t.Fatalf("unknown protocol fault code = %q, want Sender", fault.Code.Value)
	}
	want := c.coord.SupportedProtocols()
	if len(want) != 3 {
		t.Fatalf("SupportedProtocols = %v, want the three built-ins", want)
	}
}

// TestSubscribeAdvertisingUnknownProtocolRejected covers the subscribe-side
// registry check.
func TestSubscribeAdvertisingUnknownProtocolRejected(t *testing.T) {
	c := newPullCluster(t, 1, 1)
	err := SubscribeClient(context.Background(), c.bus, "mem://coordinator",
		"mem://newcomer", RoleDisseminator, "urn:not-a-protocol")
	if err == nil {
		t.Fatalf("subscribe advertising unknown protocol should fail")
	}
}

// TestProtocolTargetEligibility checks that target assignment for a
// protocol only draws from subscribers advertising it.
func TestProtocolTargetEligibility(t *testing.T) {
	ctx := context.Background()
	bus := soap.NewMemBus()
	coord := NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(2)),
	})
	bus.Register("mem://coordinator", coord.Handler())
	// Two push-only subscribers, two aggregate-only subscribers.
	for i := 0; i < 2; i++ {
		if err := coord.SubscribeLocal(ctx, fmt.Sprintf("mem://push%d", i), RoleDisseminator, ProtocolPushGossip); err != nil {
			t.Fatal(err)
		}
		if err := coord.SubscribeLocal(ctx, fmt.Sprintf("mem://agg%d", i), RoleDisseminator, ProtocolAggregate); err != nil {
			t.Fatal(err)
		}
	}
	cctx, err := coord.CreateActivity()
	if err != nil {
		t.Fatal(err)
	}
	client := wscoord.NewRegistrationClient(bus, "mem://registrant")
	resp, err := client.Register(ctx, cctx, ProtocolPushGossip, "mem://registrant")
	if err != nil {
		t.Fatal(err)
	}
	params, err := GossipParametersFrom(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range params.Targets {
		if target == "mem://agg0" || target == "mem://agg1" {
			t.Fatalf("push-gossip targets include aggregate-only subscriber %s", target)
		}
	}
	resp, err = client.Register(ctx, cctx, ProtocolAggregate, "mem://registrant")
	if err != nil {
		t.Fatal(err)
	}
	aparams, err := AggregateParametersFrom(resp)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range aparams.Targets {
		if target == "mem://push0" || target == "mem://push1" {
			t.Fatalf("aggregate targets include push-only subscriber %s", target)
		}
	}
	if len(aparams.Targets) == 0 || aparams.Fanout <= 0 || aparams.Hops <= 0 {
		t.Fatalf("aggregate parameters incomplete: %+v", aparams)
	}
}
