package core

import (
	"context"
	"encoding/xml"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wsgossip/internal/epidemic"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
	"wsgossip/internal/wscoord"
)

type quoteBody struct {
	XMLName xml.Name `xml:"urn:example:stock Quote"`
	Symbol  string   `xml:"Symbol"`
	Price   float64  `xml:"Price"`
}

// figure1 wires the exact topology of the paper's Figure 1 on a MemBus:
// a Coordinator, an Initiator (App0b), two Disseminators (App1, App2), and
// one unchanged Consumer (App3), all subscribed.
type figure1 struct {
	bus         *soap.MemBus
	coord       *Coordinator
	init        *Initiator
	dissems     map[string]*Disseminator
	dissemApps  map[string]*CollectingApp
	consumerApp *CollectingApp
}

func newFigure1(t *testing.T, seed int64) *figure1 {
	t.Helper()
	bus := soap.NewMemBus()
	f := &figure1{
		bus:        bus,
		dissems:    make(map[string]*Disseminator),
		dissemApps: make(map[string]*CollectingApp),
	}
	f.coord = NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(seed)),
		Params:  func(int) (int, int) { return 2, 4 },
	})
	bus.Register("mem://coordinator", f.coord.Handler())

	for _, name := range []string{"mem://app1", "mem://app2"} {
		app := NewCollectingApp()
		d, err := NewDisseminator(DisseminatorConfig{
			Address: name,
			Caller:  bus,
			App:     app,
			RNG:     rand.New(rand.NewSource(seed + int64(len(f.dissems)))),
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(name, d.Handler())
		f.dissems[name] = d
		f.dissemApps[name] = app
	}

	f.consumerApp = NewCollectingApp()
	consumer := NewConsumer(f.consumerApp)
	bus.Register("mem://app3", consumer.Handler())

	var err error
	f.init, err = NewInitiator(InitiatorConfig{
		Address:    "mem://app0b",
		Caller:     bus,
		Activation: "mem://coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for endpoint, role := range map[string]string{
		"mem://app1": RoleDisseminator,
		"mem://app2": RoleDisseminator,
		"mem://app3": RoleConsumer,
	} {
		if err := SubscribeClient(ctx, bus, "mem://coordinator", endpoint, role); err != nil {
			t.Fatalf("subscribe %s: %v", endpoint, err)
		}
	}
	return f
}

// TestFigure1Dissemination is experiment E0's core assertion: the complete
// Figure 1 flow — Activation, Registration, Subscription, op — delivers the
// notification to every subscriber, including the unchanged consumer.
func TestFigure1Dissemination(t *testing.T) {
	f := newFigure1(t, 7)
	ctx := context.Background()
	inter, err := f.init.StartInteraction(ctx)
	if err != nil {
		t.Fatalf("start interaction: %v", err)
	}
	if inter.Params.Fanout != 2 || inter.Params.Hops != 4 {
		t.Fatalf("params = %+v", inter.Params)
	}
	if len(inter.Params.Targets) == 0 {
		t.Fatal("initiator got no targets")
	}
	msgID, sent, err := f.init.Notify(ctx, inter, quoteBody{Symbol: "ACME", Price: 42.5})
	if err != nil {
		t.Fatalf("notify: %v", err)
	}
	if msgID == "" || sent == 0 {
		t.Fatalf("msgID=%q sent=%d", msgID, sent)
	}
	// MemBus is synchronous: the epidemic has fully run by now.
	for name, app := range f.dissemApps {
		if app.Count() != 1 {
			t.Fatalf("disseminator %s app deliveries = %d, want exactly 1", name, app.Count())
		}
		if !strings.Contains(app.Received()[0], "ACME") {
			t.Fatalf("disseminator %s got %q", name, app.Received()[0])
		}
	}
	// The Consumer is "completely unchanged" (paper, Section 3): it has no
	// gossip layer, hence no duplicate suppression, so it may legitimately
	// receive more than one copy. It must receive at least one.
	if f.consumerApp.Count() < 1 {
		t.Fatalf("consumer deliveries = %d, want >= 1", f.consumerApp.Count())
	}
}

// TestFigure1DisseminatorsRegisterOnFirstContact asserts the paper's
// first-contact behaviour: a disseminator that receives an unknown gossip
// interaction registers with the Registration service exactly once.
func TestFigure1DisseminatorsRegisterOnFirstContact(t *testing.T) {
	f := newFigure1(t, 8)
	ctx := context.Background()
	inter, err := f.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := f.init.Notify(ctx, inter, quoteBody{Symbol: "X", Price: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	totalRegs := int64(0)
	for name, d := range f.dissems {
		st := d.Stats()
		if st.Received > 0 && st.Registrations != 1 {
			t.Fatalf("disseminator %s registrations = %d, want 1", name, st.Registrations)
		}
		totalRegs += st.Registrations
	}
	cs := f.coord.Stats()
	// Initiator registers once; each contacted disseminator once.
	if cs.Registrations != totalRegs+1 {
		t.Fatalf("coordinator registrations = %d, want %d", cs.Registrations, totalRegs+1)
	}
}

// TestConsumerCompletelyUnchanged is the paper's central Consumer claim: the
// consumer stack contains zero gossip code, receives the notification with
// all gossip headers intact but unexamined, and never contacts the
// coordinator.
func TestConsumerCompletelyUnchanged(t *testing.T) {
	bus := soap.NewMemBus()
	var sawGossipHeader, sawContext bool
	app := soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
		if _, err := GossipHeaderFrom(req.Envelope); err == nil {
			sawGossipHeader = true
		}
		if _, err := wscoord.ContextFrom(req.Envelope); err == nil {
			sawContext = true
		}
		return nil, nil
	})
	bus.Register("mem://consumer", NewConsumer(app).Handler())

	coord := NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(1)),
	})
	bus.Register("mem://coordinator", coord.Handler())
	ctx := context.Background()
	if err := coord.SubscribeLocal(ctx, "mem://consumer", RoleConsumer); err != nil {
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
	if _, _, err := init.Notify(ctx, inter, quoteBody{Symbol: "Y", Price: 1}); err != nil {
		t.Fatal(err)
	}
	if !sawGossipHeader || !sawContext {
		t.Fatal("gossip headers did not pass through the unchanged consumer stack")
	}
	regs := coord.Stats().Registrations
	if regs != 1 { // only the initiator's
		t.Fatalf("registrations = %d; the consumer must never register", regs)
	}
}

func TestDisseminatorSuppressesDuplicates(t *testing.T) {
	f := newFigure1(t, 9)
	ctx := context.Background()
	inter, err := f.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Fanout 2 over 3 subscribers with hops 4 guarantees re-receipts.
	if _, _, err := f.init.Notify(ctx, inter, quoteBody{Symbol: "DUP", Price: 1}); err != nil {
		t.Fatal(err)
	}
	var dups int64
	for _, d := range f.dissems {
		dups += d.Stats().Duplicates
	}
	if dups == 0 {
		t.Fatal("no duplicates suppressed; topology should produce re-receipts")
	}
	for name, app := range f.dissemApps {
		if app.Count() != 1 {
			t.Fatalf("%s delivered %d times", name, app.Count())
		}
	}
}

func TestDisseminatorPlainMessagePassThrough(t *testing.T) {
	bus := soap.NewMemBus()
	app := NewCollectingApp()
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://d", Caller: bus, App: app,
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://d", d.Handler())
	env := soap.NewEnvelope()
	if err := env.SetAddressing(addressingFor("mem://d", ActionNotify)); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(quoteBody{Symbol: "PLAIN", Price: 2}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(context.Background(), "mem://d", env); err != nil {
		t.Fatal(err)
	}
	if app.Count() != 1 {
		t.Fatalf("plain message deliveries = %d", app.Count())
	}
	st := d.Stats()
	if st.Received != 0 || st.Forwarded != 0 || st.Registrations != 0 {
		t.Fatalf("plain message touched gossip state: %+v", st)
	}
}

func TestDisseminatorWithoutContextStillDelivers(t *testing.T) {
	bus := soap.NewMemBus()
	app := NewCollectingApp()
	d, err := NewDisseminator(DisseminatorConfig{Address: "mem://d", Caller: bus, App: app})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://d", d.Handler())
	// Gossip header but no coordination context: registration is
	// impossible; the node must degrade to consume-only.
	env := soap.NewEnvelope()
	if err := env.SetAddressing(addressingFor("mem://d", ActionNotify)); err != nil {
		t.Fatal(err)
	}
	if err := SetGossipHeader(env, GossipHeader{InteractionID: "i1", MessageID: "m1", Hops: 3}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(quoteBody{Symbol: "NOCTX", Price: 3}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(context.Background(), "mem://d", env); err != nil {
		t.Fatal(err)
	}
	if app.Count() != 1 {
		t.Fatalf("deliveries = %d", app.Count())
	}
	if st := d.Stats(); st.Forwarded != 0 {
		t.Fatalf("forwarded without parameters: %+v", st)
	}
}

func TestGossipHeaderRoundTrip(t *testing.T) {
	env := soap.NewEnvelope()
	gh := GossipHeader{InteractionID: "ia", MessageID: "mb", Hops: 5}
	if err := env.SetAddressing(wsa.Headers{MessageID: wsa.MessageID(gh.MessageID)}); err != nil {
		t.Fatal(err)
	}
	if err := SetGossipHeader(env, gh); err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := soap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GossipHeaderFrom(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got.InteractionID != gh.InteractionID || got.MessageID != gh.MessageID || got.Hops != gh.Hops {
		t.Fatalf("round trip = %+v, want %+v", got, gh)
	}
}

func TestGossipHeaderMissing(t *testing.T) {
	env := soap.NewEnvelope()
	if _, err := GossipHeaderFrom(env); err != ErrNoGossipHeader {
		t.Fatalf("err = %v", err)
	}
}

func TestSetGossipHeaderReplaces(t *testing.T) {
	env := soap.NewEnvelope()
	if err := SetGossipHeader(env, GossipHeader{InteractionID: "a", MessageID: "1", Hops: 9}); err != nil {
		t.Fatal(err)
	}
	if err := SetGossipHeader(env, GossipHeader{InteractionID: "a", MessageID: "1", Hops: 8}); err != nil {
		t.Fatal(err)
	}
	got, err := GossipHeaderFrom(env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hops != 8 {
		t.Fatalf("hops = %d, want 8", got.Hops)
	}
	count := 0
	for _, b := range env.Header.Blocks {
		if b.XMLName.Local == "Gossip" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("gossip headers = %d", count)
	}
}

func TestCoordinatorSubscriptionManagement(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Address: "mem://c"})
	ctx := context.Background()
	if err := c.SubscribeLocal(ctx, "mem://a", RoleDisseminator); err != nil {
		t.Fatal(err)
	}
	if err := c.SubscribeLocal(ctx, "mem://b", RoleConsumer); err != nil {
		t.Fatal(err)
	}
	// Re-subscribe updates the role without duplicating.
	if err := c.SubscribeLocal(ctx, "mem://a", RoleConsumer); err != nil {
		t.Fatal(err)
	}
	subs := c.Subscribers()
	if len(subs) != 2 {
		t.Fatalf("subscribers = %+v", subs)
	}
	for _, s := range subs {
		if s.Endpoint == "mem://a" && s.Role != RoleConsumer {
			t.Fatalf("role not updated: %+v", s)
		}
	}
	c.Unsubscribe("mem://a")
	if got := len(c.Subscribers()); got != 1 {
		t.Fatalf("after unsubscribe = %d", got)
	}
	c.Unsubscribe("mem://ghost") // no-op
}

func TestCoordinatorRejectsBadSubscriptions(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{Address: "mem://c"})
	ctx := context.Background()
	if err := c.SubscribeLocal(ctx, "", RoleConsumer); err == nil {
		t.Fatal("empty endpoint accepted")
	}
	if err := c.SubscribeLocal(ctx, "mem://a", "weird"); err == nil {
		t.Fatal("unknown role accepted")
	}
}

func TestDefaultParamPolicy(t *testing.T) {
	f, h := DefaultParamPolicy(1)
	if f != 1 || h != 1 {
		t.Fatalf("tiny policy = (%d, %d)", f, h)
	}
	f, h = DefaultParamPolicy(1024)
	if f != 3 {
		t.Fatalf("fanout = %d", f)
	}
	if h != 12 { // ceil(log2(1024)) + 2
		t.Fatalf("hops = %d, want 12", h)
	}
	// The coverage DefaultParamPolicy's doc states, and the infect-and-die
	// ceiling it converges to (a million nodes, hops past convergence).
	for _, c := range []struct {
		n, hops int
		want    string
	}{{16, 0, "0.950"}, {64, 0, "0.943"}, {1000, 0, "0.941"}, {1000000, 100, "0.940"}} {
		f, h := DefaultParamPolicy(c.n)
		if c.hops > 0 {
			h = c.hops
		}
		cov, err := epidemic.ExpectedCoverage(c.n, f, h)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%.3f", cov); got != c.want {
			t.Errorf("n=%d (f=%d, hops=%d): model coverage %s, the doc says %s", c.n, f, h, got, c.want)
		}
	}
}

func TestRegistrationRejectsUnknownProtocol(t *testing.T) {
	f := newFigure1(t, 10)
	ctx := context.Background()
	cctx := f.coord.CreateActivity()
	reg := wscoord.NewRegistrationClient(f.bus, "mem://x")
	_, err := reg.Register(ctx, cctx, "urn:other:protocol", "mem://x")
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestDistributedCoordinatorReplication(t *testing.T) {
	bus := soap.NewMemBus()
	addrs := []string{"mem://c0", "mem://c1", "mem://c2"}
	coords := make([]*Coordinator, len(addrs))
	for i, addr := range addrs {
		var replicas []string
		for j, other := range addrs {
			if j != i {
				replicas = append(replicas, other)
			}
		}
		coords[i] = NewCoordinator(CoordinatorConfig{
			Address:  addr,
			RNG:      rand.New(rand.NewSource(int64(i))),
			Caller:   bus,
			Replicas: replicas,
		})
		bus.Register(addr, coords[i].Handler())
	}
	ctx := context.Background()
	// Subscribe 9 endpoints round-robin across coordinators.
	for i := 0; i < 9; i++ {
		target := addrs[i%3]
		endpoint := fmt.Sprintf("mem://sub%d", i)
		if err := SubscribeClient(ctx, bus, target, endpoint, RoleDisseminator); err != nil {
			t.Fatal(err)
		}
	}
	// Every coordinator must know all 9 subscribers.
	for i, c := range coords {
		if got := len(c.Subscribers()); got != 9 {
			t.Fatalf("coordinator %d subscribers = %d, want 9", i, got)
		}
	}
	// Replications counted, not double-subscribed.
	for i, c := range coords {
		st := c.Stats()
		if st.Subscribes != 3 {
			t.Fatalf("coordinator %d direct subscribes = %d, want 3", i, st.Subscribes)
		}
		if st.Replications != 6 {
			t.Fatalf("coordinator %d replications = %d, want 6", i, st.Replications)
		}
	}
}

func TestInitiatorConfigValidation(t *testing.T) {
	if _, err := NewInitiator(InitiatorConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewDisseminator(DisseminatorConfig{}); err == nil {
		t.Fatal("empty disseminator config accepted")
	}
}

func TestNotifyWithoutInteraction(t *testing.T) {
	bus := soap.NewMemBus()
	init, err := NewInitiator(InitiatorConfig{Address: "mem://i", Caller: bus, Activation: "mem://c"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := init.Notify(context.Background(), nil, quoteBody{}); err == nil {
		t.Fatal("nil interaction accepted")
	}
}

// TestDisseminatorSurvivesCoordinatorCrash: once parameters are cached, the
// epidemic keeps flowing even if the Coordinator disappears; nodes that had
// not yet registered degrade to consume-only instead of failing.
func TestDisseminatorSurvivesCoordinatorCrash(t *testing.T) {
	f := newFigure1(t, 12)
	ctx := context.Background()
	inter, err := f.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// First notification: everyone registers while the coordinator is up.
	if _, _, err := f.init.Notify(ctx, inter, quoteBody{Symbol: "BEFORE", Price: 1}); err != nil {
		t.Fatal(err)
	}
	before := map[string]int{}
	for name, app := range f.dissemApps {
		before[name] = app.Count()
	}
	// Coordinator crashes.
	f.bus.Unregister("mem://coordinator")
	// Dissemination continues from cached interaction state.
	if _, _, err := f.init.Notify(ctx, inter, quoteBody{Symbol: "AFTER", Price: 2}); err != nil {
		t.Fatal(err)
	}
	progressed := 0
	for name, app := range f.dissemApps {
		if app.Count() > before[name] {
			progressed++
		}
	}
	if progressed == 0 {
		t.Fatal("no disseminator delivered after the coordinator crash")
	}
}

// TestInteractionIsolation: two concurrent interactions use distinct
// contexts; a disseminator registers once per interaction and delivers both
// streams independently.
func TestInteractionIsolation(t *testing.T) {
	f := newFigure1(t, 13)
	ctx := context.Background()
	interA, err := f.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	interB, err := f.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if interA.Context.Identifier == interB.Context.Identifier {
		t.Fatal("interactions share an identifier")
	}
	if _, _, err := f.init.Notify(ctx, interA, quoteBody{Symbol: "A", Price: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.init.Notify(ctx, interB, quoteBody{Symbol: "B", Price: 2}); err != nil {
		t.Fatal(err)
	}
	for name, d := range f.dissems {
		st := d.Stats()
		if st.Received > 0 && st.Registrations > 2 {
			t.Fatalf("%s registered %d times for 2 interactions", name, st.Registrations)
		}
		app := f.dissemApps[name]
		if app.Count() != 2 {
			t.Fatalf("%s delivered %d, want both streams", name, app.Count())
		}
	}
}
