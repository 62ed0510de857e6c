package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// newLazyDeployment builds a WS-Gossip deployment whose Coordinator
// configures participants for lazy push.
func newLazyDeployment(t *testing.T, nDissem int, seed int64) (*soap.MemBus, *Initiator, []*Disseminator, []*CollectingApp) {
	return newStyleDeployment(t, nDissem, seed, gossip.StyleLazyPush)
}

// newStyleDeployment builds a WS-Gossip deployment whose Coordinator
// configures participants for style.
func newStyleDeployment(t *testing.T, nDissem int, seed int64, style gossip.Style) (*soap.MemBus, *Initiator, []*Disseminator, []*CollectingApp) {
	t.Helper()
	bus := soap.NewMemBus()
	coord := NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(seed)),
		Params:  func(int) (int, int) { return 4, 8 },
		Style:   style,
	})
	bus.Register("mem://coordinator", coord.Handler())
	ctx := context.Background()
	dissems := make([]*Disseminator, nDissem)
	apps := make([]*CollectingApp, nDissem)
	for i := 0; i < nDissem; i++ {
		addr := fmt.Sprintf("mem://lazy%02d", i)
		apps[i] = NewCollectingApp()
		d, err := NewDisseminator(DisseminatorConfig{
			Address: addr, Caller: bus, App: apps[i],
			RNG: rand.New(rand.NewSource(seed + int64(i) + 50)),
		})
		if err != nil {
			t.Fatal(err)
		}
		dissems[i] = d
		bus.Register(addr, d.Handler())
		if err := SubscribeClient(ctx, bus, "mem://coordinator", addr, RoleDisseminator); err != nil {
			t.Fatal(err)
		}
	}
	init, err := NewInitiator(InitiatorConfig{
		Address: "mem://init", Caller: bus, Activation: "mem://coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	return bus, init, dissems, apps
}

// TestLazyPushDissemination verifies the SOAP-level lazy-push style: full
// coverage with announce/fetch traffic replacing most payload forwards.
func TestLazyPushDissemination(t *testing.T) {
	_, init, dissems, apps := newLazyDeployment(t, 20, 31)
	ctx := context.Background()
	inter, err := init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Params.Style != gossip.StyleLazyPush.String() {
		t.Fatalf("style = %q", inter.Params.Style)
	}
	if _, _, err := init.Notify(ctx, inter, quoteBody{Symbol: "LAZY", Price: 5}); err != nil {
		t.Fatal(err)
	}
	reached := 0
	for _, app := range apps {
		if app.Count() == 1 {
			reached++
		}
	}
	if reached < 18 {
		t.Fatalf("lazy push reached %d/20", reached)
	}
	var announced, fetched, served, forwarded int64
	for _, d := range dissems {
		st := d.Stats()
		announced += st.Announced
		fetched += st.Fetched
		served += st.Served
		forwarded += st.Forwarded
	}
	if announced == 0 || fetched == 0 || served == 0 {
		t.Fatalf("lazy machinery unused: announced=%d fetched=%d served=%d", announced, fetched, served)
	}
	if forwarded != 0 {
		t.Fatalf("lazy deployment used eager forwards: %d", forwarded)
	}
	// Payload transfers (served) must not exceed unique deliveries, unlike
	// eager push where payloads >> deliveries.
	if served > int64(len(dissems)) {
		t.Fatalf("served %d payloads for %d nodes", served, len(dissems))
	}
}

// TestFloodAndCounterOverSOAP: the machine's flood and counter-mongering
// branches run on the SOAP binding too. A flood sends every node's copy to
// its whole target list; counter mongering re-bursts on duplicates and goes
// quiescent after CounterK of them, so it spreads and terminates.
func TestFloodAndCounterOverSOAP(t *testing.T) {
	ctx := context.Background()
	for _, style := range []gossip.Style{gossip.StyleFlood, gossip.StyleCounter} {
		_, init, dissems, apps := newStyleDeployment(t, 20, 33, style)
		inter, err := init.StartInteraction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := init.Notify(ctx, inter, quoteBody{Symbol: style.String(), Price: 1}); err != nil {
			t.Fatal(err)
		}
		var reached, forwarded int64
		for i, d := range dissems {
			reached += int64(apps[i].Count())
			forwarded += d.Stats().Forwarded
		}
		// Fanout 4: a flood sends past it, and so does mongering, whose
		// bursts on duplicates stop after CounterK (2) bursts per node.
		if reached != 20 || forwarded <= 4*reached || (style == gossip.StyleCounter && forwarded > 2*4*reached) {
			t.Fatalf("%v: reached %d/20, forwarded %d", style, reached, forwarded)
		}
	}
}

// TestLazyPushPayloadSavings compares payload traffic against an eager
// deployment of the same size and parameters.
func TestLazyPushPayloadSavings(t *testing.T) {
	ctx := context.Background()

	_, lazyInit, lazyDissems, _ := newLazyDeployment(t, 20, 32)
	inter, err := lazyInit.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lazyInit.Notify(ctx, inter, quoteBody{Symbol: "L", Price: 1}); err != nil {
		t.Fatal(err)
	}
	var lazyPayloads int64
	for _, d := range lazyDissems {
		st := d.Stats()
		lazyPayloads += st.Served + st.Forwarded
	}

	eager, err := newE0StyleDeployment(20, 32)
	if err != nil {
		t.Fatal(err)
	}
	eagerInter, err := eager.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eager.init.Notify(ctx, eagerInter, quoteBody{Symbol: "E", Price: 1}); err != nil {
		t.Fatal(err)
	}
	var eagerPayloads int64
	for _, d := range eager.dissems {
		eagerPayloads += d.Stats().Forwarded
	}
	if lazyPayloads >= eagerPayloads {
		t.Fatalf("lazy payloads (%d) not below eager (%d)", lazyPayloads, eagerPayloads)
	}
}

// eagerDeployment mirrors newLazyDeployment with the default push style.
type eagerDeployment struct {
	init    *Initiator
	dissems []*Disseminator
}

func newE0StyleDeployment(nDissem int, seed int64) (*eagerDeployment, error) {
	bus := soap.NewMemBus()
	coord := NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(seed)),
		Params:  func(int) (int, int) { return 4, 8 },
	})
	bus.Register("mem://coordinator", coord.Handler())
	ctx := context.Background()
	d := &eagerDeployment{}
	for i := 0; i < nDissem; i++ {
		addr := fmt.Sprintf("mem://eager%02d", i)
		dd, err := NewDisseminator(DisseminatorConfig{
			Address: addr, Caller: bus, App: NewCollectingApp(),
			RNG: rand.New(rand.NewSource(seed + int64(i) + 50)),
		})
		if err != nil {
			return nil, err
		}
		d.dissems = append(d.dissems, dd)
		bus.Register(addr, dd.Handler())
		if err := SubscribeClient(ctx, bus, "mem://coordinator", addr, RoleDisseminator); err != nil {
			return nil, err
		}
	}
	init, err := NewInitiator(InitiatorConfig{
		Address: "mem://init", Caller: bus, Activation: "mem://coordinator",
	})
	if err != nil {
		return nil, err
	}
	d.init = init
	return d, nil
}

// TestEnvelopeStore: a disseminator holds the first envelope stored under an
// ID, and evicts oldest-first once its store is full — 1024 entries unless
// configured otherwise.
func TestEnvelopeStore(t *testing.T) {
	mk := func(symbol string) *stored {
		env := soap.NewEnvelope()
		_ = env.SetBody(quoteBody{Symbol: symbol})
		return storedOf(env)
	}
	symbol := func(held *stored) string {
		var q quoteBody
		if held != nil {
			_ = held.Envelope().DecodeBody(&q)
		}
		return q.Symbol
	}
	for _, tc := range []struct{ size, holds int }{{2, 2}, {0, defaultStoreSize}} {
		d, err := NewDisseminator(DisseminatorConfig{Address: "mem://d", Caller: soap.NewMemBus(), StoreSize: tc.size})
		if err != nil {
			t.Fatal(err)
		}
		d.m.Hold(gossip.IDSum("a"), mk("a"))
		d.m.Hold(gossip.IDSum("a"), mk("a2")) // idempotent, no duplicate entry
		for i := 1; i < tc.holds; i++ {
			d.m.Hold(gossip.IDSum(fmt.Sprint("n", i)), mk("n"))
		}
		if held, ok := d.m.Get(gossip.IDSum("a")); !ok || symbol(held) != "a" || d.m.Len() != tc.holds {
			t.Fatalf("store size %d: a held %v as %q, len %d", tc.size, ok, symbol(held), d.m.Len())
		}
		d.m.Hold(gossip.IDSum("c"), mk("c"))
		if _, ok := d.m.Get(gossip.IDSum("a")); ok {
			t.Fatalf("store size %d: oldest survived eviction", tc.size)
		}
		if _, ok := d.m.Get(gossip.IDSum("c")); !ok {
			t.Fatalf("store size %d: newest missing", tc.size)
		}
	}
}

func TestHandleIWantUnknownMessage(t *testing.T) {
	bus := soap.NewMemBus()
	d, err := NewDisseminator(DisseminatorConfig{Address: "mem://d", Caller: bus})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://d", d.Handler())
	env := soap.NewEnvelope()
	if err := env.SetAddressing(addressingFor("mem://d", ActionIWant)); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(Fetch{MessageID: "ghost", Requester: "mem://x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Call(context.Background(), "mem://d", env); err == nil {
		t.Fatal("fetch of unknown message succeeded")
	}
}

// TestFullAnnounceQueueCountsDrops: with announcements deferred and no round
// ticking, the queue holds maxPendingAnnounces advertisements; the next one
// is dropped and counted in gossip_announce_dropped_total. The round then
// announces the queued ones, in the order they were queued, and a second
// round — refilling the buffers the first one handed back — announces its
// own, not the first round's.
func TestFullAnnounceQueueCountsDrops(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	rec := &wireRecorder{}
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://self", Caller: rec, RNG: rand.New(rand.NewSource(1)), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.DeferAnnouncements()
	state := newInteractionState("urn:uuid:i", ProtocolPushGossip, GossipParameters{Fanout: 1, Hops: 4, Targets: []string{"mem://a"}})
	announce := func(round, n int) {
		for i := range n {
			// The ID's buffer is the delivery's: it is overwritten once
			// spread returns, so the queue must have copied it.
			id := []byte(fmt.Sprintf("urn:uuid:%d-%d", round, i))
			d.spread(ctx, nil, notice{messageID: id, hops: 3}, state, announceTransfer)
			copy(id, "XXXXXXXXXXXX")
		}
	}
	announced := func(round, n int) {
		t.Helper()
		if len(rec.msgs) != n {
			t.Fatalf("round %d: %d announcements, want %d", round, len(rec.msgs), n)
		}
		for i, data := range rec.msgs {
			env, err := soap.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			id, _, err := announceFrom(env)
			if want := fmt.Sprintf("urn:uuid:%d-%d", round, i); err != nil || string(id) != want {
				t.Fatalf("round %d announcement %d names %q (%v), want %q", round, i, id, err, want)
			}
		}
		rec.msgs = nil
	}
	dropped := reg.Counter("gossip_announce_dropped_total")

	announce(0, maxPendingAnnounces+1)
	if got := dropped.Value(); got != 1 {
		t.Fatalf("gossip_announce_dropped_total = %d, want 1", got)
	}
	d.TickAnnounce(ctx)
	announced(0, maxPendingAnnounces)

	announce(1, 3)
	d.TickAnnounce(ctx)
	announced(1, 3)
	if got := dropped.Value(); got != 1 {
		t.Fatalf("gossip_announce_dropped_total = %d after a round within bounds, want 1", got)
	}
}
