package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
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

// announcedTo decodes the IHAVEs in msgs into the IDs each destination was
// announced, in the order sent, and checks that each IHAVE lists at most
// gossip.DigestCap notifications and names the one holder.
func announcedTo(t *testing.T, msgs [][]byte, holder string) map[string][]string {
	t.Helper()
	got := map[string][]string{}
	for _, data := range msgs {
		env, err := soap.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		ids, by, err := announcesFrom(env, nil)
		if err != nil || by != holder || len(ids) > gossip.DigestCap {
			t.Fatalf("IHAVE of %d notifications by %q (%v)", len(ids), by, err)
		}
		to := env.Addressing().To
		for _, id := range ids {
			got[to] = append(got[to], string(id))
		}
	}
	return got
}

// TestFullAnnounceQueueCountsDrops: with announcements deferred and no round
// ticking, the queue holds gossip.QueueCap advertisements; the next one
// is dropped and counted in gossip_announce_dropped_total. The round then
// announces every queued one exactly once to each of its fanout's peers, in
// the order they were queued, across IHAVEs of at most gossip.DigestCap, and
// a second round — refilling the buffers the first one handed back —
// announces its own, not the first round's.
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
	state := newInteractionState("urn:uuid:i", ProtocolPushGossip, GossipParameters{Fanout: 2, Hops: 4, Targets: []string{"mem://a", "mem://b", "mem://c"}})
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
		var want []string
		for i := range n {
			want = append(want, fmt.Sprintf("urn:uuid:%d-%d", round, i))
		}
		got := announcedTo(t, rec.msgs, "mem://self")
		if len(got) != state.params.Fanout {
			t.Fatalf("round %d announced to %d peers, want %d", round, len(got), state.params.Fanout)
		}
		for to, ids := range got {
			if !slices.Equal(ids, want) {
				t.Fatalf("round %d announced %d IDs to %s, want the %d queued, in order", round, len(ids), to, n)
			}
		}
		if envelopes := (n + gossip.DigestCap - 1) / gossip.DigestCap * state.params.Fanout; len(rec.msgs) != envelopes {
			t.Fatalf("round %d sent %d IHAVEs, want %d", round, len(rec.msgs), envelopes)
		}
		rec.msgs = nil
	}
	dropped := reg.Counter("gossip_announce_dropped_total")

	announce(0, gossip.QueueCap+1)
	if got := dropped.Value(); got != 1 {
		t.Fatalf("gossip_announce_dropped_total = %d, want 1", got)
	}
	d.TickAnnounce(ctx)
	announced(0, gossip.QueueCap)

	announce(1, 3)
	d.TickAnnounce(ctx)
	announced(1, 3)
	if got := dropped.Value(); got != 1 {
		t.Fatalf("gossip_announce_dropped_total = %d after a round within bounds, want 1", got)
	}
}

// dropFirstNotify is a caller that drops the first notification it is asked
// to send and passes everything else to its bus.
type dropFirstNotify struct {
	soap.Caller
	dropped bool
}

func (c *dropFirstNotify) SendEncoded(ctx context.Context, to string, data []byte) error {
	if !c.dropped {
		if env, err := soap.Decode(data); err == nil && env.Addressing().Action == ActionNotify {
			c.dropped = true
			return nil
		}
	}
	return c.Caller.SendEncoded(ctx, to, data)
}

// TestUnansweredFetchIsReleasedByTheAnnounceRound: lazy push with no repair.
// A node fetches an announced notification, and the answer is lost on the
// way. A second announcer's IHAVE is ignored while the fetch is outstanding,
// but once a whole announce round has passed the fetch is released, and the
// next IHAVE fetches the notification.
func TestUnansweredFetchIsReleasedByTheAnnounceRound(t *testing.T) {
	ctx := context.Background()
	bus := soap.NewMemBus()
	app := NewCollectingApp()
	node := func(addr string, caller soap.Caller, app soap.Handler) *Disseminator {
		d, err := NewDisseminator(DisseminatorConfig{Address: addr, Caller: caller, App: app, RNG: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, d.Handler())
		return d
	}
	fetcher := node("mem://fetcher", bus, app)
	fetcher.DeferAnnouncements()
	lossy := node("mem://lossy", &dropFirstNotify{Caller: bus}, nil)
	second := node("mem://second", bus, nil)
	const id = "urn:uuid:lost-once"
	state := newInteractionState("urn:uuid:i", ProtocolPushGossip, GossipParameters{Fanout: 1, Hops: 3, Targets: []string{"mem://fetcher"}})
	announceFrom := func(d *Disseminator) {
		d.spread(ctx, nil, notice{messageID: []byte(id), hops: 3}, state, announceTransfer)
	}
	for _, d := range []*Disseminator{lossy, second} {
		storeNotification(t, d, id)
	}

	announceFrom(lossy) // fetched, and the answer dropped
	announceFrom(second)
	if got := fetcher.Stats().Fetched; got != 1 || app.Count() != 0 {
		t.Fatalf("before a round: %d fetches, %d deliveries; want the outstanding fetch only", got, app.Count())
	}
	fetcher.TickAnnounce(ctx) // the fetch is a round old at the next round's end
	announceFrom(second)
	if got := fetcher.Stats().Fetched; got != 1 {
		t.Fatalf("the fetch was released within one round: %d fetches", got)
	}
	fetcher.TickAnnounce(ctx)
	announceFrom(second)
	if got := fetcher.Stats().Fetched; got != 2 || app.Count() != 1 {
		t.Fatalf("after a whole round: %d fetches, %d deliveries; want 2 and 1", got, app.Count())
	}
}

// ihaveRequest is an IHAVE holding children, as its receiver decodes it from
// a buffer of its own.
func ihaveRequest(t testing.TB, children ...soap.Block) *soap.Request {
	t.Helper()
	env := soap.NewEnvelope()
	if err := env.SetAddressing(addressingFor("mem://self", ActionIHave)); err != nil {
		t.Fatal(err)
	}
	env.Body.Blocks = append(env.Body.Blocks, children...)
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

// fetchLog decodes the IWANTs in msgs into "to MessageID" lines.
func fetchLog(t *testing.T, msgs [][]byte) []string {
	t.Helper()
	var out []string
	for _, data := range msgs {
		env, err := soap.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		id, requester, err := fetchFrom(env)
		if err != nil || requester != "mem://self" {
			t.Fatalf("IWANT by %q (%v)", requester, err)
		}
		out = append(out, env.Addressing().To+" "+string(id))
	}
	return out
}

// TestIHaveRoundFetchesEachUnheldChild: an IHAVE listing a round's
// notifications is read whole — canonical children in place, a
// foreign-written one through encoding/xml — and each notification the node
// neither holds nor already requested is fetched from the holder with an
// IWANT of its own.
func TestIHaveRoundFetchesEachUnheldChild(t *testing.T) {
	rec := &wireRecorder{}
	d, err := NewDisseminator(DisseminatorConfig{Address: "mem://self", Caller: rec})
	if err != nil {
		t.Fatal(err)
	}
	d.m.Receive(gossip.IDSum("urn:uuid:held"), false)
	d.m.IHave([][]byte{[]byte("urn:uuid:requested")})
	// Its children in another order: the flat reader declines it.
	foreign := soap.Block{XMLName: announceName, Raw: []byte(`<Announce xmlns="urn:wsgossip:2008"><Holder>mem://holder</Holder>` +
		`<MessageID>urn:uuid:foreign</MessageID><Hops>2</Hops><InteractionID>urn:uuid:i</InteractionID></Announce>`)}
	if _, ok := scanAnnounce(foreign.Raw); ok {
		t.Fatal("the flat reader takes the reordered child")
	}
	req := ihaveRequest(t,
		announceBlock("urn:uuid:i", "urn:uuid:new-1", 2, "mem://holder"),
		announceBlock("urn:uuid:i", "urn:uuid:held", 2, "mem://holder"),
		foreign,
		announceBlock("urn:uuid:j", "urn:uuid:requested", 1, "mem://holder"),
		announceBlock("urn:uuid:j", "urn:uuid:new-2", 1, "mem://holder"),
	)
	if _, err := d.handleIHave(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	want := []string{"mem://holder urn:uuid:new-1", "mem://holder urn:uuid:foreign", "mem://holder urn:uuid:new-2"}
	if got := fetchLog(t, rec.msgs); !slices.Equal(got, want) {
		t.Fatalf("IWANTs %q, want %q", got, want)
	}
	if st := d.Stats(); st.Fetched != 3 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHostileIHaveIsRefused: an IHAVE listing more than gossip.DigestCap
// notifications, one whose children name different holders, and one with a
// malformed child after good ones are each answered with a Sender fault
// before anything is requested: no IWANT leaves, and a later well-formed
// announcement of the same notifications still fetches them.
func TestHostileIHaveIsRefused(t *testing.T) {
	many := make([]soap.Block, gossip.DigestCap+1)
	for i := range many {
		many[i] = announceBlock("urn:uuid:i", fmt.Sprintf("urn:uuid:n%d", i), 2, "mem://holder")
	}
	for name, children := range map[string][]soap.Block{
		"over the cap": many,
		"two holders": {
			announceBlock("urn:uuid:i", "urn:uuid:n0", 2, "mem://holder"),
			announceBlock("urn:uuid:i", "urn:uuid:n1", 2, "mem://victim"),
		},
		"malformed child": {
			announceBlock("urn:uuid:i", "urn:uuid:n0", 2, "mem://holder"),
			{XMLName: announceName, Raw: []byte(`<Announce xmlns="urn:wsgossip:2008"><Hops>x</Hops></Announce>`)},
		},
	} {
		t.Run(name, func(t *testing.T) {
			rec := &wireRecorder{}
			d, err := NewDisseminator(DisseminatorConfig{Address: "mem://self", Caller: rec})
			if err != nil {
				t.Fatal(err)
			}
			_, err = d.handleIHave(context.Background(), ihaveRequest(t, children...))
			var fault *soap.Fault
			if !errors.As(err, &fault) || fault.Code.Value != soap.CodeSender {
				t.Fatalf("answered with %v, want a Sender fault", err)
			}
			if len(rec.msgs) != 0 || d.Stats().Fetched != 0 {
				t.Fatalf("%d IWANTs left", len(rec.msgs))
			}
			if _, err := d.handleIHave(context.Background(), ihaveRequest(t, children[0])); err != nil || len(rec.msgs) != 1 {
				t.Fatalf("a well-formed announcement after the refusal: %v, %d IWANTs", err, len(rec.msgs))
			}
		})
	}
}

// TestAnnounceRoundDrawsOnce: a round of notifications of two interactions
// with fanouts 3 and 2 draws 3 targets from the live view once. The first
// two peers get one IHAVE listing the whole round, the third one listing
// the fanout-3 interaction's notifications, each in queue order.
func TestAnnounceRoundDrawsOnce(t *testing.T) {
	ctx := context.Background()
	rec := &wireRecorder{}
	peers := []string{"mem://a", "mem://b", "mem://c", "mem://d", "mem://e"}
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://self", Caller: rec, RNG: rand.New(rand.NewSource(4)), Peers: gossip.NewStaticPeers(peers),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.DeferAnnouncements()
	wide := newInteractionState("urn:uuid:wide", ProtocolPushGossip, GossipParameters{Fanout: 3, Hops: 4})
	narrow := newInteractionState("urn:uuid:narrow", ProtocolPushGossip, GossipParameters{Fanout: 2, Hops: 4})
	for i, state := range []*interactionState{narrow, wide, narrow, wide} {
		d.spread(ctx, nil, notice{messageID: []byte(fmt.Sprint("urn:uuid:", i)), hops: 3}, state, announceTransfer)
	}
	d.TickAnnounce(ctx)
	if len(rec.msgs) != 3 {
		t.Fatalf("a round of 4 notifications at fanout ≤ 3 sent %d IHAVEs, want 3", len(rec.msgs))
	}
	got := announcedTo(t, rec.msgs, "mem://self")
	var whole, wideOnly int
	for to, ids := range got {
		switch {
		case slices.Equal(ids, []string{"urn:uuid:0", "urn:uuid:1", "urn:uuid:2", "urn:uuid:3"}):
			whole++
		case slices.Equal(ids, []string{"urn:uuid:1", "urn:uuid:3"}):
			wideOnly++
		default:
			t.Fatalf("%s was announced %q", to, ids)
		}
	}
	if whole != 2 || wideOnly != 1 {
		t.Fatalf("announced %v", got)
	}
}

// TestAnnounceRoundsAreAFunctionOfTheSeed: which peers a round's IHAVEs go
// to, and what each lists, is a function of the seed alone — from a live
// view and from two interactions' static lists (distinct ones, so which
// interaction draws first matters) — and a different seed draws differently.
func TestAnnounceRoundsAreAFunctionOfTheSeed(t *testing.T) {
	run := func(seed int64, view PeerView) []string {
		rec := &wireRecorder{}
		d, err := NewDisseminator(DisseminatorConfig{
			Address: "mem://self", Caller: rec, RNG: rand.New(rand.NewSource(seed)), Peers: view,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.DeferAnnouncements()
		var states []*interactionState
		for _, prefix := range []string{"mem://a", "mem://b"} {
			var targets []string
			for i := 0; i < 6; i++ {
				targets = append(targets, prefix+string(rune('0'+i)))
			}
			states = append(states, newInteractionState("urn:uuid:"+prefix, ProtocolPushGossip, GossipParameters{Fanout: 2 + len(states), Hops: 4, Targets: targets}))
		}
		ctx := context.Background()
		var log []string
		for round := 0; round < 50; round++ {
			for i := range round%4 + 1 {
				id := []byte(fmt.Sprintf("urn:uuid:%d-%d", round, i))
				d.spread(ctx, nil, notice{messageID: id, hops: 3}, states[(round+i)%2], announceTransfer)
			}
			d.TickAnnounce(ctx)
			for _, data := range rec.msgs {
				env, err := soap.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				ids, _, err := announcesFrom(env, nil)
				if err != nil {
					t.Fatal(err)
				}
				log = append(log, fmt.Sprintf("%s %q", env.Addressing().To, ids))
			}
			rec.msgs = nil
		}
		return log
	}
	var live []string
	for i := 0; i < 12; i++ {
		live = append(live, fmt.Sprint("mem://live", i))
	}
	for name, view := range map[string]PeerView{"static lists": nil, "live view": gossip.NewStaticPeers(live)} {
		t.Run(name, func(t *testing.T) {
			first, second := run(7, view), run(7, view)
			if !slices.Equal(first, second) {
				t.Fatalf("two runs at one seed differ:\n%q\n%q", first, second)
			}
			if slices.Equal(first, run(8, view)) {
				t.Fatal("two seeds drew the same 50 rounds")
			}
		})
	}
}

// TestAnnounceRoundConcurrentUse runs intercept, TickAnnounce and handleIHave
// at once on one deferred lazy-push node whose IHAVEs and IWANTs go over a
// MemBus (run with -race -cpu 1,2,4,8). Two producers deliver notifications,
// whose announcements intake queues while rounds take the queue and hand its
// buffers back, and IHAVEs for some of the same notifications arrive
// meanwhile. Once the last round has run, every notification has been
// announced exactly once: none lost to the hand-off between rounds, none
// sent twice, none dropped.
func TestAnnounceRoundConcurrentUse(t *testing.T) {
	ctx := context.Background()
	bus := soap.NewMemBus()
	var mu sync.Mutex
	announced := map[string]int{}
	bus.Register("mem://sink", soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
		ids, _, err := announcesFrom(req.Envelope, nil)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		for _, id := range ids {
			announced[string(id)]++
		}
		mu.Unlock()
		return nil, nil
	}))
	bus.Register("mem://holder", soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) { return nil, nil }))
	reg := metrics.NewRegistry()
	d, err := NewDisseminator(DisseminatorConfig{Address: "mem://node", Caller: bus, RNG: rand.New(rand.NewSource(1)), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	d.DeferAnnouncements()
	const interaction = "urn:uuid:concurrent"
	d.interactions[interaction] = newInteractionState(interaction, ProtocolPushGossip,
		GossipParameters{Fanout: 1, Hops: 3, Style: gossip.StyleLazyPush.String(), Targets: []string{"mem://sink"}})

	const producers, each = 2, 300
	notes := make([][][]byte, producers)
	var ihaves [][]byte
	for p := range notes {
		for i := range each {
			id := fmt.Sprintf("urn:uuid:n-%d-%d", p, i)
			notes[p] = append(notes[p], capturedNotification(t, GossipHeader{InteractionID: interaction, MessageID: id, Hops: 3}, "mem://node"))
			if i%10 == 0 {
				data, err := ihaveRequest(t, announceBlock(interaction, id, 2, "mem://holder")).Envelope.Encode()
				if err != nil {
					t.Fatal(err)
				}
				ihaves = append(ihaves, data)
			}
		}
	}
	// handle decodes data, which nothing recycles, and passes it to h.
	handle := func(h soap.HandlerFunc, data []byte) {
		env, err := soap.Decode(data)
		if err == nil {
			_, err = h(ctx, &soap.Request{Envelope: env})
		}
		if err != nil {
			t.Error(err)
		}
	}
	var producing, background sync.WaitGroup
	stop := make(chan struct{})
	for p := range notes {
		producing.Add(1)
		go func() {
			defer producing.Done()
			for _, data := range notes[p] {
				handle(d.intercept, data)
			}
		}()
	}
	producing.Add(1)
	go func() {
		defer producing.Done()
		for range 3 {
			for _, data := range ihaves {
				handle(d.handleIHave, data)
			}
		}
	}()
	background.Add(1)
	go func() {
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d.TickAnnounce(ctx)
			}
		}
	}()
	producing.Wait()
	close(stop)
	background.Wait()
	d.TickAnnounce(ctx)

	if dropped := reg.Counter("gossip_announce_dropped_total").Value(); dropped != 0 {
		t.Fatalf("%d announcements dropped", dropped)
	}
	if len(announced) != producers*each {
		t.Fatalf("%d notifications announced, want %d", len(announced), producers*each)
	}
	for id, n := range announced {
		if n != 1 {
			t.Fatalf("%s announced %d times", id, n)
		}
	}
}
