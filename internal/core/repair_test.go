package core

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/xml"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
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
	env, err := builtNotification(inter, "urn:uuid:lost-msg", quoteBody{Symbol: "RPR", Price: 7})
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
	if err := env.SetBody(Digest{Sender: "mem://b", Sums: base64.StdEncoding.EncodeToString(sumsOf("urn:uuid:lost-msg"))}); err != nil {
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
	env, err := builtNotification(inter, "urn:uuid:only-a", quoteBody{Symbol: "N2", Price: 2})
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

// SendEncoded records data as Send does the envelope it holds.
func (r *sendRecorder) SendEncoded(ctx context.Context, to string, data []byte) error {
	env, err := soap.Decode(data)
	if err != nil {
		return err
	}
	return r.Send(ctx, to, env)
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
			d.interactions[id] = newInteractionState(id, ProtocolPullGossip, GossipParameters{Fanout: 2, Hops: 4, Targets: targets})
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

// TestPullRoundsTakeEveryPullingStyle: a pull round draws from the
// interactions whose style pulls — WS-PullGossip and push-pull — and not from
// push or lazy-push ones, which only repair rounds reach.
func TestPullRoundsTakeEveryPullingStyle(t *testing.T) {
	rec := &sendRecorder{}
	d, err := NewDisseminator(DisseminatorConfig{Address: "mem://self", Caller: rec, RNG: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	for id, state := range map[string]*interactionState{
		"urn:uuid:pull":     newInteractionState("urn:uuid:pull", ProtocolPullGossip, GossipParameters{Fanout: 1, Targets: []string{"mem://pull"}}),
		"urn:uuid:pushpull": newInteractionState("urn:uuid:pushpull", ProtocolPushGossip, GossipParameters{Fanout: 1, Style: "pushpull", Targets: []string{"mem://pushpull"}}),
		"urn:uuid:push":     newInteractionState("urn:uuid:push", ProtocolPushGossip, GossipParameters{Fanout: 1, Targets: []string{"mem://push"}}),
		"urn:uuid:lazy":     newInteractionState("urn:uuid:lazy", ProtocolPushGossip, GossipParameters{Fanout: 1, Style: "lazypush", Targets: []string{"mem://lazy"}}),
	} {
		d.interactions[id] = state
	}
	d.TickPull(context.Background())
	want := []string{"mem://pull " + ActionPullRequest, "mem://pushpull " + ActionPullRequest}
	if !slices.Equal(rec.sends, want) {
		t.Fatalf("pull round sent %q, want %q", rec.sends, want)
	}
}

// retransmitRecorder is a caller that records, in order, the gossip
// MessageID and the destination of every notification sent through it, and
// delivers nothing.
type retransmitRecorder struct {
	mu  sync.Mutex
	ids []string
	to  []string
}

func (r *retransmitRecorder) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}

func (r *retransmitRecorder) Send(_ context.Context, to string, env *soap.Envelope) error {
	gh, err := GossipHeaderFrom(env)
	if err != nil {
		return nil // not a notification: a forward's fan-out, an IHAVE
	}
	r.mu.Lock()
	r.ids = append(r.ids, gh.MessageID)
	r.to = append(r.to, to)
	r.mu.Unlock()
	return nil
}

// SendEncoded records data as Send does the envelope it holds.
func (r *retransmitRecorder) SendEncoded(ctx context.Context, to string, data []byte) error {
	env, err := soap.Decode(data)
	if err != nil {
		return err
	}
	return r.Send(ctx, to, env)
}

// take returns the IDs recorded for destination to since the last take.
func (r *retransmitRecorder) take(to string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var got, keepIDs, keepTo []string
	for i, id := range r.ids {
		if r.to[i] == to {
			got = append(got, id)
		} else {
			keepIDs, keepTo = append(keepIDs, id), append(keepTo, r.to[i])
		}
	}
	r.ids, r.to = keepIDs, keepTo
	return got
}

// newDigestResponder builds one disseminator sending into a recorder.
func newDigestResponder(t testing.TB, storeSize int) (*Disseminator, *retransmitRecorder) {
	t.Helper()
	rec := &retransmitRecorder{}
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://responder", Caller: rec, RNG: rand.New(rand.NewSource(1)), StoreSize: storeSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, rec
}

// storeNotification puts a gossiped notification with the given ID into d's
// store, as intercept does on a first receipt.
func storeNotification(t testing.TB, d *Disseminator, id string) {
	t.Helper()
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{MessageID: wsa.MessageID(id)}); err != nil {
		t.Fatal(err)
	}
	if err := SetGossipHeader(env, GossipHeader{InteractionID: "urn:uuid:i", Hops: 3}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(quoteBody{Symbol: "DIG", Price: 1}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.m.Hold(gossip.IDSum(id), storedOf(env))
	d.mu.Unlock()
}

// storedOf is a store slot holding a copy of env, as a first receipt keeps
// it.
func storedOf(env *soap.Envelope) *stored {
	s := new(stored)
	s.Retain(env, xml.Name{})
	return s
}

// receivedRequest is a digest-style request as the responder receives it:
// encoded, then decoded from a buffer of its own — which is returned too, so
// a test can recycle it — so the body is a view of that buffer exactly as on
// the MemBus and HTTP receive paths.
func receivedRequest(t testing.TB, action string, body []byte) (*soap.Request, []byte) {
	name := digestName
	if action == ActionPullRequest {
		name = pullName
	}
	t.Helper()
	out := soap.NewEnvelope()
	if err := out.SetAddressing(addressingFor("mem://responder", action)); err != nil {
		t.Fatal(err)
	}
	out.SetBodyBlock(soap.Block{XMLName: name, Raw: body})
	wire, err := out.Encode()
	if err != nil {
		t.Fatal(err)
	}
	env, err := soap.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	return &soap.Request{Envelope: env}, wire
}

// respell returns a spelling of a canonical digest body that encoding/xml
// decodes to the same value and the in-place reader declines: a line break
// between every pair of tags, except inside an empty <Sums>, the one text
// these tests leave empty.
func respell(canonical []byte) []byte {
	spelled := bytes.ReplaceAll(canonical, []byte("><"), []byte(">\n<"))
	return bytes.ReplaceAll(spelled, []byte("<Sums>\n</Sums>"), []byte("<Sums></Sums>"))
}

// TestDigestResponderMatchesAcrossSpellings drives one disseminator with
// random store contents — fewer than, exactly and more than gossip.DigestCap
// entries, with and without eviction — and random digests (subsets,
// supersets, duplicates, unknown and escaped IDs, the empty digest, truncated
// or not), each sent as the canonical body the in-place reader takes and as a
// spelling that forces the encoding/xml fallback. Both must produce the
// retransmission sequence of the reference model, an ID-set oracle — stored
// IDs newest first, minus the digest's, stopped at a truncated digest's
// oldest listed ID, cut at the limit — and move the counters by its length.
func TestDigestResponderMatchesAcrossSpellings(t *testing.T) {
	rng := rand.New(rand.NewSource(20081201))
	ctx := context.Background()
	storeSizes := []int{64, gossip.DigestCap, 200}
	fills := []int{0, 1, 40, gossip.DigestCap - 1, gossip.DigestCap, gossip.DigestCap + 1, 150, 260}
	maxes := []int{0, -4, 1, 5, gossip.DigestCap, gossip.DigestCap + 300}
	for trial := 0; trial < 72; trial++ {
		storeSize := storeSizes[trial%len(storeSizes)]
		fill := fills[rng.Intn(len(fills))]
		d, rec := newDigestResponder(t, storeSize)
		var stored []string // oldest first, after eviction
		for i := 0; i < fill; i++ {
			id := fmt.Sprintf("urn:uuid:%d-%04d", trial, i)
			if i%17 == 3 {
				id += "&<escaped>" // travels as entity references
			}
			storeNotification(t, d, id)
			stored = append(stored, id)
		}
		if len(stored) > storeSize {
			stored = stored[len(stored)-storeSize:]
		}
		for round := 0; round < 4; round++ {
			// The digest: each stored ID with probability p (0: the empty
			// digest; 1: everything, a superset once the unknowns join),
			// some unknown IDs, some duplicates.
			p := []float64{0, 0.3, 0.9, 1}[rng.Intn(4)]
			var ids []string
			for _, id := range stored {
				if rng.Float64() < p {
					ids = append(ids, id)
				}
			}
			if p > 0 {
				for k := rng.Intn(4); k > 0; k-- {
					ids = append(ids, fmt.Sprintf("urn:uuid:unknown-%d", rng.Int()))
				}
				for k := rng.Intn(3); k > 0 && len(ids) > 0; k-- {
					ids = append(ids, ids[rng.Intn(len(ids))])
				}
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			}
			ids = ids[:min(len(ids), gossip.DigestCap)]
			held := map[string]bool{}
			for _, id := range ids {
				held[id] = true
			}
			truncated := rng.Intn(3) == 0
			pull := rng.Intn(2) == 0
			max := maxes[rng.Intn(len(maxes))]
			limit := gossip.DigestCap
			if pull && max > 0 && max < gossip.DigestCap {
				limit = max
			}
			var want []string
			for i := len(stored) - 1; i >= 0 && len(want) < limit; i-- {
				if truncated && len(ids) > 0 && stored[i] == ids[len(ids)-1] {
					break
				}
				if !held[stored[i]] {
					want = append(want, stored[i])
				}
			}

			action, body, handle := ActionDigest, digestBlock("mem://peer", sumsOf(ids...), truncated).Raw, d.handleDigest
			counter := func() int64 { return d.Stats().Repaired }
			if pull {
				action, body, handle = ActionPullRequest, pullRequestBlock("mem://peer", sumsOf(ids...), truncated, max).Raw, d.handlePullRequest
				counter = func() int64 { return d.Stats().PullServed }
			}
			for i, spelling := range [][]byte{body, respell(body)} {
				canonical := i == 0
				req, _ := receivedRequest(t, action, spelling)
				// Which path serves it is decided on the bytes as received.
				if okDigest, okPull := checkDigestReaders(t, req.Envelope.Body.Blocks[0].Raw); (okDigest || okPull) != canonical {
					t.Fatalf("in-place readers accepted=%v, canonical=%v: %.200s", okDigest || okPull, canonical, spelling)
				}
				before := counter()
				if _, err := handle(ctx, req); err != nil {
					t.Fatalf("trial %d round %d (pull=%v canonical=%v): %v", trial, round, pull, canonical, err)
				}
				if got := rec.take("mem://peer"); !slices.Equal(got, want) {
					t.Fatalf("trial %d round %d (store %d/%d, digest %d ids, truncated=%v pull=%v max=%d, canonical=%v):\n got %q\nwant %q",
						trial, round, len(stored), storeSize, len(ids), truncated, pull, max, canonical, got, want)
				}
				if moved := counter() - before; moved != int64(len(want)) {
					t.Fatalf("trial %d round %d: counter moved %d, want %d", trial, round, moved, len(want))
				}
			}
		}
	}
}

// TestDigestNeverAliasesReceiveBuffer: the transport recycles a digest's
// buffer as soon as the handler returns. Nothing the responder keeps — the
// store's keys and marks, the sender it retransmitted to — may still point
// into it, so a later digest is answered from intact state.
func TestDigestNeverAliasesReceiveBuffer(t *testing.T) {
	ctx := context.Background()
	for _, pull := range []bool{false, true} {
		d, rec := newDigestResponder(t, 16)
		ids := []string{"urn:uuid:alias-1", "urn:uuid:alias&2", "urn:uuid:alias-3", "urn:uuid:alias-4"}
		for _, id := range ids {
			storeNotification(t, d, id)
		}
		send := func(held []string) []byte {
			action, body, handle := ActionDigest, digestBlock("mem://peer", sumsOf(held...), false).Raw, d.handleDigest
			if pull {
				action, body, handle = ActionPullRequest, pullRequestBlock("mem://peer", sumsOf(held...), false, 8).Raw, d.handlePullRequest
			}
			req, wire := receivedRequest(t, action, body)
			if _, err := handle(ctx, req); err != nil {
				t.Fatal(err)
			}
			return wire
		}
		wire := send(ids[:2]) // the peer holds the two oldest
		rec.mu.Lock()
		to := append([]string(nil), rec.to...)
		rec.mu.Unlock()
		for i := range wire {
			wire[i] = '#' // the delivery is over: the buffer goes back to the pool
		}
		for _, dest := range to {
			if dest != "mem://peer" {
				t.Fatalf("pull=%v: recorded destination changed with the buffer: %q", pull, dest)
			}
		}
		if got, want := rec.take("mem://peer"), []string{ids[3], ids[2]}; !slices.Equal(got, want) {
			t.Fatalf("pull=%v: first digest retransmitted %q, want %q", pull, got, want)
		}
		// A later digest, listing different IDs, sees neither the first
		// one's marks nor anything of its buffer.
		send([]string{ids[3], ids[1]})
		if got, want := rec.take("mem://peer"), []string{ids[2], ids[0]}; !slices.Equal(got, want) {
			t.Fatalf("pull=%v: later digest retransmitted %q, want %q", pull, got, want)
		}
		for _, id := range ids {
			if _, ok := d.m.Get(gossip.IDSum(id)); !ok {
				t.Fatalf("pull=%v: store lost %q", pull, id)
			}
		}
	}
}

// TestConcurrentDigestsPullsAndNotifies runs handleDigest, handlePullRequest
// and intercept concurrently on one node (run with -race). Every digest's
// marks live in one critical section, so whatever else runs, a responder
// never retransmits an ID the digest listed and always retransmits the
// stored IDs it did not.
func TestConcurrentDigestsPullsAndNotifies(t *testing.T) {
	d, rec := newDigestResponder(t, 256) // holds everything below: nothing is evicted or cut at gossip.DigestCap
	// Pull: stored, never forwarded.
	d.interactions["urn:uuid:i"] = newInteractionState("urn:uuid:i", ProtocolPullGossip, GossipParameters{Fanout: 2, Hops: 3})
	var base []string
	for i := 0; i < 24; i++ {
		base = append(base, fmt.Sprintf("urn:uuid:base-%02d", i))
		storeNotification(t, d, base[i])
	}
	ctx := context.Background()
	const workers, rounds = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() { // digests and pull requests, each worker its own peer and its own held set
			defer wg.Done()
			peer := fmt.Sprintf("mem://peer-%d", w)
			held, missing := base[:6*w], base[6*w:] // worker w lacks the newest 24-6w
			for r := 0; r < rounds; r++ {
				action, body, handle := ActionDigest, digestBlock(peer, sumsOf(held...), false).Raw, d.handleDigest
				if r%2 == 1 {
					action, body, handle = ActionPullRequest, pullRequestBlock(peer, sumsOf(held...), false, gossip.DigestCap).Raw, d.handlePullRequest
				}
				if r%4 >= 2 {
					body = respell(body)
				}
				req, wire := receivedRequest(t, action, body)
				if _, err := handle(ctx, req); err != nil {
					t.Error(err)
					return
				}
				for i := range wire {
					wire[i] = '#'
				}
				got := map[string]bool{}
				for _, id := range rec.take(peer) {
					got[id] = true
				}
				for _, id := range held {
					if got[id] {
						t.Errorf("worker %d round %d: retransmitted %s, which its digest listed", w, r, id)
						return
					}
				}
				for _, id := range missing {
					if !got[id] {
						t.Errorf("worker %d round %d: did not retransmit %s", w, r, id)
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() { // first receipts, growing the store under the digests
			defer wg.Done()
			for r := 0; r < rounds/2; r++ {
				gh := GossipHeader{InteractionID: "urn:uuid:i", MessageID: fmt.Sprintf("urn:uuid:live-%d-%02d", w, r), Hops: 3, Protocol: ProtocolPullGossip}
				env, err := soap.Decode(capturedNotification(t, gh, "mem://responder"))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := d.intercept(ctx, &soap.Request{Envelope: env}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := d.Stats().Delivered, int64(workers*rounds/2); got != want {
		t.Fatalf("delivered %d notifications, want %d", got, want)
	}
}

// TestTruncatedDigestEndsTheRepairStorm: two disseminators with StoreSize
// 1024 hold the same 300 notifications. B's repair digest lists its newest
// gossip.DigestCap sums and says it holds more, so A serves only what is newer, in
// its own store, than the oldest sum listed: nothing. (While a digest could
// not say so, everything older than the 128 listed looked missing and A
// retransmitted 128 duplicates per digest.) A notification newer than that
// watermark which B lacks is still served.
func TestTruncatedDigestEndsTheRepairStorm(t *testing.T) {
	ctx := context.Background()
	bus := soap.NewMemBus()
	nodes := map[string]*Disseminator{}
	apps := map[string]*CollectingApp{}
	for i, addr := range []string{"mem://a", "mem://b"} {
		apps[addr] = NewCollectingApp()
		d, err := NewDisseminator(DisseminatorConfig{
			Address: addr, Caller: bus, App: apps[addr], RNG: rand.New(rand.NewSource(int64(i) + 1)), StoreSize: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, d.Handler())
		nodes[addr] = d
	}
	a, b := nodes["mem://a"], nodes["mem://b"]
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("urn:uuid:storm-%03d", i)
		storeNotification(t, a, id)
		storeNotification(t, b, id)
	}
	b.interactions["urn:uuid:i"] = newInteractionState("urn:uuid:i", ProtocolPushGossip,
		GossipParameters{Fanout: 1, Hops: 3, Targets: []string{"mem://a"}})

	b.TickRepair(ctx)
	if got := b.Stats().DigestsSent; got != 1 {
		t.Fatalf("B sent %d digests, want 1", got)
	}
	if got := a.Stats().Repaired; got != 0 {
		t.Fatalf("A retransmitted %d notifications B holds, want 0", got)
	}

	storeNotification(t, a, "urn:uuid:storm-late")
	b.TickRepair(ctx)
	if got := a.Stats().Repaired; got != 1 {
		t.Fatalf("A retransmitted %d, want the 1 notification B lacks", got)
	}
	if got := apps["mem://b"].Count(); got != 1 {
		t.Fatalf("B delivered %d, want the late notification", got)
	}
}

// TestOversizedDigestIsRefused: one Digest listing 10,000 sums, far past
// gossip.DigestCap, is answered with a Sender fault, and the responder sends
// nothing.
func TestOversizedDigestIsRefused(t *testing.T) {
	d, rec := newDigestResponder(t, gossip.DigestCap)
	storeNotification(t, d, "urn:uuid:held")
	req, _ := receivedRequest(t, ActionDigest, digestBlock("mem://peer", make([]byte, 8*10000), false).Raw)
	_, err := d.handleDigest(context.Background(), req)
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Code.Value != soap.CodeSender {
		t.Fatalf("a 10,000-sum digest was answered with %v, want a Sender fault", err)
	}
	if sent := rec.take("mem://peer"); len(sent) != 0 || d.Stats().Repaired != 0 {
		t.Fatalf("the responder retransmitted %q", sent)
	}
}
