package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/testkit"
	"wsgossip/internal/wsa"
)

// Allocation-budget regression guards for the per-hop gossip path, the
// companions of internal/soap's decode budget: the per-hop cost the paper's
// scalability argument rests on must not silently regress. The budgets are
// committed in testdata/alloc_budget.json; CI runs these tests (and the
// -benchmem bench smoke) on every push.

type allocBudget struct {
	ForwardFanoutF8   float64 `json:"forward_fanout_f8_max_allocs"`
	DuplicateReceipt  float64 `json:"duplicate_receipt_max_allocs"`
	DuplicateDelivery float64 `json:"duplicate_delivery_membus_max_allocs"`
	GossipHeaderFrom  float64 `json:"gossip_header_from_max_allocs"`
	ForwardHeaders    float64 `json:"forward_headers_max_allocs"`
	DigestReceipt     float64 `json:"digest_receipt_nothing_missing_max_allocs"`
	DigestEnvelope    float64 `json:"tick_repair_digest_envelope_max_allocs"`
	TickPull          float64 `json:"tick_pull_max_allocs"`
	IHaveHeld         float64 `json:"ihave_held_max_allocs"`
	IWantServe        float64 `json:"iwant_serve_max_allocs"`
	DigestOneMissing  float64 `json:"digest_receipt_one_missing_max_allocs"`
	FirstReceipt      float64 `json:"first_receipt_known_interaction_max_allocs"`
	IHaveAnnounce     float64 `json:"ihave_announce_f8_max_allocs"`
	IWantSend         float64 `json:"iwant_send_max_allocs"`
	AnnounceRound     float64 `json:"announce_round4_f8_max_allocs"`
	IHaveRoundHeld    float64 `json:"ihave_round4_held_max_allocs"`
	InitiatorNotify   float64 `json:"initiator_notify_f4_max_allocs"`
}

func checkAllocBudget(t *testing.T, what string, allocs, budget float64) {
	t.Helper()
	if allocs > budget {
		t.Errorf("%s = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)", what, allocs, budget)
	}
	t.Logf("%s: %.1f allocs/op (budget %.0f)", what, allocs, budget)
}

func TestForwardFanoutAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	fb := newForwardBench(t, 8, 1<<10)
	allocs := testing.AllocsPerRun(100, func() {
		fb.d.spread(fb.ctx, fb.env, fb.n, fb.state, pushTransfer)
	})
	if stats := fb.d.Stats(); stats.Forwarded == 0 || stats.SendErrors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "forward fanout-8", allocs, budget.ForwardFanoutF8)
}

// firstReceiptSeen is the seen-cache size of firstReceipts' node.
const firstReceiptSeen = 64

// firstReceipts is a node that knows one push interaction, forwarding to one
// peer through dropCaller, and a ring of notifications of that interaction,
// each decoded from a buffer of its own as on the MemBus and HTTP receive
// paths. receive takes the next one through intercept. The ring is twice the
// seen cache, which evicts each notification before it comes round again, so
// every receipt is a first one; the ring has gone round once on return, so
// the seen cache and the store are full, and each receipt refills the slot of
// the entry it evicts.
func firstReceipts(tb testing.TB) (d *Disseminator, receive func()) {
	tb.Helper()
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://self", Caller: dropCaller{}, RNG: rand.New(rand.NewSource(1)),
		SeenCacheSize: firstReceiptSeen, StoreSize: 16,
	})
	if err != nil {
		tb.Fatal(err)
	}
	const interaction = "urn:bench:interaction"
	d.interactions[interaction] = newInteractionState(interaction, ProtocolPushGossip, GossipParameters{Fanout: 1, Hops: 4, Targets: []string{"mem://peer"}})
	reqs := make([]*soap.Request, 2*firstReceiptSeen)
	for i := range reqs {
		gh := GossipHeader{InteractionID: interaction, MessageID: string(wsa.NewMessageID()), Hops: 4}
		env := soap.NewEnvelope()
		if err := env.SetAddressing(wsa.Headers{To: "mem://self", Action: ActionNotify, MessageID: wsa.MessageID(gh.MessageID)}); err != nil {
			tb.Fatal(err)
		}
		if err := SetGossipHeader(env, gh); err != nil {
			tb.Fatal(err)
		}
		if err := env.SetBody(benchNote{Data: strings.Repeat("x", 256)}); err != nil {
			tb.Fatal(err)
		}
		wire, err := env.Encode()
		if err != nil {
			tb.Fatal(err)
		}
		if env, err = soap.Decode(wire); err != nil {
			tb.Fatal(err)
		}
		reqs[i] = &soap.Request{Envelope: env}
	}
	next := 0
	receive = func() {
		if _, err := d.intercept(context.Background(), reqs[next%len(reqs)]); err != nil {
			tb.Fatal(err)
		}
		next++
	}
	for range reqs {
		receive()
	}
	return d, receive
}

// TestFirstReceiptAllocBudget: the path every delivery pays — intercept
// taking a notification of a known interaction it has not seen — reads the
// header in place and builds no MessageID. The store is full, so what it
// keeps refills the slot of the entry it evicts and allocates nothing; the
// target is drawn on the stack, and the forward written from the received
// blocks into the pooled template, so the one allocation is the rendered
// copy, which this binding drops where a transport would recycle it.
func TestFirstReceiptAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	d, receive := firstReceipts(t)
	d.mu.Lock()
	evictee, full := d.m.Evictee()
	d.mu.Unlock()
	receive()
	d.mu.Lock()
	newest := d.m.Missing(nil, nil, false, 1)
	d.mu.Unlock()
	if !full || len(newest) != 1 || newest[0] != evictee {
		t.Fatalf("the receipt did not refill the evicted slot (store full %v)", full)
	}
	allocs := testing.AllocsPerRun(100, receive)
	if stats := d.Stats(); stats.Delivered != 2*firstReceiptSeen+102 || stats.Duplicates != 0 || stats.Forwarded != stats.Delivered {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "first receipt of a known interaction", allocs, budget.FirstReceipt)
}

func BenchmarkFirstReceipt(b *testing.B) {
	_, receive := firstReceipts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		receive()
	}
}

// TestDuplicateReceiptAllocBudget: three receipts in four are duplicates
// (core.dup_share on mem-push-64), and a duplicate must cost the gossip
// layer no allocation at all — the header is read in place and the seen
// cache asked with the sum of the MessageID bytes.
func TestDuplicateReceiptAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	fb := newForwardBench(t, 8, 1<<10)
	req := &soap.Request{Envelope: fb.receivedNotification(t)}
	fb.d.interactions[fb.gh.InteractionID] = fb.state
	if _, err := fb.d.intercept(fb.ctx, req); err != nil { // first receipt
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := fb.d.intercept(fb.ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if stats := fb.d.Stats(); stats.Delivered != 1 || stats.Duplicates < 100 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "duplicate receipt", allocs, budget.DuplicateReceipt)
}

// TestDuplicateDeliveryAllocBudget: the same duplicate through the whole
// one-way receive path — MemBus decode, Dispatcher on the action, intercept,
// the buffer and the decoded request back to their pools — allocates nothing.
func TestDuplicateDeliveryAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	fb := newForwardBench(t, 8, 1<<10)
	deliver := fb.duplicateDelivery(t)
	allocs := testing.AllocsPerRun(100, deliver)
	if stats := fb.d.Stats(); stats.Delivered != 1 || stats.Duplicates < 100 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "duplicate delivery over MemBus", allocs, budget.DuplicateDelivery)
}

func TestGossipHeaderFromAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	fb := newForwardBench(t, 8, 1<<10)
	env := fb.receivedNotification(t)
	allocs := testing.AllocsPerRun(100, func() {
		if gh, err := GossipHeaderFrom(env); err != nil || gh.MessageID != fb.gh.MessageID {
			t.Fatalf("header = %+v, %v", gh, err)
		}
	})
	checkAllocBudget(t, "GossipHeaderFrom", allocs, budget.GossipHeaderFrom)
}

func TestForwardHeadersAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	fb := newForwardBench(t, 8, 1<<10)
	env := fb.receivedNotification(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := forwardHeaders(env, fb.gh); err != nil {
			t.Fatal(err)
		}
	})
	checkAllocBudget(t, "Snapshot+SetGossipHeader+SetAddressing", allocs, budget.ForwardHeaders)
}

// asWritten leaves a digest body as the writer spelled it.
func asWritten(body []byte) []byte { return body }

// fullDigestResponder is a responder holding gossip.DigestCap notifications and a
// received repair digest listing all of them — the round with nothing to say
// — spelled by spell (asWritten, or respell to force the fallback).
func fullDigestResponder(t testing.TB, spell func([]byte) []byte) (*Disseminator, *soap.Request) {
	t.Helper()
	d, _ := newDigestResponder(t, gossip.DigestCap)
	for i := 0; i < gossip.DigestCap; i++ {
		storeNotification(t, d, string(wsa.NewMessageID()))
	}
	req, _ := receivedRequest(t, ActionDigest, spell(digestBlock("mem://peer", heldSumsOf(d), false).Raw))
	return d, req
}

// heldSumsOf is the sum list d's next digest carries.
func heldSumsOf(d *Disseminator) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	sums, _ := d.m.Digest(nil)
	return sums
}

// TestDigestReceiptAllocBudget: almost every repair digest finds nothing
// missing, and then it must cost the responder nothing however many sums it
// lists: the sender's address resolves through the intern table, and the
// sums are decoded and sorted in scratch on the stack.
func TestDigestReceiptAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	d, req := fullDigestResponder(t, asWritten)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.handleDigest(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	if stats := d.Stats(); stats.Repaired != 0 || stats.SendErrors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "128-sum digest receipt, nothing missing", allocs, budget.DigestReceipt)
}

// TestDigestOneMissingAllocBudget: a repair digest that misses one stored
// notification costs the responder that one retransmission — the re-headed
// copy, whose header is read with the ID its store slot holds and the
// InteractionID its interaction state holds, rendered once for a binding that
// drops it — and nothing per listed sum: the missing list is collected on the
// stack.
func TestDigestOneMissingAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	d, _ := newDigestResponder(t, gossip.DigestCap)
	for i := 0; i < gossip.DigestCap; i++ {
		storeNotification(t, d, string(wsa.NewMessageID()))
	}
	d.cfg.Caller = dropCaller{}
	d.interactions["urn:uuid:i"] = newInteractionState("urn:uuid:i", ProtocolPushGossip, GossipParameters{Fanout: 1, Hops: 3})
	req, _ := receivedRequest(t, ActionDigest, digestBlock("mem://peer", heldSumsOf(d)[8:], false).Raw)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.handleDigest(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	if stats := d.Stats(); stats.Repaired < 100 || stats.SendErrors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "128-sum digest receipt, one missing", allocs, budget.DigestOneMissing)
}

// digestRounds is a node holding 128 notifications in n pulling
// interactions, each with two peers of its own, on a MemBus whose handlers do
// nothing, so each round sends every interaction's peers a digest the bus
// recycles.
func digestRounds(tb testing.TB, n int) *Disseminator {
	d, _ := fullDigestResponder(tb, asWritten)
	bus := soap.NewMemBus()
	noop := soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) {
		return nil, nil
	})
	for i := range n {
		id := fmt.Sprint("urn:uuid:round-", i)
		targets := []string{fmt.Sprint("mem://a", i), fmt.Sprint("mem://b", i)}
		for _, peer := range targets {
			bus.Register(peer, noop)
		}
		d.interactions[id] = newInteractionState(id, ProtocolPullGossip, GossipParameters{Fanout: 2, Hops: 3, Targets: targets})
	}
	d.cfg.Caller = bus
	return d
}

// checkDigestRound holds a round of d's, run 101 times, to its budget: with n
// interactions it sends 2n digests.
func checkDigestRound(t *testing.T, name string, n int, round func(context.Context), sent func() int64, budget float64) {
	t.Helper()
	allocs := testing.AllocsPerRun(100, func() { round(context.Background()) })
	if got := sent(); got != int64(101*2*n) {
		t.Fatalf("%d digests sent, want %d", got, 101*2*n)
	}
	checkAllocBudget(t, fmt.Sprintf("%s of 128 sums, %d interactions", name, n), allocs, budget)
}

// TestDigestEnvelopeAllocBudget: a TickRepair round with 1 and 4
// interactions. The sums are written from the store into scratch on the
// stack, the interactions visited in the sorted order kept since the last
// was added, their targets drawn into scratch on the stack, and the digest
// written once, with its message ID, straight into a pooled wire buffer and
// rendered per target.
func TestDigestEnvelopeAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	for _, n := range []int{1, 4} {
		d := digestRounds(t, n)
		checkDigestRound(t, "TickRepair", n, d.TickRepair, func() int64 { return d.Stats().DigestsSent }, budget.DigestEnvelope)
	}
}

// TestTickPullAllocBudget: a TickPull round, likewise.
func TestTickPullAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	for _, n := range []int{1, 4} {
		d := digestRounds(t, n)
		checkDigestRound(t, "TickPull", n, d.TickPull, func() int64 { return d.Stats().PullsSent }, budget.TickPull)
	}
}

func BenchmarkTickRepairDigest(b *testing.B) {
	d := digestRounds(b, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.TickRepair(ctx)
	}
}

// dropCaller is a binding whose sends go nowhere: it drops each buffer it is
// handed where a transport would recycle it.
type dropCaller struct{}

func (dropCaller) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}
func (dropCaller) Send(context.Context, string, *soap.Envelope) error { return nil }
func (dropCaller) SendEncoded(context.Context, string, []byte) error  { return nil }

// lazyResponder is a node holding one notification, and a received IHAVE
// announcing it, a received IHAVE announcing one it does not hold, and a
// received IWANT asking for the one it holds, each decoded from a buffer of
// its own as on the MemBus and HTTP receive paths. The node sends through a
// MemBus on which the holder and the requester are no-op handlers, so what
// it sends is recycled as a transport would.
func lazyResponder(t testing.TB) (d *Disseminator, ihave, ihaveNew, iwant *soap.Request) {
	t.Helper()
	bus := soap.NewMemBus()
	noop := soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) {
		return nil, nil
	})
	bus.Register("mem://holder", noop)
	bus.Register("mem://requester", noop)
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://responder", Caller: bus, RNG: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := string(wsa.NewMessageID())
	storeNotification(t, d, id)
	d.m.Receive(gossip.IDSum(id), false)
	d.interactions["urn:uuid:i"] = newInteractionState("urn:uuid:i", ProtocolPushGossip, GossipParameters{Fanout: 1, Hops: 3, Style: "lazypush"})
	received := func(action string, body soap.Block) *soap.Request {
		out := soap.NewEnvelope()
		if err := out.SetAddressing(addressingFor("mem://responder", action)); err != nil {
			t.Fatal(err)
		}
		out.SetBodyBlock(body)
		wire, err := out.Encode()
		if err != nil {
			t.Fatal(err)
		}
		env, err := soap.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		return &soap.Request{Envelope: env}
	}
	ihave = received(ActionIHave, announceOf(Announce{InteractionID: "urn:uuid:i", MessageID: id, Hops: 2, Holder: "mem://holder"}))
	ihaveNew = received(ActionIHave, announceOf(Announce{InteractionID: "urn:uuid:i", MessageID: newID, Hops: 2, Holder: "mem://holder"}))
	iwant = received(ActionIWant, fetchOf(Fetch{MessageID: id, Requester: "mem://requester"}))
	return d, ihave, ihaveNew, iwant
}

// newID is the notification lazyResponder's node does not hold.
const newID = "urn:uuid:not-held"

// fetchNew is handleIHave on an announcement of a notification the node does
// not hold: it sends the holder an IWANT. The fetch is then released, so
// the next announcement asks again.
func fetchNew(tb testing.TB, d *Disseminator, ihaveNew *soap.Request) {
	if _, err := d.handleIHave(context.Background(), ihaveNew); err != nil {
		tb.Fatal(err)
	}
	d.mu.Lock()
	d.m.Release(gossip.IDSum(newID))
	d.mu.Unlock()
}

// TestIHaveHeldAllocBudget: most announcements name a notification the node
// already holds, and such an IHAVE costs nothing — the seen cache is asked
// with the sum of the announced ID where it lies in the receive buffer.
func TestIHaveHeldAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	d, ihave, _, _ := lazyResponder(t)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.handleIHave(context.Background(), ihave); err != nil {
			t.Fatal(err)
		}
	})
	if stats := d.Stats(); stats.Fetched != 0 || stats.Duplicates < 100 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "IHAVE for a held notification", allocs, budget.IHaveHeld)
}

// TestIWantServeAllocBudget: serving an IWANT looks the requested ID's sum up
// and writes the stored copy, re-headed with the MessageID read in place from
// its header and the InteractionID its interaction state holds, into a
// pooled template, so what it costs, through a binding that drops what it is
// sent, is the one rendered copy a transport would recycle.
func TestIWantServeAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	d, _, _, iwant := lazyResponder(t)
	d.cfg.Caller = dropCaller{}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.handleIWant(context.Background(), iwant); err != nil {
			t.Fatal(err)
		}
	})
	if stats := d.Stats(); stats.Served < 100 || stats.SendErrors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "IWANT served", allocs, budget.IWantServe)
}

func BenchmarkIHaveHeld(b *testing.B) {
	d, ihave, _, _ := lazyResponder(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.handleIHave(context.Background(), ihave); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIWantServe(b *testing.B) {
	d, _, _, iwant := lazyResponder(b)
	d.cfg.Caller = dropCaller{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.handleIWant(context.Background(), iwant); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIWantSendAllocBudget: an announcement of a notification the node does
// not hold is answered with an IWANT, its message ID and body written from
// the announced ID as it lies in the receive buffer straight into a pooled
// wire buffer, which the bus recycles.
func TestIWantSendAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	d, _, ihaveNew, _ := lazyResponder(t)
	allocs := testing.AllocsPerRun(100, func() { fetchNew(t, d, ihaveNew) })
	if stats := d.Stats(); stats.Fetched != 101 || stats.SendErrors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "IWANT sent", allocs, budget.IWantSend)
}

func BenchmarkIWantSend(b *testing.B) {
	d, _, ihaveNew, _ := lazyResponder(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetchNew(b, d, ihaveNew)
	}
}

// announceTransfer is the machine's decision for a lazy-push receipt.
var announceTransfer = gossip.Transfer{Send: gossip.SendAnnounce}

// TestIHaveAnnounceAllocBudget: a lazy-push transfer to 8 peers over MemBus.
// The targets are drawn on the stack, and the IHAVE — its message ID and
// its body, naming the notification with the ID it was received under — is
// written once straight into a pooled template and rendered per peer into
// pooled buffers the bus recycles.
func TestIHaveAnnounceAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	fb := newForwardBench(t, 8, 1<<10)
	allocs := testing.AllocsPerRun(100, func() {
		fb.d.spread(fb.ctx, nil, fb.n, fb.state, announceTransfer)
	})
	if stats := fb.d.Stats(); stats.Announced != 8*101 || stats.SendErrors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "IHAVE announced to 8 peers", allocs, budget.IHaveAnnounce)
}

func BenchmarkIHaveAnnounce(b *testing.B) {
	fb := newForwardBench(b, 8, 1<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.d.spread(fb.ctx, nil, fb.n, fb.state, announceTransfer)
	}
}

// TestAnnounceRoundAllocBudget: an announce round of 4 notifications at
// fanout 8 over MemBus. Queueing copies each ID into the round's arena, the
// round's targets are drawn once into its buffer, and each peer's IHAVE —
// one Announce child per notification — is written once straight into a
// pooled template and rendered per peer into pooled buffers the bus
// recycles: 8 envelopes, not 32. The round's buffers are handed back and
// refilled by the next.
func TestAnnounceRoundAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	fb := newForwardBench(t, 8, 1<<10)
	round := announceRoundOf(fb, 4)
	allocs := testing.AllocsPerRun(100, round)
	if stats := fb.d.Stats(); stats.Announced != 8*101 || stats.SendErrors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "announce round of 4 to 8 peers", allocs, budget.AnnounceRound)
}

func BenchmarkAnnounceRound(b *testing.B) {
	fb := newForwardBench(b, 8, 1<<10)
	round := announceRoundOf(fb, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// announceRoundOf defers fb's announcements and returns one round: n
// notifications of fb's interaction queued, then announced.
func announceRoundOf(fb *forwardBench, n int) func() {
	fb.d.DeferAnnouncements()
	notices := make([]notice, n)
	for i := range notices {
		notices[i] = notice{messageID: []byte(string(wsa.NewMessageID())), hops: 4}
	}
	return func() {
		for _, n := range notices {
			fb.d.spread(fb.ctx, nil, n, fb.state, announceTransfer)
		}
		fb.d.TickAnnounce(fb.ctx)
	}
}

// TestIHaveRoundHeldAllocBudget: an IHAVE listing 4 notifications the node
// already holds costs nothing — the children are read into an array on the
// stack, and the seen cache asked with the sum of each announced ID where it
// lies in the receive buffer.
func TestIHaveRoundHeldAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	d, _, _, _ := lazyResponder(t)
	children := make([]soap.Block, 4)
	for i := range children {
		id := string(wsa.NewMessageID())
		d.m.Receive(gossip.IDSum(id), false)
		children[i] = announceOf(Announce{InteractionID: "urn:uuid:i", MessageID: id, Hops: 2, Holder: "mem://holder"})
	}
	ihave := ihaveRequest(t, children...)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.handleIHave(context.Background(), ihave); err != nil {
			t.Fatal(err)
		}
	})
	if stats := d.Stats(); stats.Fetched != 0 || stats.Duplicates != 4*101 {
		t.Fatalf("stats = %+v", stats)
	}
	checkAllocBudget(t, "IHAVE of 4 held notifications", allocs, budget.IHaveRoundHeld)
}

// TestInitiatorNotifyAllocBudget: a published notification to 4 peers over
// MemBus is the message ID string Notify returns. The ID and the gossip
// header are written on the stack, the body into pooled scratch by a pooled
// encoder, and the template and its 4 copies into pooled buffers the bus
// recycles.
func TestInitiatorNotifyAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	notify := notifyBench(t)
	allocs := testing.AllocsPerRun(100, notify)
	if allocs != budget.InitiatorNotify {
		t.Errorf("Notify to 4 peers = %.1f allocs/op, budget exactly %.0f (testdata/alloc_budget.json)", allocs, budget.InitiatorNotify)
	}
	t.Logf("Notify to 4 peers: %.1f allocs/op (budget %.0f)", allocs, budget.InitiatorNotify)
}
