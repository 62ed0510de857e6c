package gossip

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"wsgossip/internal/simnet"
	"wsgossip/internal/testkit"
	"wsgossip/internal/transport"
)

// Allocation budgets for the scale path (sim-push-100k, the million-node
// result), the companions of internal/core's: what one push costs the engine,
// on simnet, with the benchmark workload's sizing. The budgets are committed
// in testdata/alloc_budget.json; CI runs these tests and the -benchmem
// benchmarks on every push.

type allocBudget struct {
	DuplicatePush       float64 `json:"duplicate_push_max_allocs"`
	FirstReceiptForward float64 `json:"first_receipt_forward_f3_max_allocs"`
	FirstReceiptDeliver float64 `json:"first_receipt_deliver_f3_max_allocs"`
	PullReqNothingToSay float64 `json:"pull_request_nothing_missing_max_allocs"`
	CounterDuplicate    float64 `json:"counter_duplicate_burst_f3_max_allocs"`
	EngineFootprint     float64 `json:"engine_footprint_max_bytes"`
}

func checkAllocBudget(t *testing.T, what string, allocs, budget float64) {
	t.Helper()
	if allocs > budget {
		t.Errorf("%s = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)", what, allocs, budget)
	}
	t.Logf("%s: %.1f allocs/op (budget %.0f)", what, allocs, budget)
}

// pushBench is one engine of the given style at fanout 3 among 64
// handler-less simnet nodes, and a supply of distinct single-rumor push bodies
// as a peer would send them. A counter-mongering engine never goes quiescent:
// every duplicate it hears bursts.
type pushBench struct {
	net    *simnet.Network
	eng    *Engine
	bodies [][]byte
	next   int
}

func newPushBench(tb testing.TB, style Style, bodies int) *pushBench {
	return newDeliveringPushBench(tb, style, bodies, nil)
}

// newDeliveringPushBench is newPushBench with a Deliver callback.
func newDeliveringPushBench(tb testing.TB, style Style, bodies int, deliver func(Rumor)) *pushBench {
	tb.Helper()
	net := simnet.New(simnet.DefaultConfig(1))
	addrs := make([]string, 64)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("n%07d", i)
		net.Node(addrs[i])
	}
	eng, err := New(Config{
		Style: style, Fanout: 3, Hops: 19, CounterK: math.MaxInt,
		Endpoint:      net.Node(addrs[0]),
		Peers:         NewUniformPeers(addrs),
		RNG:           simnet.NewCompactRNG(1),
		SeenCacheSize: 256,
		StoreSize:     64,
		Deliver:       deliver,
	})
	if err != nil {
		tb.Fatal(err)
	}
	pb := &pushBench{net: net, eng: eng, bodies: make([][]byte, bodies)}
	ids := testRand(1)
	for i := range pb.bodies {
		pb.bodies[i] = encodeRumors(Rumor{ID: NewRumorID(ids), Origin: addrs[1], Hops: 12, Payload: []byte("event 1")})
	}
	return pb
}

// receive hands the engine the next body and drains the three forwards.
func (pb *pushBench) receive(tb testing.TB) {
	body := pb.bodies[pb.next%len(pb.bodies)]
	pb.next++
	if err := pb.eng.handlePush(context.Background(), transport.Message{From: "n0000001", Body: body}); err != nil {
		tb.Fatal(err)
	}
	pb.net.Run()
}

// TestDuplicatePushAllocBudget: two receipts in three are duplicates on the
// scale path, and a duplicate is dropped on the ID as it lies in the body —
// nothing is built.
func TestDuplicatePushAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	pb := newPushBench(t, StylePush, 1)
	pb.receive(t) // first receipt
	allocs := testing.AllocsPerRun(200, func() { pb.receive(t) })
	if st := pb.eng.Stats(); st.Delivered != 1 || st.Duplicates < 200 || st.Forwarded != 3 {
		t.Fatalf("stats = %+v", st)
	}
	checkAllocBudget(t, "duplicate push", allocs, budget.DuplicatePush)
}

// TestFirstReceiptForwardAllocBudget: on an engine without a Deliver
// callback, a first receipt copies the rumor into the store slot it evicts,
// whose slab it reuses, and writes one body for its three sends into a pooled
// buffer; the peers are drawn on the stack and each send's delivery record,
// the copy of the body it carries and the clock timer it is armed on come
// from the fabric's pool. The run is long enough to cycle the seen cache and
// the store many times over, so their evictions are inside the figure.
func TestFirstReceiptForwardAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	const runs = 2000
	pb := newPushBench(t, StylePush, runs+1)
	allocs := testing.AllocsPerRun(runs, func() { pb.receive(t) })
	if st := pb.eng.Stats(); st.Delivered != runs+1 || st.Duplicates != 0 || st.Forwarded != 3*(runs+1) {
		t.Fatalf("stats = %+v", st)
	}
	checkAllocBudget(t, "first receipt + forward f=3", allocs, budget.FirstReceiptForward)
}

// TestFirstReceiptDeliverAllocBudget: the same push, with a Deliver
// callback that keeps the ID as the harnesses do. An engine with Deliver
// never refills a slab, so the rumor is copied into a new one, the one
// allocation: the Rumor the callback is handed is views of that slab (ID,
// Origin and Payload), and the kept ID pins it.
func TestFirstReceiptDeliverAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	const runs = 2000
	var last string
	pb := newDeliveringPushBench(t, StylePush, runs+1, func(r Rumor) { last = r.ID })
	allocs := testing.AllocsPerRun(runs, func() { pb.receive(t) })
	if st := pb.eng.Stats(); st.Delivered != runs+1 || st.Duplicates != 0 || st.Forwarded != 3*(runs+1) || len(last) != 32 {
		t.Fatalf("stats = %+v, last delivered %q", st, last)
	}
	checkAllocBudget(t, "first receipt + deliver + forward f=3", allocs, budget.FirstReceiptDeliver)
}

// fullPullRequest is a push bench whose store is full, and a pull request
// whose digest lists everything it stores, as its own Tick writes it.
func fullPullRequest(tb testing.TB) (*pushBench, transport.Message) {
	pb := newPushBench(tb, StylePush, 64)
	for range pb.bodies {
		pb.receive(tb)
	}
	return pb, transport.Message{From: "n0000001", Body: encodePull(pb.eng.m.Digest(nil))}
}

// TestPullRequestNothingMissingAllocBudget: a pull request whose digest lists
// everything the responder stores — the round with nothing to say — reads
// the sums into scratch on the stack: no set, no response.
func TestPullRequestNothingMissingAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	pb, digest := fullPullRequest(t)
	allocs := testing.AllocsPerRun(200, func() {
		if err := pb.eng.handlePullReq(context.Background(), digest); err != nil {
			t.Fatal(err)
		}
	})
	if st := pb.eng.Stats(); pb.eng.StoreLen() != 64 || st.PullResps != 0 {
		t.Fatalf("store %d, stats %+v", pb.eng.StoreLen(), st)
	}
	checkAllocBudget(t, "pull request, nothing missing", allocs, budget.PullReqNothingToSay)
}

func BenchmarkPullRequestNothingMissing(b *testing.B) {
	pb, digest := fullPullRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pb.eng.handlePullReq(context.Background(), digest); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCounterDuplicateAllocBudget: a duplicate of a rumor a counter-mongering
// engine is still spreading bursts the stored copy — one lookup of the
// counters, no copy of the body's rumor — written into a pooled buffer, so
// it costs nothing (1 while each burst encoded a body of its own; 8 while
// each duplicate built an owned rumor first).
func TestCounterDuplicateAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	pb := newPushBench(t, StyleCounter, 1)
	pb.receive(t) // first receipt: mongering starts
	allocs := testing.AllocsPerRun(200, func() { pb.receive(t) })
	if st := pb.eng.Stats(); st.Delivered != 1 || st.Duplicates < 200 || st.Forwarded != 3*(st.Duplicates+1) {
		t.Fatalf("stats = %+v", st)
	}
	checkAllocBudget(t, "counter duplicate burst f=3", allocs, budget.CounterDuplicate)
}

func BenchmarkDuplicatePush(b *testing.B) {
	pb := newPushBench(b, StylePush, 1)
	pb.receive(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.receive(b)
	}
}

func BenchmarkFirstReceiptForward(b *testing.B) {
	pb := newPushBench(b, StylePush, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.receive(b)
	}
}

func BenchmarkFirstReceiptDeliver(b *testing.B) {
	var last string
	pb := newDeliveringPushBench(b, StylePush, b.N, func(r Rumor) { last = r.ID })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.receive(b)
	}
	_ = last
}

// TestEngineFootprintAllocBudget: what a simulated node keeps, wired as
// sim-push-100k wires each of its 100,000 — a simnet node, a compact RNG, a
// shared UniformPeers, a seen cache of 256, a store of 64, and a Mux of its
// own that the engine registers on as one route — once one rumor has spread
// to quiescence. The heap 20,000 such engines retain, per engine, is held to
// the budget: the wiring is a constant four objects, and the seen cache and
// the store index their entries in 4-byte table cells. A Mux keyed by a map
// retains about 210 bytes more per engine, 270 with a closure per action.
func TestEngineFootprintAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	const nodes = 20000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	cfg := simnet.DefaultConfig(1)
	cfg.LossRate = 0.01
	net := simnet.New(cfg)
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("n%07d", i)
	}
	peers := NewUniformPeers(addrs)
	engines := make([]*Engine, nodes)
	delivered := 0
	for i := range engines {
		ep := net.Node(addrs[i])
		eng, err := New(Config{
			Style: StylePush, Fanout: 3, Hops: int(math.Ceil(math.Log2(nodes))) + 2,
			Endpoint:      ep,
			Peers:         peers,
			RNG:           simnet.NewCompactRNG(7919 + int64(i)),
			SeenCacheSize: 256,
			StoreSize:     64,
			Deliver:       func(Rumor) { delivered++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		eng.Register(mux)
		mux.Bind(ep)
		engines[i] = eng
	}
	if _, err := engines[0].Publish(context.Background(), []byte("event 0")); err != nil {
		t.Fatal(err)
	}
	net.Run()

	// Twice: what the first collection leaves in sync.Pool victim caches,
	// the second frees.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEngine := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / nodes
	runtime.KeepAlive(engines)
	runtime.KeepAlive(net)
	if delivered < nodes*9/10 {
		t.Fatalf("one rumor reached %d of %d engines", delivered, nodes)
	}
	if perEngine > budget.EngineFootprint {
		t.Errorf("an engine retains %.0f B of heap, budget %.0f (testdata/alloc_budget.json)", perEngine, budget.EngineFootprint)
	}
	t.Logf("an engine retains %.0f B of heap (budget %.0f)", perEngine, budget.EngineFootprint)
}
