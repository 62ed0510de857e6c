package gossip

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"wsgossip/internal/epidemic"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// cluster builds n engines over a fresh simulated network.
type cluster struct {
	net     *simnet.Network
	engines []*Engine
	got     []map[string]int // per node: rumor id -> delivery count
}

func newCluster(t testing.TB, n int, seed int64, mutate func(i int, cfg *Config)) *cluster {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(seed))
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("n%03d", i)
	}
	peers := NewStaticPeers(addrs)
	c := &cluster{net: net, engines: make([]*Engine, n), got: make([]map[string]int, n)}
	for i := range addrs {
		i := i
		c.got[i] = make(map[string]int)
		cfg := Config{
			Style:    StylePush,
			Fanout:   3,
			Hops:     12,
			Endpoint: net.Node(addrs[i]),
			Peers:    peers,
			RNG:      rand.New(rand.NewSource(seed + int64(i))),
			Deliver: func(r Rumor) {
				c.got[i][r.ID]++
			},
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		mux := transport.NewMux()
		eng.Register(mux)
		mux.Bind(net.Node(addrs[i]))
		c.engines[i] = eng
	}
	return c
}

func (c *cluster) coverage(id string) float64 {
	n := 0
	for _, m := range c.got {
		if m[id] > 0 {
			n++
		}
	}
	return float64(n) / float64(len(c.got))
}

func (c *cluster) tickAll(ctx context.Context, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, e := range c.engines {
			e.Tick(ctx)
		}
		c.net.Run()
	}
}

func TestConfigValidation(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(1))
	ep := net.Node("a")
	peers := NewStaticPeers([]string{"a", "b"})
	tests := []struct {
		name string
		cfg  Config
	}{
		{"missing endpoint", Config{Style: StylePush, Fanout: 1, Hops: 1, Peers: peers}},
		{"missing peers", Config{Style: StylePush, Fanout: 1, Hops: 1, Endpoint: ep}},
		{"bad style", Config{Style: Style(99), Fanout: 1, Hops: 1, Endpoint: ep, Peers: peers}},
		{"zero fanout", Config{Style: StylePush, Fanout: 0, Hops: 1, Endpoint: ep, Peers: peers}},
		{"negative hops", Config{Style: StylePush, Fanout: 1, Hops: -1, Endpoint: ep, Peers: peers}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
	// Flood style permits fanout 0.
	if _, err := New(Config{Style: StyleFlood, Hops: 1, Endpoint: ep, Peers: peers}); err != nil {
		t.Fatalf("flood config rejected: %v", err)
	}
}

func TestStyleStringRoundTrip(t *testing.T) {
	for _, s := range []Style{StylePush, StylePull, StylePushPull, StyleLazyPush, StyleFlood, StyleCounter} {
		got, err := ParseStyle(s.String())
		if err != nil {
			t.Fatalf("parse %v: %v", s, err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %v", s, got)
		}
	}
	if _, err := ParseStyle("nope"); err == nil {
		t.Fatal("bad style parsed")
	}
}

func TestPushCoverageNearFixedPoint(t *testing.T) {
	// Push with fanout f converges to the epidemic fixed point
	// x = 1 - e^(-f·x): about 0.94 at f=3, not 1.0. Assert the band.
	c := newCluster(t, 64, 1, nil)
	r, err := c.engines[0].Publish(context.Background(), []byte("news"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	if cov := c.coverage(r.ID); cov < 0.85 {
		t.Fatalf("push coverage = %v, want >= 0.85", cov)
	}
}

func TestPushHighFanoutFullCoverage(t *testing.T) {
	// With f around log N the miss probability per node is ~e^-f; at f=10
	// and N=64 a full sweep is overwhelmingly likely (and deterministic for
	// this seed).
	c := newCluster(t, 64, 1, func(_ int, cfg *Config) { cfg.Fanout = 10 })
	r, err := c.engines[0].Publish(context.Background(), []byte("news"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	if cov := c.coverage(r.ID); cov != 1.0 {
		t.Fatalf("high-fanout push coverage = %v, want 1.0", cov)
	}
}

func TestDeliverExactlyOnce(t *testing.T) {
	c := newCluster(t, 32, 2, nil)
	r, err := c.engines[0].Publish(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	for i, m := range c.got {
		if m[r.ID] > 1 {
			t.Fatalf("node %d delivered rumor %d times", i, m[r.ID])
		}
	}
	// Duplicates must have been suppressed somewhere (fanout 3 over 32 nodes
	// necessarily re-hits nodes).
	var dups int64
	for _, e := range c.engines {
		dups += e.Stats().Duplicates
	}
	if dups == 0 {
		t.Fatal("expected duplicate suppressions, got none")
	}
}

// TestDeliveredIDsSurviveStoreWraps: Deliver's ID and Origin are views of
// the stored slab, so an engine with a Deliver callback must never refill a
// slab it has delivered. A four-slot store takes 64 rumors, wrapping 16
// times; every ID and origin the callback kept as a map key must still read
// as sent and still find its entry.
func TestDeliveredIDsSurviveStoreWraps(t *testing.T) {
	const rumors = 64
	net := simnet.New(simnet.DefaultConfig(1))
	addrs := []string{"n0", "n1", "n2", "n3"}
	for _, a := range addrs {
		net.Node(a)
	}
	var keptIDs, keptOrigins []string
	byID, byOrigin := map[string]int{}, map[string]int{}
	eng, err := New(Config{
		Style: StylePush, Fanout: 2, Hops: 3,
		Endpoint:  net.Node(addrs[0]),
		Peers:     NewStaticPeers(addrs),
		RNG:       testRand(1),
		StoreSize: 4,
		Deliver: func(r Rumor) {
			byID[r.ID], byOrigin[r.Origin] = len(keptIDs), len(keptOrigins)
			keptIDs, keptOrigins = append(keptIDs, r.ID), append(keptOrigins, r.Origin)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := testRand(2)
	sent := make([]Rumor, rumors)
	for i := range sent {
		// Equal lengths, so every evicted slab would fit the next rumor.
		sent[i] = Rumor{ID: NewRumorID(ids), Origin: fmt.Sprintf("origin-%02d", i), Hops: 3, Payload: []byte("payload")}
		if err := eng.handlePush(context.Background(), transport.Message{From: addrs[1], Body: encodeRumors(sent[i])}); err != nil {
			t.Fatal(err)
		}
		net.Run()
	}
	if eng.StoreLen() != 4 || len(keptIDs) != rumors {
		t.Fatalf("store holds %d, delivered %d; want 4 and %d", eng.StoreLen(), len(keptIDs), rumors)
	}
	for i, r := range sent {
		if keptIDs[i] != r.ID || keptOrigins[i] != r.Origin {
			t.Fatalf("rumor %d kept as (%q, %q), sent as (%q, %q)", i, keptIDs[i], keptOrigins[i], r.ID, r.Origin)
		}
		if j, ok := byID[r.ID]; !ok || j != i {
			t.Fatalf("rumor %d: its ID finds entry %d, %v", i, j, ok)
		}
		if j, ok := byOrigin[r.Origin]; !ok || j != i {
			t.Fatalf("rumor %d: its origin finds entry %d, %v", i, j, ok)
		}
	}
}

func TestHopBudgetLimitsSpread(t *testing.T) {
	// Hops=1: origin forwards to fanout peers; they deliver but do not
	// forward further (hops reaches 0 at receivers).
	c := newCluster(t, 64, 3, func(_ int, cfg *Config) {
		cfg.Hops = 1
		cfg.Fanout = 3
	})
	r, err := c.engines[0].Publish(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	reached := 0
	for _, m := range c.got {
		if m[r.ID] > 0 {
			reached++
		}
	}
	// Origin + at most fanout receivers.
	if reached > 4 {
		t.Fatalf("hops=1 reached %d nodes, want <= 4", reached)
	}
	if reached < 2 {
		t.Fatalf("hops=1 reached %d nodes, want >= 2", reached)
	}
}

func TestHopsZeroDeliversLocallyOnly(t *testing.T) {
	c := newCluster(t, 8, 4, func(_ int, cfg *Config) { cfg.Hops = 0 })
	r, err := c.engines[0].Publish(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	for i, m := range c.got {
		want := 0
		if i == 0 {
			want = 1
		}
		if m[r.ID] != want {
			t.Fatalf("node %d deliveries = %d, want %d", i, m[r.ID], want)
		}
	}
}

func TestFloodCoverage(t *testing.T) {
	c := newCluster(t, 32, 5, func(_ int, cfg *Config) {
		cfg.Style = StyleFlood
		cfg.Hops = 2
	})
	r, err := c.engines[0].Publish(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	if cov := c.coverage(r.ID); cov != 1.0 {
		t.Fatalf("flood coverage = %v", cov)
	}
	// Flood cost is ~N per node that forwards; verify it is much higher
	// than push's f per node.
	var fwd int64
	for _, e := range c.engines {
		fwd += e.Stats().Forwarded
	}
	if fwd < int64(31+31*3) {
		t.Fatalf("flood forwarded = %d, suspiciously low", fwd)
	}
}

func TestLazyPushCoverageAndPayloadSavings(t *testing.T) {
	seed := int64(6)
	lazy := newCluster(t, 64, seed, func(_ int, cfg *Config) { cfg.Style = StyleLazyPush })
	rl, err := lazy.engines[0].Publish(context.Background(), []byte("payload-payload-payload"))
	if err != nil {
		t.Fatal(err)
	}
	lazy.net.Run()
	if cov := lazy.coverage(rl.ID); cov < 0.85 {
		t.Fatalf("lazy push coverage = %v, want >= 0.85", cov)
	}
	var lazyPayloads, lazyIHaves int64
	for _, e := range lazy.engines {
		st := e.Stats()
		lazyPayloads += st.Forwarded
		lazyIHaves += st.IHaveSent
	}
	eager := newCluster(t, 64, seed, nil)
	re, err := eager.engines[0].Publish(context.Background(), []byte("payload-payload-payload"))
	if err != nil {
		t.Fatal(err)
	}
	eager.net.Run()
	var eagerPayloads int64
	for _, e := range eager.engines {
		eagerPayloads += e.Stats().Forwarded
	}
	if lazyPayloads >= eagerPayloads {
		t.Fatalf("lazy payload sends (%d) not below eager (%d)", lazyPayloads, eagerPayloads)
	}
	if lazyIHaves == 0 {
		t.Fatal("lazy push sent no announcements")
	}
	_ = re
}

func TestPullSpreadsViaTicks(t *testing.T) {
	c := newCluster(t, 32, 7, func(_ int, cfg *Config) {
		cfg.Style = StylePull
		cfg.Fanout = 2
	})
	r, err := c.engines[0].Publish(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	if cov := c.coverage(r.ID); cov != 1.0/32 {
		t.Fatalf("pull pre-tick coverage = %v, want origin only", cov)
	}
	c.tickAll(context.Background(), 20)
	if cov := c.coverage(r.ID); cov < 0.95 {
		t.Fatalf("pull coverage after 20 rounds = %v", cov)
	}
}

func TestPushPullRepairsLoss(t *testing.T) {
	c := newCluster(t, 64, 8, func(_ int, cfg *Config) {
		cfg.Style = StylePushPull
		cfg.Fanout = 2
		cfg.Hops = 6
	})
	c.net.Faults().SetLoss(0.4)
	r, err := c.engines[0].Publish(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	lossyCov := c.coverage(r.ID)
	c.net.Faults().SetLoss(0)
	c.tickAll(context.Background(), 25)
	finalCov := c.coverage(r.ID)
	if finalCov < 0.99 {
		t.Fatalf("push-pull final coverage = %v (post-push %v)", finalCov, lossyCov)
	}
	if finalCov < lossyCov {
		t.Fatalf("coverage regressed: %v -> %v", lossyCov, finalCov)
	}
}

func TestInjectBehavesLikeReceive(t *testing.T) {
	c := newCluster(t, 16, 9, nil)
	rumor := Rumor{ID: "manual-1", Origin: "external", Hops: 8, Payload: []byte("z")}
	c.engines[0].Inject(context.Background(), rumor)
	c.net.Run()
	if cov := c.coverage("manual-1"); cov != 1.0 {
		t.Fatalf("injected rumor coverage = %v", cov)
	}
	// Re-injecting is a duplicate.
	before := c.engines[0].Stats().Duplicates
	c.engines[0].Inject(context.Background(), rumor)
	if got := c.engines[0].Stats().Duplicates; got != before+1 {
		t.Fatalf("duplicates = %d, want %d", got, before+1)
	}
}

func TestSeenAndStoreLen(t *testing.T) {
	c := newCluster(t, 4, 10, nil)
	r, err := c.engines[0].Publish(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !c.engines[0].Seen(r.ID) {
		t.Fatal("publisher has not seen its own rumor")
	}
	if c.engines[0].StoreLen() != 1 {
		t.Fatalf("store len = %d", c.engines[0].StoreLen())
	}
	if c.engines[1].Seen(r.ID) {
		t.Fatal("unseen rumor reported seen")
	}
}

func TestNewRumorIDDeterministic(t *testing.T) {
	a := NewRumorID(rand.New(rand.NewSource(5)))
	b := NewRumorID(rand.New(rand.NewSource(5)))
	if a != b {
		t.Fatal("same seed produced different IDs")
	}
	c := NewRumorID(rand.New(rand.NewSource(6)))
	if a == c {
		t.Fatal("different seeds produced equal IDs")
	}
	if len(a) != 32 {
		t.Fatalf("id length = %d", len(a))
	}
}

// pushCoverage runs one f=3, 16-hop push over n lossless nodes built from
// seed and returns the coverage reached and the floor the property asserts:
// the mean-field expectation less a small-N allowance of 1.2/√n — four
// standard deviations of the final size, which measures ≈ 0.3/√n here. Over
// 2000 seeds at each n in 8..64 that floor failed 27 of 114 000 runs, all of
// them epidemics that died out in the first generations; infect-and-die
// always can, so no floor above 1/n holds for every seed, and the property
// below draws its inputs from a fixed source.
func pushCoverage(t *testing.T, seed int64, sizeRaw uint8) (n int, coverage, floor float64) {
	t.Helper()
	const fanout, hops = 3, 16
	n = 8 + int(sizeRaw)%57 // 8..64
	c := newCluster(t, n, seed, func(_ int, cfg *Config) {
		cfg.Fanout = fanout
		cfg.Hops = hops
	})
	r, err := c.engines[0].Publish(context.Background(), []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	expected, err := epidemic.ExpectedCoverage(n, fanout, hops)
	if err != nil {
		t.Fatal(err)
	}
	return n, c.coverage(r.ID), expected - 1.2/math.Sqrt(float64(n))
}

// TestPushCoverageProperty: with fanout 3 and ample hops, push on a lossless
// network reaches the epidemic model's coverage, within the small-N spread,
// regardless of seed and (small) size.
func TestPushCoverageProperty(t *testing.T) {
	// The input testing/quick once drew from its time-seeded source against
	// the flat 0.75 floor this test used to assert: 9 nodes, of which the
	// rumor reaches 6. Within the small-N spread, so it must keep passing.
	t.Run("n9-reaches-6-of-9", func(t *testing.T) {
		n, coverage, floor := pushCoverage(t, -3031831200393410418, 0x1)
		if n != 9 || coverage != 6.0/9 {
			t.Fatalf("n = %d, coverage = %v; this input reached 6 of 9", n, coverage)
		}
		if coverage < floor {
			t.Fatalf("coverage %v below floor %v", coverage, floor)
		}
	})
	f := func(seed int64, sizeRaw uint8) bool {
		n, coverage, floor := pushCoverage(t, seed, sizeRaw)
		if coverage < floor {
			t.Logf("n = %d: coverage %v below floor %v", n, coverage, floor)
		}
		return coverage >= floor
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleRumorsIndependent(t *testing.T) {
	c := newCluster(t, 32, 11, nil)
	ids := make([]string, 5)
	for i := range ids {
		r, err := c.engines[i].Publish(context.Background(), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = r.ID
	}
	c.net.Run()
	for _, id := range ids {
		if cov := c.coverage(id); cov < 0.85 {
			t.Fatalf("rumor %s coverage = %v", id, cov)
		}
	}
}

func TestTickNoopForPushStyle(t *testing.T) {
	c := newCluster(t, 8, 12, nil)
	c.engines[0].Tick(context.Background())
	if st := c.engines[0].Stats(); st.PullReqs != 0 {
		t.Fatalf("push-style tick sent pull requests: %+v", st)
	}
}

func TestCrashedSubsetStillCovered(t *testing.T) {
	// With 20% crashed, surviving nodes should still all receive the rumor
	// (the resilience claim at small scale; E3 measures it at 512).
	c := newCluster(t, 50, 13, func(_ int, cfg *Config) {
		cfg.Fanout = 6
		cfg.Hops = 14
	})
	for i := 40; i < 50; i++ {
		c.net.Crash(fmt.Sprintf("n%03d", i))
	}
	r, err := c.engines[0].Publish(context.Background(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	alive := 0
	reached := 0
	for i := 0; i < 40; i++ {
		alive++
		if c.got[i][r.ID] > 0 {
			reached++
		}
	}
	if frac := float64(reached) / float64(alive); frac < 0.95 {
		t.Fatalf("alive coverage = %v", frac)
	}
}

func TestEngineDefaultsApplied(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(1))
	eng, err := New(Config{
		Style:    StylePush,
		Fanout:   1,
		Hops:     1,
		Endpoint: net.Node("a"),
		Peers:    NewStaticPeers([]string{"a"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.m.seen.cap != DefaultSeenCacheSize {
		t.Fatalf("seen cache default = %d", eng.m.seen.cap)
	}
	if eng.m.store.cap != DefaultStoreSize {
		t.Fatalf("store default = %d", eng.m.store.cap)
	}
}

func TestEngineUnderWallClockTransportSmoke(t *testing.T) {
	// The engine must not depend on simnet specifics; drive it with a tiny
	// in-process loopback endpoint on the wall clock.
	lb := newLoopback()
	a := lb.endpoint("a")
	b := lb.endpoint("b")
	peers := NewStaticPeers([]string{"a", "b"})
	var gotB atomic.Int32
	gotBCh := make(chan struct{}, 4)
	mkEngine := func(ep transport.Endpoint, deliver func(Rumor)) *Engine {
		eng, err := New(Config{
			Style: StylePush, Fanout: 1, Hops: 2,
			Endpoint: ep, Peers: peers,
			RNG:     rand.New(rand.NewSource(1)),
			Deliver: deliver,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		eng.Register(mux)
		mux.Bind(ep)
		return eng
	}
	ea := mkEngine(a, nil)
	mkEngine(b, func(Rumor) { gotB.Add(1); gotBCh <- struct{}{} })
	if _, err := ea.Publish(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Explicit synchronization, no polling: the delivery callback signals.
	select {
	case <-gotBCh:
	case <-time.After(5 * time.Second):
		t.Fatal("b never delivered")
	}
	if got := gotB.Load(); got != 1 {
		t.Fatalf("b deliveries = %d", got)
	}
}

// loopback is a minimal synchronous in-process transport for wall-clock
// smoke tests.
type loopback struct {
	eps map[string]*loopbackEP
}

func newLoopback() *loopback { return &loopback{eps: make(map[string]*loopbackEP)} }

func (l *loopback) endpoint(addr string) *loopbackEP {
	ep := &loopbackEP{net: l, addr: addr}
	l.eps[addr] = ep
	return ep
}

type loopbackEP struct {
	net     *loopback
	addr    string
	handler transport.Handler
}

func (e *loopbackEP) Addr() string                   { return e.addr }
func (e *loopbackEP) SetHandler(h transport.Handler) { e.handler = h }
func (e *loopbackEP) Send(ctx context.Context, msg transport.Message) error {
	dest, ok := e.net.eps[msg.To]
	if !ok || dest.handler == nil {
		return transport.ErrUnreachable
	}
	msg.From = e.addr
	// The handler runs after Send returns, so it gets a copy: the sender
	// reuses its buffer.
	msg.Body = bytes.Clone(msg.Body)
	go func() { _ = dest.handler(ctx, msg) }()
	return nil
}

func TestCounterMongeringFullCoverage(t *testing.T) {
	// Feedback-counter mongering needs no (f, r) sizing: it adapts until
	// the rumor is everywhere, and terminates.
	// The quiescence residue shrinks exponentially in K (Eugster et al.);
	// K=4 at this size reaches everyone.
	c := newCluster(t, 64, 14, func(_ int, cfg *Config) {
		cfg.Style = StyleCounter
		cfg.Fanout = 2
		cfg.CounterK = 4
		cfg.Hops = 1
	})
	r, err := c.engines[0].Publish(context.Background(), []byte("adaptive"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run() // termination: the run must drain (no infinite mongering)
	if cov := c.coverage(r.ID); cov < 0.99 {
		t.Fatalf("counter mongering coverage = %v", cov)
	}
}

func TestCounterMongeringTerminatesAndBoundsTraffic(t *testing.T) {
	c := newCluster(t, 48, 15, func(_ int, cfg *Config) {
		cfg.Style = StyleCounter
		cfg.Fanout = 2
		cfg.CounterK = 2
	})
	if _, err := c.engines[0].Publish(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	st := c.totalForwarded()
	// Total bursts are bounded by n * (K+1) * f (K=2 here).
	bound := int64(48 * 3 * 2)
	if st > bound {
		t.Fatalf("forwarded %d exceeds mongering bound %d", st, bound)
	}
	if st == 0 {
		t.Fatal("no forwarding happened")
	}
}

// totalForwarded sums Forwarded across the cluster.
func (c *cluster) totalForwarded() int64 {
	var total int64
	for _, e := range c.engines {
		total += e.Stats().Forwarded
	}
	return total
}

func TestCounterKDefaultApplied(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(1))
	eng, err := New(Config{
		Style: StyleCounter, Fanout: 1, Hops: 1,
		Endpoint: net.Node("a"),
		Peers:    NewStaticPeers([]string{"a", "b"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.m.counterK != 2 {
		t.Fatalf("CounterK default = %d", eng.m.counterK)
	}
}
