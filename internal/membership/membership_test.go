package membership

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/metrics"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

type memCluster struct {
	net      *simnet.Network
	services []*Service
}

func newMemCluster(t *testing.T, n int, seed int64) *memCluster {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(seed))
	c := &memCluster{net: net}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("m%03d", i)
		svc, err := New(Config{
			Endpoint:     net.Node(addr),
			Clock:        net,
			RNG:          rand.New(rand.NewSource(seed + int64(i))),
			Fanout:       3,
			SuspectAfter: 400 * time.Millisecond,
			RemoveAfter:  time.Second,
		})
		if err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
		mux := transport.NewMux()
		svc.Register(mux)
		mux.Bind(net.Node(addr))
		c.services = append(c.services, svc)
	}
	return c
}

// tick advances every service once and drains the network, spacing rounds
// interval apart in virtual time.
func (c *memCluster) tick(ctx context.Context, rounds int, interval time.Duration) {
	for r := 0; r < rounds; r++ {
		for _, s := range c.services {
			s.Tick(ctx)
		}
		c.net.RunFor(interval)
	}
}

func TestConfigValidation(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(1))
	ep := net.Node("a")
	base := Config{
		Endpoint: ep, Clock: net, Fanout: 2,
		SuspectAfter: time.Second, RemoveAfter: 2 * time.Second,
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(c *Config){
		func(c *Config) { c.Endpoint = nil },
		func(c *Config) { c.Clock = nil },
		func(c *Config) { c.Fanout = 0 },
		func(c *Config) { c.SuspectAfter = 0 },
		func(c *Config) { c.RemoveAfter = c.SuspectAfter },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestJoinPropagates(t *testing.T) {
	c := newMemCluster(t, 8, 1)
	ctx := context.Background()
	// Everyone seeds from m000 only.
	for i := 1; i < 8; i++ {
		c.services[i].Join(ctx, []string{"m000"})
	}
	c.net.Run()
	c.tick(ctx, 10, 50*time.Millisecond)
	for i, s := range c.services {
		if got := s.Size(); got != 7 {
			t.Fatalf("service %d view size = %d, want 7", i, got)
		}
	}
}

func TestAliveExcludesSelf(t *testing.T) {
	c := newMemCluster(t, 4, 2)
	ctx := context.Background()
	for i := 1; i < 4; i++ {
		c.services[i].Join(ctx, []string{"m000"})
	}
	c.net.Run()
	c.tick(ctx, 8, 50*time.Millisecond)
	for i, s := range c.services {
		for _, a := range s.Alive() {
			if a == s.Addr() {
				t.Fatalf("service %d lists itself", i)
			}
		}
	}
}

func TestFailureDetection(t *testing.T) {
	c := newMemCluster(t, 8, 3)
	ctx := context.Background()
	for i := 1; i < 8; i++ {
		c.services[i].Join(ctx, []string{"m000"})
	}
	c.tick(ctx, 10, 50*time.Millisecond)
	// Crash m007: its heartbeat stops advancing.
	c.net.Crash("m007")
	c.tick(ctx, 30, 50*time.Millisecond)
	for i := 0; i < 7; i++ {
		for _, m := range c.services[i].Members() {
			if m.Addr == "m007" {
				t.Fatalf("service %d still lists crashed node (state %v)", i, m.State)
			}
		}
	}
}

func TestSuspectBeforeRemoval(t *testing.T) {
	c := newMemCluster(t, 4, 4)
	ctx := context.Background()
	for i := 1; i < 4; i++ {
		c.services[i].Join(ctx, []string{"m000"})
	}
	c.tick(ctx, 6, 50*time.Millisecond)
	c.net.Crash("m003")
	// Age past SuspectAfter (400ms) but not RemoveAfter (1s): ~10 rounds.
	c.tick(ctx, 10, 50*time.Millisecond)
	foundSuspect := false
	for _, m := range c.services[0].Members() {
		if m.Addr == "m003" && m.State == StateSuspect {
			foundSuspect = true
		}
	}
	if !foundSuspect {
		t.Fatal("crashed node not suspected in the suspect window")
	}
}

func TestLeaveTombstones(t *testing.T) {
	c := newMemCluster(t, 6, 5)
	ctx := context.Background()
	for i := 1; i < 6; i++ {
		c.services[i].Join(ctx, []string{"m000"})
	}
	c.tick(ctx, 8, 50*time.Millisecond)
	c.services[5].Leave(ctx)
	c.net.Run()
	// Leave reaches Fanout peers directly; they must drop the node at once.
	dropped := 0
	for i := 0; i < 5; i++ {
		has := false
		for _, m := range c.services[i].Members() {
			if m.Addr == "m005" {
				has = true
			}
		}
		if !has {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no peer processed the leave")
	}
}

func TestSelectPeersProvider(t *testing.T) {
	c := newMemCluster(t, 8, 6)
	ctx := context.Background()
	for i := 1; i < 8; i++ {
		c.services[i].Join(ctx, []string{"m000"})
	}
	c.tick(ctx, 10, 50*time.Millisecond)
	rng := rand.New(rand.NewSource(9))
	peers := c.services[0].SelectPeers(rng, 3, c.services[0].Addr())
	if len(peers) != 3 {
		t.Fatalf("selected %d peers", len(peers))
	}
	seen := map[string]bool{}
	for _, p := range peers {
		if p == "m000" || seen[p] {
			t.Fatalf("bad selection %v", peers)
		}
		seen[p] = true
	}
}

// newEchoPair returns services a and b, fanout 1, on one network.
func newEchoPair(t *testing.T) (net *simnet.Network, a, b *Service) {
	t.Helper()
	net = simnet.New(simnet.DefaultConfig(7))
	mk := func(addr string) *Service {
		svc, err := New(Config{
			Endpoint: net.Node(addr), Clock: net,
			RNG: rand.New(rand.NewSource(1)), Fanout: 1,
			SuspectAfter: 100 * time.Millisecond, RemoveAfter: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		svc.Register(mux)
		mux.Bind(net.Node(addr))
		return svc
	}
	return net, mk("a"), mk("b")
}

func TestSelfHeartbeatOutrunsStaleEcho(t *testing.T) {
	net, a, b := newEchoPair(t)
	ctx := context.Background()
	b.Join(ctx, []string{"a"})
	net.Run()
	// b's view of a has heartbeat 1; a's own heartbeat is still 1. When b
	// gossips back an inflated heartbeat for a, a must outrun it.
	for i := 0; i < 5; i++ {
		b.Tick(ctx)
		net.Run()
	}
	a.Tick(ctx)
	net.Run()
	if a.m.self.Heartbeat == 0 {
		t.Fatal("self heartbeat lost")
	}
	_ = a
}

// TestSelfHeartbeatIgnoresWrapEcho: an echo of our own entry at MaxUint64
// must not wrap our heartbeat to 0, which would leave every peer seeing us
// as stale. Any entry that high is ignored, a third party's included.
func TestSelfHeartbeatIgnoresWrapEcho(t *testing.T) {
	net, a, b := newEchoPair(t)
	ctx := context.Background()
	b.Join(ctx, []string{"a"})
	net.Run()
	a.Tick(ctx)
	net.Run()
	viewOfA := func() Member {
		for _, m := range b.Members() {
			if m.Addr == "a" {
				return m
			}
		}
		t.Fatal("b does not know a")
		return Member{}
	}
	before, hb := viewOfA(), a.m.self.Heartbeat

	body := writeBody(envelopeBody{From: "b", Members: []wireEntry{
		{Addr: "a", Heartbeat: math.MaxUint64},
		{Addr: "c", Heartbeat: 1 << 62},
	}})
	if err := a.handle(ctx, transport.Message{From: "b", To: "a", Action: ActionExchange, Body: body}); err != nil {
		t.Fatal(err)
	}
	if a.m.self.Heartbeat != hb {
		t.Fatalf("echo moved self heartbeat %d -> %d", hb, a.m.self.Heartbeat)
	}
	for _, m := range a.Members() {
		if m.Addr == "c" {
			t.Fatalf("entry at heartbeat %d admitted", m.Heartbeat)
		}
	}

	net.RunFor(50 * time.Millisecond)
	a.Tick(ctx)
	net.Run()
	if after := viewOfA(); after.Heartbeat <= before.Heartbeat || after.Refreshed <= before.Refreshed {
		t.Fatalf("b's view of a not refreshed: %+v -> %+v", before, after)
	}
}

func TestViewSizeNeverIncludesDuplicates(t *testing.T) {
	c := newMemCluster(t, 10, 8)
	ctx := context.Background()
	all := make([]string, 10)
	for i := range all {
		all[i] = fmt.Sprintf("m%03d", i)
	}
	for _, s := range c.services {
		s.Join(ctx, all)
	}
	c.tick(ctx, 10, 50*time.Millisecond)
	for i, s := range c.services {
		if got := s.Size(); got != 9 {
			t.Fatalf("service %d size = %d", i, got)
		}
		seen := map[string]bool{}
		for _, m := range s.Members() {
			if seen[m.Addr] {
				t.Fatalf("duplicate member %s", m.Addr)
			}
			seen[m.Addr] = true
		}
	}
}

func TestRecoveredNodeReadmitted(t *testing.T) {
	c := newMemCluster(t, 5, 9)
	ctx := context.Background()
	for i := 1; i < 5; i++ {
		c.services[i].Join(ctx, []string{"m000"})
	}
	c.tick(ctx, 8, 50*time.Millisecond)
	c.net.Crash("m004")
	c.tick(ctx, 30, 50*time.Millisecond) // well past RemoveAfter
	for _, m := range c.services[0].Members() {
		if m.Addr == "m004" {
			t.Fatal("evicted node still present")
		}
	}
	// Recovery: the node re-joins (both sides evicted each other, so a
	// recovered process must announce itself); its heartbeat has advanced
	// past the stall point recorded in the peers' tombstones, so they
	// readmit it.
	c.net.Recover("m004")
	c.services[4].Join(ctx, []string{"m000"})
	c.tick(ctx, 40, 50*time.Millisecond)
	found := false
	for _, m := range c.services[0].Members() {
		if m.Addr == "m004" && m.State == StateAlive {
			found = true
		}
	}
	if !found {
		t.Fatal("recovered node not readmitted")
	}
}

func TestMaxViewBoundsState(t *testing.T) {
	// 30 nodes with 8-entry partial views: every view stays capped while
	// dissemination over the sampled overlay still reaches everyone.
	const n = 30
	const maxView = 8
	net := simnet.New(simnet.DefaultConfig(11))
	services := make([]*Service, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("pv%03d", i)
		// Partial views refresh each entry less often than full views, so
		// failure-detection windows must scale up with n/MaxView; generous
		// windows isolate the cap invariant under test.
		svc, err := New(Config{
			Endpoint:     net.Node(addrs[i]),
			Clock:        net,
			RNG:          rand.New(rand.NewSource(11 + int64(i))),
			Fanout:       3,
			SuspectAfter: 5 * time.Second,
			RemoveAfter:  10 * time.Second,
			MaxView:      maxView,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		svc.Register(mux)
		mux.Bind(net.Node(addrs[i]))
		services[i] = svc
	}
	ctx := context.Background()
	for i := 1; i < n; i++ {
		services[i].Join(ctx, []string{addrs[0]})
	}
	net.Run()
	for round := 0; round < 20; round++ {
		for _, s := range services {
			s.Tick(ctx)
		}
		net.RunFor(50 * time.Millisecond)
	}
	union := map[string]bool{}
	for i, s := range services {
		if got := s.Size(); got > maxView {
			t.Fatalf("service %d view size = %d exceeds cap %d", i, got, maxView)
		}
		if got := s.Size(); got < maxView/2 {
			t.Fatalf("service %d view size = %d suspiciously small", i, got)
		}
		for _, m := range s.Members() {
			union[m.Addr] = true
		}
	}
	// The union of partial views must cover (almost) the whole membership —
	// the overlay stays well mixed.
	if len(union) < n-2 {
		t.Fatalf("partial-view union covers only %d/%d nodes", len(union), n)
	}
}

func TestSuspectDemotesAndHeartbeatRestores(t *testing.T) {
	c := newMemCluster(t, 3, 9)
	ctx := context.Background()
	c.services[1].Join(ctx, []string{"m000"})
	c.services[2].Join(ctx, []string{"m000"})
	c.net.Run()
	c.tick(ctx, 4, 50*time.Millisecond)

	s := c.services[0]
	if got := len(s.Alive()); got != 2 {
		t.Fatalf("alive = %d, want 2 before suspicion", got)
	}

	s.Suspect("m001")
	alive := s.Alive()
	if len(alive) != 1 || alive[0] != "m002" {
		t.Fatalf("alive after Suspect = %v, want [m002]", alive)
	}
	for _, m := range s.Members() {
		if m.Addr == "m001" && m.State != StateSuspect {
			t.Fatalf("m001 state = %v, want suspect", m.State)
		}
	}
	before := s.stats.suspects.Value()
	unknownBefore := s.stats.suspectUnknown.Value()
	s.Suspect("m001") // already suspect: idempotent
	s.Suspect("mXXX") // unknown: no state change, but counted
	if got := s.stats.suspects.Value(); got != before {
		t.Fatalf("suspects counter = %d, want unchanged %d", got, before)
	}
	if got := s.stats.suspectUnknown.Value(); got != unknownBefore+1 {
		t.Fatalf("suspect-unknown counter = %d, want %d", got, unknownBefore+1)
	}

	// The suspect keeps gossiping: its heartbeat advance restores it.
	c.tick(ctx, 4, 50*time.Millisecond)
	if got := len(s.Alive()); got != 2 {
		t.Fatalf("alive = %d, want 2 after the peer's heartbeat recovers it", got)
	}
}

func TestSuspectEvictedWhenSilent(t *testing.T) {
	c := newMemCluster(t, 2, 11)
	ctx := context.Background()
	c.services[1].Join(ctx, []string{"m000"})
	c.net.Run()
	c.tick(ctx, 2, 50*time.Millisecond)

	s := c.services[0]
	if got := len(s.Alive()); got != 1 {
		t.Fatalf("alive = %d, want 1", got)
	}
	s.Suspect("m001")
	// Only m000 ticks from here: m001 never refreshes, so RemoveAfter (1s)
	// aging evicts the suspect.
	for r := 0; r < 25; r++ {
		s.Tick(ctx)
		c.net.RunFor(50 * time.Millisecond)
	}
	if got := s.Size(); got != 0 {
		t.Fatalf("view size = %d, want 0 after the silent suspect ages out", got)
	}
}

// TestJoinRespectsMaxView: a capped view joined through more seeds than its
// cap holds no more members than the cap, as a merge would leave it.
func TestJoinRespectsMaxView(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(1))
	svc, err := New(Config{
		Endpoint: net.Node("a"), Clock: net, RNG: rand.New(rand.NewSource(1)), Fanout: 1,
		SuspectAfter: time.Second, RemoveAfter: 2 * time.Second, MaxView: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Join(context.Background(), []string{"s1", "s2", "s3", "s4"})
	if got := svc.Size(); got > 2 {
		t.Fatalf("view of %d after joining through 4 seeds, MaxView 2", got)
	}
}

// loopback is an endpoint that delivers each send at once, in the sender's
// goroutine, to the handler of the service at its address, and counts the
// messages each address is sent by action. The maps are written before the
// services run and only read after.
type loopback struct {
	addr  string
	peers map[string]transport.Handler
	sent  map[string]*[2]atomic.Int64 // by address: exchanges, leaves
}

func (e *loopback) Addr() string                 { return e.addr }
func (e *loopback) SetHandler(transport.Handler) {}
func (e *loopback) Send(ctx context.Context, msg transport.Message) error {
	msg.From = e.addr
	return e.deliver(ctx, msg)
}

// deliver hands msg to the handler at msg.To and counts it. An address no
// service has drops it. A chain of replies ends by itself: a service answers
// only a sender its merge admitted.
func (e *loopback) deliver(ctx context.Context, msg transport.Message) error {
	if e.peers[msg.To] == nil {
		return nil
	}
	if msg.Action == ActionLeave {
		e.sent[msg.To][1].Add(1)
	} else {
		e.sent[msg.To][0].Add(1)
	}
	return e.peers[msg.To](ctx, msg)
}

// TestServiceConcurrentUse drives four services, two of them capped, from
// eight goroutines at once on the real clock, over a loopback endpoint that
// delivers every send synchronously: ticks, leaves, exchanges and forged
// leaves handed to the route, suspicions, and reads of the view. Every
// message delivered is counted exactly once, and each view ends within its
// cap, without self, and with its gauge at its size. CI runs it under -race
// on 1 to 8 CPUs.
func TestServiceConcurrentUse(t *testing.T) {
	addrs := []string{"c0", "c1", "c2", "c3"}
	peers := map[string]transport.Handler{}
	sent := map[string]*[2]atomic.Int64{}
	regs := make([]*metrics.Registry, len(addrs))
	svcs := make([]*Service, len(addrs))
	for i, addr := range addrs {
		regs[i] = metrics.NewRegistry()
		svc, err := New(Config{
			Endpoint: &loopback{addr: addr, peers: peers, sent: sent}, Clock: clock.NewReal(),
			RNG: rand.New(rand.NewSource(int64(i + 1))), Fanout: 2, MaxView: []int{0, 2}[i%2],
			SuspectAfter: 2 * time.Millisecond, RemoveAfter: 5 * time.Millisecond, Metrics: regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		svcs[i], peers[addr], sent[addr] = svc, svc.handle, new([2]atomic.Int64)
	}
	for _, s := range svcs[1:] {
		s.Join(context.Background(), addrs[:1])
	}

	const workers, ops = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var dst []string
			for i := 0; i < ops; i++ {
				s := svcs[rng.Intn(len(svcs))]
				ep := s.cfg.Endpoint.(*loopback)
				other := addrs[rng.Intn(len(addrs))]
				switch rng.Intn(8) {
				case 0, 1:
					s.Tick(ctx)
				case 2:
					body := writeBody(envelopeBody{From: other, Members: []wireEntry{
						{Addr: addrs[rng.Intn(len(addrs))], Heartbeat: uint64(rng.Intn(1000))},
						{Addr: fmt.Sprintf("x%d", rng.Intn(6)), Heartbeat: uint64(rng.Intn(1000))},
					}})
					_ = ep.deliver(ctx, transport.Message{From: other, To: s.Addr(), Action: ActionExchange, Body: body})
				case 3:
					named := addrs[rng.Intn(len(addrs))]
					body := writeBody(envelopeBody{From: other, Members: []wireEntry{{Addr: named, Heartbeat: 1}}})
					_ = ep.deliver(ctx, transport.Message{From: other, To: s.Addr(), Action: ActionLeave, Body: body})
				case 4:
					if rng.Intn(20) == 0 {
						s.Leave(ctx)
					}
				case 5:
					s.Suspect(other)
				case 6:
					dst = s.AppendPeers(dst[:0], rand.New(rand.NewSource(int64(i))), 2, "")
				default:
					_, _ = s.Members(), s.Alive()
				}
			}
		}()
	}
	wg.Wait()

	for i, s := range svcs {
		exchanges, leaves := sent[s.Addr()][0].Load(), sent[s.Addr()][1].Load()
		if got := regs[i].Counter("membership_exchanges_total").Value(); got != exchanges {
			t.Errorf("%s counted %d exchanges, was sent %d", s.Addr(), got, exchanges)
		}
		applied := regs[i].Counter("membership_leaves_total").Value()
		if rejected := regs[i].Counter("membership_leave_rejected_total").Value(); applied+rejected != leaves {
			t.Errorf("%s counted %d+%d leave entries, was sent %d one-entry leaves", s.Addr(), applied, rejected, leaves)
		}
		if got := regs[i].Gauge("membership_view_size").Value(); got != int64(s.Size()) {
			t.Errorf("%s view-size gauge %d, size %d", s.Addr(), got, s.Size())
		}
		if max := s.cfg.MaxView; max > 0 && s.Size() > max {
			t.Errorf("%s view of %d exceeds MaxView %d", s.Addr(), s.Size(), max)
		}
		for _, m := range s.Members() {
			if m.Addr == s.Addr() {
				t.Errorf("%s lists itself", s.Addr())
			}
		}
		if exchanges == 0 || leaves == 0 {
			t.Errorf("%s was sent %d exchanges and %d leaves: schedule too tame", s.Addr(), exchanges, leaves)
		}
	}
}
