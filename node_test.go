package wsgossip_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wsgossip"
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/membership"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// These tests assert the composition root's wiring through the public Node
// only: every feedback edge between the parts NewNode assembles, on a
// virtual clock, over a binding that can refuse a named link and that sees
// every message a node puts on its RAW caller.

// wire is a MemBus whose per-node links record what they carry and refuse
// the (from, to) pairs the test names.
type wire struct {
	bus *soap.MemBus

	mu      sync.Mutex
	refused map[[2]string]bool
	carried map[[3]string]int // {from, to, action} → exchanges put on the raw link
}

func newWire() *wire {
	return &wire{bus: soap.NewMemBus(), refused: map[[2]string]bool{}, carried: map[[3]string]int{}}
}

// refuse makes every one-way send from → to fail like a refused connection
// ("*" matches any sender); heal undoes it.
func (w *wire) refuse(from, to string) {
	w.mu.Lock()
	w.refused[[2]string{from, to}] = true
	w.mu.Unlock()
}
func (w *wire) heal(from, to string) {
	w.mu.Lock()
	delete(w.refused, [2]string{from, to})
	w.mu.Unlock()
}

// count sums the exchanges from → to ("" = any peer) whose action keep admits.
func (w *wire) count(from, to string, keep func(action string) bool) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for k, c := range w.carried {
		if k[0] == from && (to == "" || k[1] == to) && keep(k[2]) {
			n += c
		}
	}
	return n
}

type link struct {
	w    *wire
	from string
}

func (l link) note(to string, env *soap.Envelope) (refused bool) {
	l.w.mu.Lock()
	defer l.w.mu.Unlock()
	l.w.carried[[3]string{l.from, to, env.Addressing().Action}]++
	return l.w.refused[[2]string{l.from, to}] || l.w.refused[[2]string{"*", to}]
}

func (l link) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	l.note(to, env)
	return l.w.bus.Call(ctx, to, env)
}

func (l link) Send(ctx context.Context, to string, env *soap.Envelope) error {
	if l.note(to, env) {
		return fmt.Errorf("wire: connection refused: %s -> %s", l.from, to)
	}
	return l.w.bus.Send(ctx, to, env)
}

func (l link) SendEncoded(ctx context.Context, to string, data []byte) error {
	env, err := soap.Decode(data)
	if err != nil {
		return err
	}
	if l.note(to, env) {
		return fmt.Errorf("wire: connection refused: %s -> %s", l.from, to)
	}
	return l.w.bus.SendEncoded(ctx, to, data)
}

func isMembership(a string) bool { return strings.HasPrefix(a, "urn:wsgossip:membership:") }
func isProbe(a string) bool      { return strings.HasPrefix(a, "urn:wsgossip:probe:") }
func isSubscribe(a string) bool  { return strings.HasSuffix(a, ":subscribe") }
func isData(a string) bool       { return !isMembership(a) && !isProbe(a) && !isSubscribe(a) }

const (
	wireCoordinator = "mem://coordinator"
	wireRound       = 100 * time.Millisecond
	wireCooldown    = 3 * time.Second
	wireWindow      = 5 * wireRound // continuous-query epoch
	wireProbeWait   = 200 * time.Millisecond
)

type wireNote struct {
	XMLName struct{} `xml:"urn:wiretest Note"`
	Seq     int      `xml:"Seq"`
}

// wireCluster is a coordinator, n full nodes and one pushed notification, so
// every node holds an interaction and its repair rounds send a digest to
// every peer in its view, every round.
type wireCluster struct {
	t     *testing.T
	vc    *clock.Virtual
	w     *wire
	coord *wsgossip.Coordinator
	nodes []*wsgossip.Node
}

func addrOf(i int) string { return fmt.Sprintf("mem://n%d", i) }

func newWireCluster(t *testing.T, n int, shape func(i int, cfg *wsgossip.NodeConfig)) *wireCluster {
	t.Helper()
	c := &wireCluster{t: t, vc: clock.NewVirtual(), w: newWire()}
	c.coord = wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address: wireCoordinator,
		RNG:     rand.New(rand.NewSource(1)),
		Params:  func(int) (int, int) { return n, 4 }, // fan out to the whole view
	})
	c.w.bus.Register(wireCoordinator, c.coord.Handler())
	for i := 0; i < n; i++ {
		cfg := wsgossip.NodeConfig{
			Address:     addrOf(i),
			Caller:      link{c.w, addrOf(i)},
			Clock:       c.vc,
			Seed:        int64(i+1) * 8,
			Coordinator: wireCoordinator,
			RepairEvery: wireRound,
			JitterFrac:  0.1,
			Membership: &wsgossip.NodeMembership{
				Seeds: []string{addrOf(0)}, Every: wireRound,
				SuspectAfter: time.Minute, RemoveAfter: 2 * time.Minute, // heartbeats never suspect in these runs
			},
			// One attempt per message: two refused sends open the circuit.
			Delivery:     &wsgossip.DeliveryConfig{MaxAttempts: 1, BreakerThreshold: 2, BreakerCooldown: wireCooldown},
			ProbeK:       -1,
			ProbeTimeout: wireProbeWait,
		}
		if shape != nil {
			shape(i, &cfg)
		}
		node, err := wsgossip.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.w.bus.Register(cfg.Address, node.Handler())
		c.nodes = append(c.nodes, node)
	}
	t.Cleanup(func() {
		for _, node := range c.nodes {
			node.Stop()
		}
	})
	return c
}

// startNodes starts every node; nothing has been advanced yet.
func (c *wireCluster) startNodes() {
	c.t.Helper()
	for _, node := range c.nodes {
		if err := node.Start(context.Background()); err != nil {
			c.t.Fatal(err)
		}
	}
}

// start starts every node, lets the views assemble and pushes one
// notification through the cluster.
func (c *wireCluster) start() {
	c.t.Helper()
	ctx := context.Background()
	c.startNodes()
	c.vc.Advance(5 * wireRound)
	for i, node := range c.nodes {
		if got := node.Membership().Size(); got != len(c.nodes)-1 {
			c.t.Fatalf("n%d sees %d peers, want %d", i, got, len(c.nodes)-1)
		}
	}
	init, err := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
		Address: "mem://init", Caller: link{c.w, "mem://init"}, Activation: wireCoordinator,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	inter, err := init.StartInteraction(ctx)
	if err != nil {
		c.t.Fatal(err)
	}
	if _, _, err := init.Notify(ctx, inter, wireNote{Seq: 1}); err != nil {
		c.t.Fatal(err)
	}
	for i, node := range c.nodes {
		if node.Disseminator().Stats().Delivered != 1 {
			c.t.Fatalf("n%d did not take the notification", i)
		}
	}
}

// until advances the clock in small steps until cond holds.
func (c *wireCluster) until(what string, budget time.Duration, cond func() bool) {
	c.t.Helper()
	for spent := time.Duration(0); !cond(); spent += 10 * time.Millisecond {
		if spent > budget {
			c.t.Fatalf("%s: not within %v", what, budget)
		}
		c.vc.Advance(10 * time.Millisecond)
	}
}

func counter(n *wsgossip.Node, name string) int64 { return n.Registry().Counter(name).Value() }

func labeled(n *wsgossip.Node, family, label, value string) int64 {
	return n.Registry().CounterVec(family, label).With(value).Value()
}

func opened(n *wsgossip.Node) int64 {
	return labeled(n, "delivery_breaker_transitions_total", "to", "open")
}

func contains(list []string, s string) bool {
	for _, e := range list {
		if e == s {
			return true
		}
	}
	return false
}

// TestNodeWiringBrokenLink is edges (a, positive half), (c), (d), (e): the
// link between two healthy nodes dies, n0's circuit to n1 opens, the prober
// — not the membership view — takes the verdict, an indirect ack averts it,
// the view both the Disseminator and the aggregation participant sample
// drops n1 while the raw-caller protocols keep trying the link, and
// recovery clears the mark. (Both directions are cut so that nothing n1
// says provokes an unsampled reply — an ack, a retransmission — from n0.)
func TestNodeWiringBrokenLink(t *testing.T) {
	c := newWireCluster(t, 4, func(i int, cfg *wsgossip.NodeConfig) {
		cfg.Value = func() float64 { return 1 }
		cfg.AggregateEvery = wireRound
		if i == 0 {
			cfg.Queries = []wsgossip.ContinuousQuery{{Name: "nodes", Func: wsgossip.FuncCount}}
			cfg.QueryWindow = wireWindow
		}
	})
	c.start()
	n0, a0, a1 := c.nodes[0], addrOf(0), addrOf(1)
	c.w.refuse(a0, a1)
	c.w.refuse(a1, a0)
	c.until("n0's circuit to n1 opens", time.Second, func() bool { return opened(n0) == 1 })

	// (a) The opening was adjudicated, and the indirect ack averted it.
	if got := labeled(n0, "delivery_indirect_probes_total", "result", "averted"); got != 1 {
		t.Fatalf("averted probe rounds = %d, want 1", got)
	}
	if got := counter(n0, "membership_suspects_total"); got != 0 {
		t.Fatalf("membership_suspects_total = %d after an averted round, want 0", got)
	}
	if !n0.Prober().IsDegraded(a1) || !contains(n0.Membership().Alive(), a1) {
		t.Fatal("n1 must be degraded-but-alive at n0")
	}

	// (d) While the circuit is open the sampled view never yields n1 …
	rng := rand.New(rand.NewSource(9))
	for spent := time.Duration(0); spent < wireWindow+wireRound; spent += 10 * time.Millisecond {
		if peers := n0.PeerView().SelectPeers(rng, -1, a0); contains(peers, a1) || len(peers) != 2 {
			t.Fatalf("view sampled %v with n1's circuit open", peers)
		}
		c.vc.Advance(10 * time.Millisecond)
	}
	// … and both samplers are on that view. The epoch boundary just passed
	// retired the shares n0 had pending at n1 (those retry unsampled), so
	// from here on any send aimed at the open circuit — the plane fast-fails
	// it — is a fresh draw by the Disseminator or by push-sum. (e) Membership
	// meanwhile keeps trying the raw link.
	dataBefore, memberBefore := c.w.count(a0, a1, isData), c.w.count(a0, a1, isMembership)
	fastFailed := labeled(n0, "delivery_drops_total", "reason", "circuit_open")
	c.vc.Advance(2 * wireWindow)
	if got := labeled(n0, "delivery_drops_total", "reason", "circuit_open"); got != fastFailed {
		t.Fatalf("%d sends were aimed at the open circuit: some sampler is not on the filtered view", got-fastFailed)
	}
	if got := c.w.count(a0, a1, isData); got != dataBefore {
		t.Fatalf("%d data exchanges reached the open-circuit link", got-dataBefore)
	}
	if got := c.w.count(a0, a1, isMembership); got <= memberBefore {
		t.Fatal("membership exchanges stopped using the raw link to an open-circuit peer")
	}

	// (e) Everything but membership, probes and the subscription went
	// through the plane: one plane attempt per exchange on the raw link.
	if probes := c.w.count(a0, "", isProbe); probes == 0 {
		t.Fatal("no probe action seen on the raw caller")
	}
	for _, action := range []string{core.ActionNotify, "urn:wsgossip:2008:digest", "urn:wsgossip:2008:aggregate:exchange"} {
		if c.w.count(a0, "", func(a string) bool { return a == action }) == 0 {
			t.Fatalf("n0 never sent %s; the accounting below would prove nothing about it", action)
		}
	}
	if attempts, data := counter(n0, "delivery_attempts_total"), int64(c.w.count(a0, "", isData)); attempts != data {
		t.Fatalf("plane attempts %d != data exchanges on the raw link %d: something bypassed (or double-rode) the plane", attempts, data)
	}
	if got := c.w.count(a0, wireCoordinator, isSubscribe); got != 1 {
		t.Fatalf("n0 subscribed %d times, want once", got)
	}

	// (c) Recovery: the half-open probe rides ordinary traffic, the circuit
	// closes, and OnPeerUp clears the degraded mark.
	c.w.heal(a0, a1)
	c.w.heal(a1, a0)
	c.until("n0's circuit to n1 closes", 2*wireCooldown, func() bool {
		return labeled(n0, "delivery_breaker_transitions_total", "to", "closed") == 1
	})
	if n0.Prober().IsDegraded(a1) {
		t.Fatal("recovery did not clear the degraded mark")
	}
	if !contains(n0.PeerView().SelectPeers(rng, -1, a0), a1) {
		t.Fatal("recovered peer did not return to the sampled view")
	}
}

// TestNodeWiringDeadPeer is edge (a), negative half: with n1 unreachable
// from everyone the helpers cannot vouch for it, and only the end of that
// fully negative round — not the circuit opening — suspects it.
func TestNodeWiringDeadPeer(t *testing.T) {
	c := newWireCluster(t, 4, nil)
	c.start()
	n0, a1 := c.nodes[0], addrOf(1)
	c.w.refuse("*", a1)
	c.until("n0's circuit to n1 opens", time.Second, func() bool { return opened(n0) == 1 })
	if got := counter(n0, "membership_suspects_total"); got != 0 || n0.Prober().Stats().Pending != 1 {
		t.Fatalf("at circuit-open: suspects %d, open rounds %d; want 0 and 1", got, n0.Prober().Stats().Pending)
	}
	c.vc.Advance(wireProbeWait)
	if got := labeled(n0, "delivery_indirect_probes_total", "result", "timeout"); got != 1 {
		t.Fatalf("timed-out probe rounds = %d, want 1", got)
	}
	if got := counter(n0, "membership_suspects_total"); got != 1 || contains(n0.Membership().Alive(), a1) {
		t.Fatalf("after the negative round: suspects %d, n1 alive %v; want 1 and false", got, contains(n0.Membership().Alive(), a1))
	}
}

// TestNodeStopAbandonsOpenProbeRound: a confirmation round still open when
// the node stops is cancelled with everything else — its timeout is not left
// on the clock to suspect a peer on behalf of a node that is gone.
func TestNodeStopAbandonsOpenProbeRound(t *testing.T) {
	c := newWireCluster(t, 4, nil)
	c.start()
	n0, a1 := c.nodes[0], addrOf(1)
	c.w.refuse("*", a1)
	c.until("n0's circuit to n1 opens", time.Second, func() bool { return opened(n0) == 1 })
	if got := n0.Prober().Stats().Pending; got != 1 {
		t.Fatalf("open rounds at Stop = %d, want 1", got)
	}
	for _, node := range c.nodes {
		node.Stop()
	}
	if got := n0.Prober().Stats().Pending; got != 0 {
		t.Fatalf("open rounds after Stop = %d, want 0", got)
	}
	n0.Prober().Confirm(a1) // a closed prober opens no new round
	c.vc.Advance(time.Minute)
	if got := c.vc.Pending(); got != 0 {
		t.Fatalf("%d timers still pending on the clock after Stop", got)
	}
	if got := labeled(n0, "delivery_indirect_probes_total", "result", "timeout"); got != 0 {
		t.Fatalf("%d probe rounds timed out on a stopped node", got)
	}
	if got := counter(n0, "membership_suspects_total"); got != 0 || !contains(n0.Membership().Alive(), a1) {
		t.Fatalf("a stopped node suspected its peer: suspects %d, n1 alive %v", got, contains(n0.Membership().Alive(), a1))
	}
}

// TestNodeWiringNoProber is edge (b): without indirect probing the opened
// circuit suspects the peer directly.
func TestNodeWiringNoProber(t *testing.T) {
	c := newWireCluster(t, 3, func(_ int, cfg *wsgossip.NodeConfig) { cfg.ProbeK = 0 })
	c.start()
	n0 := c.nodes[0]
	if n0.Prober() != nil {
		t.Fatal("ProbeK 0 built a prober")
	}
	c.w.refuse(addrOf(0), addrOf(1))
	c.until("n0's circuit to n1 opens", time.Second, func() bool { return opened(n0) == 1 })
	if got := counter(n0, "membership_suspects_total"); got != 1 || contains(n0.Membership().Alive(), addrOf(1)) {
		t.Fatalf("suspects %d, n1 alive %v; want 1 and false", got, contains(n0.Membership().Alive(), addrOf(1)))
	}
}

// TestNodeWiringGateExemptsMembership is edge (f): with the admission
// bucket empty a membership exchange is still admitted.
func TestNodeWiringGateExemptsMembership(t *testing.T) {
	c := newWireCluster(t, 2, func(i int, cfg *wsgossip.NodeConfig) {
		if i == 0 {
			cfg.AdmitRate, cfg.AdmitBurst = 0.001, 1 // one token, ~17 minutes to the next
		}
	})
	n0 := c.nodes[0]
	request := func(action string) error {
		env := soap.NewEnvelope()
		if err := env.SetAddressing(wsa.Headers{To: addrOf(0), Action: action, MessageID: wsa.NewMessageID()}); err != nil {
			t.Fatal(err)
		}
		_, err := n0.Handler().HandleSOAP(context.Background(), &soap.Request{Envelope: env})
		return err
	}
	_ = request("urn:wiretest:anything") // takes the one token
	if _, hinted := soap.RetryAfterHint(request("urn:wiretest:anything")); !hinted {
		t.Fatal("the saturated gate did not shed")
	}
	before := counter(n0, "membership_exchanges_total")
	c.startNodes()
	c.vc.Advance(3 * wireRound)
	if counter(n0, "membership_exchanges_total") == before || n0.Membership().Size() != 1 {
		t.Fatal("the saturated gate shed membership exchanges")
	}
	if got := labeled(n0, "shed_requests_total", "result", "exempt"); got == 0 {
		t.Fatal("no request passed the gate as exempt")
	}
	if _, hinted := soap.RetryAfterHint(request(membership.ActionLeave)); hinted {
		t.Fatal("a membership leave was shed")
	}
}

// TestNodeWiringAdvertisedProtocols is edge (g): ProtocolAggregate is
// advertised exactly when a value or a query is configured.
func TestNodeWiringAdvertisedProtocols(t *testing.T) {
	c := newWireCluster(t, 3, func(i int, cfg *wsgossip.NodeConfig) {
		switch i {
		case 1:
			cfg.Value, cfg.AggregateEvery = func() float64 { return 1 }, wireRound
		case 2:
			cfg.Queries = []wsgossip.ContinuousQuery{{Name: "nodes", Func: wsgossip.FuncCount}}
			cfg.QueryWindow, cfg.AggregateEvery = wireWindow, wireRound
		}
	})
	c.startNodes()
	c.vc.Advance(0)
	subs := c.coord.Subscribers()
	if len(subs) != 3 {
		t.Fatalf("%d subscribers after Start's zero-delay attempt, want 3", len(subs))
	}
	for _, sub := range subs {
		want := sub.Endpoint != addrOf(0)
		if got := contains(sub.Protocols, core.ProtocolAggregate); got != want {
			t.Errorf("%s advertises aggregate = %v, want %v (%v)", sub.Endpoint, got, want, sub.Protocols)
		}
		if sub.Role != wsgossip.RoleDisseminator || !contains(sub.Protocols, core.ProtocolPushGossip) || !contains(sub.Protocols, core.ProtocolPullGossip) {
			t.Errorf("%s subscribed as %s %v", sub.Endpoint, sub.Role, sub.Protocols)
		}
	}
}

// TestNodeOneClockOneRegistry is edge (h) plus the lifecycle contract: a
// Node given a virtual clock and a registry puts every timer on the one and
// every series family in the other; nothing fires before the first Advance;
// and Stop leaves neither a timer nor a goroutine behind.
func TestNodeOneClockOneRegistry(t *testing.T) {
	regs := make([]*metrics.Registry, 3)
	c := newWireCluster(t, 3, func(i int, cfg *wsgossip.NodeConfig) {
		regs[i] = metrics.NewRegistry()
		cfg.Metrics = regs[i]
		cfg.PullEvery, cfg.AnnounceEvery = wireRound, wireRound
		cfg.AdmitRate = 1000
		cfg.Value, cfg.AggregateEvery = func() float64 { return 1 }, wireRound
		if i == 0 {
			cfg.Queries = []wsgossip.ContinuousQuery{{Name: "nodes", Func: wsgossip.FuncCount}}
			cfg.QueryWindow = wireWindow
		}
	})
	goroutines := runtime.NumGoroutine()
	c.startNodes()
	n0 := c.nodes[0]
	if n0.Registry() != regs[0] {
		t.Fatal("Registry() is not the configured registry")
	}
	if c.vc.Pending() == 0 {
		t.Fatal("Start scheduled nothing on the node's clock")
	}
	for _, loop := range []string{"pull", "repair", "announce", "aggregate", "membership"} {
		if got := labeled(n0, "runner_fires_total", "loop", loop); got != 0 {
			t.Fatalf("loop %s fired %d times before the first Advance", loop, got)
		}
	}
	if sends := c.w.count(addrOf(0), "", func(string) bool { return true }); sends != 0 || len(c.coord.Subscribers()) != 0 {
		t.Fatalf("%d exchanges, %d subscriptions before the first Advance: Start must not touch the network",
			sends, len(c.coord.Subscribers()))
	}

	c.vc.Advance(5 * wireRound)
	c.w.refuse(addrOf(0), addrOf(1)) // open a circuit so the probe series move too
	c.vc.Advance(5 * wireRound)
	var text strings.Builder
	if err := n0.Registry().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"gossip_received_total", "membership_exchanges_total", "delivery_attempts_total",
		"shed_requests_total", "aggregate_rounds_total", "delivery_indirect_probes_total",
		"probe_messages_total", "runner_fires_total", "runner_tick_seconds",
	} {
		if !strings.Contains(text.String(), "# TYPE "+family+" ") {
			t.Errorf("series family %s is not in Node.Registry()", family)
		}
	}
	for _, moved := range []struct {
		name string
		v    int64
	}{
		{"membership_exchanges_total", counter(n0, "membership_exchanges_total")},
		{"delivery_attempts_total", counter(n0, "delivery_attempts_total")},
		{"shed_requests_total{admitted}", labeled(n0, "shed_requests_total", "result", "admitted")},
		{"aggregate_rounds_total", counter(n0, "aggregate_rounds_total")},
		{"probe_messages_total{ping_req}", labeled(n0, "probe_messages_total", "type", "ping_req")},
		{"runner_fires_total{membership}", labeled(n0, "runner_fires_total", "loop", "membership")},
	} {
		if moved.v == 0 {
			t.Errorf("%s never moved in Node.Registry(): that part counts somewhere else", moved.name)
		}
	}

	for _, node := range c.nodes {
		node.Stop()
		node.Stop() // idempotent
	}
	// Stop cancelled every timer the nodes held: a cancelled slot lingers in
	// the virtual queue until its instant passes, so run the clock well past
	// every period, budget and cooldown — nothing may fire, nothing may
	// re-arm.
	carried := c.w.count(addrOf(0), "", func(string) bool { return true })
	fires := labeled(n0, "runner_fires_total", "loop", "membership")
	c.vc.Advance(5 * time.Minute)
	if got := c.vc.Pending(); got != 0 {
		t.Fatalf("%d timers still pending on the node's clock after Stop", got)
	}
	if c.w.count(addrOf(0), "", func(string) bool { return true }) != carried ||
		labeled(n0, "runner_fires_total", "loop", "membership") != fires {
		t.Fatal("a stopped node's timer fired")
	}
	for i := 0; runtime.NumGoroutine() > goroutines; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines after Stop, %d before Start", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := n0.Start(context.Background()); err == nil {
		t.Fatal("a stopped node started again")
	}
}

// TestNewNodeRefusesUnschedulableRounds: NewNode refuses a configuration
// whose rounds cannot run as asked — an aggregation participant with no
// exchange interval (advertised as a push-sum target, it would park every
// share it absorbed, and nothing outside the Node can tick it), and a
// quiescence cap that does not exceed an adaptive round's interval.
func TestNewNodeRefusesUnschedulableRounds(t *testing.T) {
	one := func() float64 { return 1 }
	for name, shape := range map[string]func(*wsgossip.NodeConfig){
		"value without AggregateEvery": func(cfg *wsgossip.NodeConfig) { cfg.Value = one },
		"queries without AggregateEvery": func(cfg *wsgossip.NodeConfig) {
			cfg.Queries = []wsgossip.ContinuousQuery{{Name: "nodes", Func: wsgossip.FuncCount}}
			cfg.QueryWindow = wireWindow
		},
		"QuiescentMax equal to PullEvery": func(cfg *wsgossip.NodeConfig) {
			cfg.PullEvery, cfg.QuiescentMax = time.Second, time.Second
		},
		"QuiescentMax equal to AggregateEvery": func(cfg *wsgossip.NodeConfig) {
			cfg.Value, cfg.AggregateEvery, cfg.QuiescentMax = one, time.Second, time.Second
		},
	} {
		cfg := wsgossip.NodeConfig{Address: addrOf(0), Caller: soap.NewMemBus(), Clock: clock.NewVirtual(), Coordinator: wireCoordinator}
		shape(&cfg)
		if _, err := wsgossip.NewNode(cfg); err == nil {
			t.Errorf("%s: NewNode accepted it", name)
		}
	}
}

// scheduleGolden is TestNodeScheduleGolden's expected trace: after each step,
// every loop's name, fire count, current interval and backoff level, in the
// runner's loop order.
const scheduleGolden = `start+1s
  pull fires=3 current=800ms level=3
  repair fires=2 current=800ms level=2
  announce fires=20 current=50ms level=0
  aggregate fires=3 current=800ms level=3
  membership fires=7 current=150ms level=0
quiescent+10s
  pull fires=9 current=1.6s level=4
  repair fires=9 current=1.6s level=3
  announce fires=220 current=50ms level=0
  aggregate fires=9 current=1.6s level=4
  membership fires=74 current=150ms level=0
wake+250ms
  pull fires=11 current=200ms level=1
  repair fires=10 current=200ms level=0
  announce fires=225 current=50ms level=0
  aggregate fires=10 current=200ms level=1
  membership fires=75 current=150ms level=0
quiescent+5s
  pull fires=16 current=1.6s level=4
  repair fires=15 current=1.6s level=3
  announce fires=323 current=50ms level=0
  aggregate fires=15 current=1.6s level=4
  membership fires=109 current=150ms level=0
`

// TestNodeScheduleGolden pins the round schedule NewNode builds for one
// fully configured node at a fixed seed on a virtual clock: the loop order,
// the seeded phases and jitter, the quiescent backoff of pull, repair and
// aggregate toward QuiescentMax while announce and membership keep their
// pace, and the snap-back when a notification wakes the node.
func TestNodeScheduleGolden(t *testing.T) {
	vc, bus := clock.NewVirtual(), soap.NewMemBus()
	coord := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address: wireCoordinator,
		RNG:     rand.New(rand.NewSource(1)),
	})
	bus.Register(wireCoordinator, coord.Handler())
	node, err := wsgossip.NewNode(wsgossip.NodeConfig{
		Address:        addrOf(0),
		Caller:         bus,
		Clock:          vc,
		Seed:           77,
		Coordinator:    wireCoordinator,
		PullEvery:      100 * time.Millisecond,
		RepairEvery:    200 * time.Millisecond,
		AnnounceEvery:  50 * time.Millisecond,
		JitterFrac:     0.2,
		QuiescentMax:   1600 * time.Millisecond,
		Value:          func() float64 { return 1 },
		AggregateEvery: 100 * time.Millisecond,
		Membership: &wsgossip.NodeMembership{
			Every: 150 * time.Millisecond, SuspectAfter: time.Minute, RemoveAfter: 2 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register(addrOf(0), node.Handler())
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	var trace strings.Builder
	step := func(label string, d time.Duration) {
		vc.Advance(d)
		fmt.Fprintf(&trace, "%s\n", label)
		for _, l := range node.Health().Loops {
			fmt.Fprintf(&trace, "  %s fires=%d current=%s level=%d\n", l.Name, l.Fires, l.Current, l.BackoffLevel)
		}
	}
	step("start+1s", time.Second)
	step("quiescent+10s", 10*time.Second)
	init, err := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
		Address: "mem://init", Caller: bus, Activation: wireCoordinator,
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartInteraction(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, sent, err := init.Notify(context.Background(), inter, wireNote{Seq: 1}); err != nil || sent != 1 {
		t.Fatalf("notify: sent %d, err %v", sent, err)
	}
	step("wake+250ms", 250*time.Millisecond)
	step("quiescent+5s", 5*time.Second)
	if got := trace.String(); got != scheduleGolden {
		t.Fatalf("schedule trace changed:\n%s\nwant:\n%s", got, scheduleGolden)
	}
}

// blackhole is a binding whose every exchange hangs until its context ends —
// an unreachable seed or coordinator.
type blackhole struct{ entered chan struct{} }

func (b blackhole) Call(ctx context.Context, _ string, _ *soap.Envelope) (*soap.Envelope, error) {
	return nil, b.Send(ctx, "", nil)
}

func (b blackhole) SendEncoded(ctx context.Context, _ string, _ []byte) error {
	return b.Send(ctx, "", nil)
}

func (b blackhole) Send(ctx context.Context, _ string, _ *soap.Envelope) error {
	select {
	case b.entered <- struct{}{}:
		<-ctx.Done()
	case <-ctx.Done():
	}
	return ctx.Err()
}

// TestNodeStartNeverWaitsOnTheNetwork: on the wall clock with a blackholed
// seed and coordinator, Start returns before either attempt does (the binary
// serves its listener next), join and subscribe proceed concurrently, and
// Stop cancels both and returns.
func TestNodeStartNeverWaitsOnTheNetwork(t *testing.T) {
	hole := blackhole{entered: make(chan struct{})}
	node, err := wsgossip.NewNode(wsgossip.NodeConfig{
		Address:     addrOf(0),
		Caller:      hole,
		Coordinator: wireCoordinator,
		Membership: &wsgossip.NodeMembership{
			Seeds: []string{addrOf(1)}, Every: wireRound, SuspectAfter: time.Minute, RemoveAfter: 2 * time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // both attempts are in flight at once, Start long returned
		select {
		case <-hole.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of join and subscribe reached the binding", i)
		}
	}
	stopped := make(chan struct{})
	go func() { node.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not cancel the in-flight join and subscribe")
	}
}

// TestNodeSurvivesHandlerPanic: an App that panics on the first
// notification costs that notification only. The node answers it with a
// Receiver fault and counts soap_handler_panics_total instead of unwinding
// into the binding, so the bus keeps delivering and the second notification
// reaches the App — for a disseminator and a consumer alike.
func TestNodeSurvivesHandlerPanic(t *testing.T) {
	for _, role := range []string{wsgossip.RoleDisseminator, wsgossip.RoleConsumer} {
		t.Run(role, func(t *testing.T) {
			ctx := context.Background()
			bus := soap.NewMemBus()
			calls := 0
			app := soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) {
				if calls++; calls == 1 {
					panic("application bug")
				}
				return nil, nil
			})
			node, err := wsgossip.NewNode(wsgossip.NodeConfig{
				Address: "mem://node", Caller: bus, Clock: clock.NewVirtual(), Role: role, App: app,
			})
			if err != nil {
				t.Fatal(err)
			}
			bus.Register("mem://node", node.Handler())
			for seq := 1; seq <= 2; seq++ {
				env := soap.NewEnvelope()
				if err := env.SetAddressing(wsa.Headers{To: "mem://node", Action: core.ActionNotify, MessageID: wsa.NewMessageID()}); err != nil {
					t.Fatal(err)
				}
				if err := env.SetBody(wireNote{Seq: seq}); err != nil {
					t.Fatal(err)
				}
				if err := bus.Send(ctx, "mem://node", env); err != nil {
					t.Fatalf("notification %d: %v", seq, err)
				}
			}
			if calls != 2 {
				t.Fatalf("the App saw %d notifications, want both", calls)
			}
			if got := counter(node, "soap_handler_panics_total"); got != 1 {
				t.Fatalf("soap_handler_panics_total = %d, want 1", got)
			}
		})
	}
}
