package scenario

import (
	"context"
	"encoding/xml"
	"sort"
	"strings"
	"testing"
	"time"

	"wsgossip"
	"wsgossip/internal/delivery"
	"wsgossip/internal/faults"
	"wsgossip/internal/membership"
	"wsgossip/internal/probe"
	"wsgossip/internal/soap"
	"wsgossip/internal/testbed"
	"wsgossip/internal/wsa"
)

// This file holds the asymmetric-failure chaos scenarios: full nodes —
// membership view + delivery plane + indirect prober — over the testbed.Bus
// fault table, asserting that one-way link faults, NAT'd nodes, and
// multi-fault plan compositions degrade links instead of evicting healthy
// peers, with exact metric accounting.

const (
	actionChaosEvent = "urn:wsgossip:chaos:event"
	chaosWindow      = 100 * time.Millisecond
	chaosSuspect     = 10 * time.Second
	chaosRemove      = 20 * time.Second
)

type chaosEvent struct {
	XMLName xml.Name `xml:"urn:wsgossip:chaos Event"`
	Seq     int      `xml:"Seq"`
}

func newChaosCluster(t *testing.T, seed int64, n, k int) *overlay {
	t.Helper()
	c := newChaosFabric(t, seed, k, nil)
	c.addNodes(n)
	return c
}

// newChaosFabric is an overlay of full nodes — membership for the live
// view, a delivery plane for payload fan-out, and a prober adjudicating
// circuit openings — with no nodes yet. Payloads spread by flooding: first
// receipt forwards to every alive peer through the delivery plane, so every
// node exercises its breaker against every link. k caps the prober's
// helpers (0 = ask all); shape, when set, edits each node's config before
// it is built — the way a scenario switches on the layers the probe
// scenarios leave off.
func newChaosFabric(t *testing.T, seed int64, k int, shape func(idx int, cfg *wsgossip.NodeConfig)) *overlay {
	t.Helper()
	if k == 0 {
		k = -1 // NodeConfig spells "ask every helper" as negative; 0 would disable probing
	}
	// No round intervals: the scenarios tick membership by hand, in
	// lockstep windows. Start only joins through node 0.
	return newOverlay(t, testbed.Spec[wsgossip.NodeConfig]{
		Seed: seed, Addr: "mem://node%02d", Shape: shape,
		Config: wsgossip.NodeConfig{
			Membership: &wsgossip.NodeMembership{SuspectAfter: chaosSuspect, RemoveAfter: chaosRemove},
			Delivery: &delivery.Config{
				QueueCap:         16,
				AttemptTimeout:   time.Second,
				MaxAttempts:      3,
				BackoffBase:      50 * time.Millisecond,
				BackoffMax:       400 * time.Millisecond,
				BreakerThreshold: 3,
				BreakerCooldown:  400 * time.Millisecond,
			},
			ProbeK:       k,
			ProbeTimeout: 500 * time.Millisecond,
		},
	})
}

// addNodes adds n nodes, each joining through node 0.
func (c *overlay) addNodes(n int) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		c.addNode()
	}
}

func (c *overlay) addrOf(idx int) string { return c.Addrs[idx] }

// flood forwards seq from n to every alive peer through n's delivery
// plane. Send errors are the plane's business (retry, breaker, probe).
func (c *overlay) flood(n *overlayNode, seq int) {
	for _, peer := range n.Membership().Alive() {
		env := soap.NewEnvelope()
		if err := env.SetAddressing(wsa.Headers{To: peer, Action: actionChaosEvent, MessageID: wsa.NewMessageID()}); err != nil {
			c.t.Fatal(err)
		}
		if err := env.SetBody(chaosEvent{Seq: seq}); err != nil {
			c.t.Fatal(err)
		}
		_ = n.Plane().Send(context.Background(), peer, env)
	}
}

// broadcast starts an epidemic: the origin delivers seq locally and floods.
func (c *overlay) broadcast(origin string, seq int) {
	n := c.nodes[origin]
	n.seen[seq] = true
	c.flood(n, seq)
}

// runWindows drives up to budget windows — every node's membership tick,
// then one window of virtual time — returning the window count at which
// done first held, or budget+1. A nil done runs the full budget.
func (c *overlay) runWindows(budget int, done func() bool) int {
	ctx := context.Background()
	for w := 1; w <= budget; w++ {
		for _, n := range c.Nodes {
			n.Membership().Tick(ctx)
		}
		c.Clock.Advance(chaosWindow)
		if done != nil && done() {
			return w
		}
	}
	if done == nil {
		return budget
	}
	return budget + 1
}

// bootstrap assembles the full-view overlay and asserts it converged.
func (c *overlay) bootstrap() {
	c.t.Helper()
	c.runWindows(20, nil)
	for _, addr := range c.Addrs {
		if got := c.nodes[addr].Membership().Size(); got != len(c.Addrs)-1 {
			c.t.Fatalf("%s bootstrapped %d/%d peers", addr, got, len(c.Addrs)-1)
		}
	}
}

// covered reports which nodes have seen seq, as a deterministic bitmask.
func (c *overlay) covered(seq int) string {
	var b strings.Builder
	for _, addr := range c.Addrs {
		if c.nodes[addr].seen[seq] {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func (c *overlay) fullCoverage(seq int) bool {
	return !strings.Contains(c.covered(seq), "0")
}

func aliveContains(s *membership.Service, addr string) bool {
	for _, a := range s.Alive() {
		if a == addr {
			return true
		}
	}
	return false
}

// TestChaosAsymmetricLinkNoFalseSuspicion is the core asymmetric-failure
// case: exactly one direction of one link refuses connections. The
// sender's circuit opens — once — and instead of suspecting the healthy
// peer, the indirect probe confirms it via helpers: zero suspicions
// anywhere, the peer stays in the alive view, the link is marked
// degraded, and the epidemic still covers every node within budget
// because relays carry the payload around the dead direction.
func TestChaosAsymmetricLinkNoFalseSuspicion(t *testing.T) {
	c := newChaosCluster(t, 1201, 8, 3)
	c.bootstrap()
	a, b := c.addrOf(1), c.addrOf(2)
	c.Bus.Faults().RefuseLink("oneway", []string{a}, []string{b})

	c.broadcast(a, 1)
	const budget = 20
	if w := c.runWindows(budget, func() bool { return c.fullCoverage(1) }); w > budget {
		t.Fatalf("coverage %s after %d windows; the one-way fault must not stall the epidemic", c.covered(1), budget)
	}
	// Let the retry/breaker/probe machinery fully settle.
	c.runWindows(10, nil)

	na := c.nodes[a]
	opened := na.Registry().CounterVec("delivery_breaker_transitions_total", "to").With("open").Value()
	averted := na.Registry().Counter("membership_suspicions_averted_total").Value()
	if opened != 1 {
		t.Fatalf("a's breaker opened %d times, want exactly 1 (no flapping)", opened)
	}
	if averted != opened {
		t.Fatalf("averted suspicions = %d, opened circuits = %d; every opening must be adjudicated", averted, opened)
	}
	if got := na.Registry().CounterVec("delivery_indirect_probes_total", "result").With(probe.ResultAverted).Value(); got != 1 {
		t.Fatalf("averted probe rounds = %d, want 1", got)
	}
	if got := c.SumCounter("membership_suspects_total"); got != 0 {
		t.Fatalf("membership_suspects_total = %d across the cluster, want 0: the one-way link must not produce false suspicions", got)
	}
	if !aliveContains(na.Membership(), b) {
		t.Fatalf("%s dropped healthy %s from its alive view", a, b)
	}
	if !na.Prober().IsDegraded(b) {
		t.Fatalf("%s -> %s not marked asymmetric-degraded", a, b)
	}
	// The rest of the cluster never even opened a circuit.
	if got := c.SumLabeled("delivery_breaker_transitions_total", "to", "open"); got != 1 {
		t.Fatalf("cluster-wide breaker openings = %d, want 1 (only the faulted direction)", got)
	}
	// Exact fault accounting: every bus refusal is the named rule's.
	if got, want := int64(c.Bus.Refused()), c.Bus.Faults().Counts()["oneway"]; got != want {
		t.Fatalf("bus refusals %d != rule count %d", got, want)
	}
}

// TestChaosNATReachableOnlyViaRelays puts one node behind a reachability
// matrix: inbound only from two designated relays. Every non-relay's
// circuit to it opens and is averted through the relays, traffic reaches
// it via relay forwarding only, and nobody suspects it.
func TestChaosNATReachableOnlyViaRelays(t *testing.T) {
	c := newChaosCluster(t, 1301, 8, 0) // K=0: ask every helper, so relays are always consulted
	c.bootstrap()
	nat := c.addrOf(6)
	relays := []string{c.addrOf(1), c.addrOf(2)}
	c.Bus.Faults().SetNAT(nat, relays...)

	c.broadcast(c.addrOf(0), 1)
	const budget = 20
	if w := c.runWindows(budget, func() bool { return c.fullCoverage(1) }); w > budget {
		t.Fatalf("coverage %s after %d windows; the NAT'd node must be fed via its relays", c.covered(1), budget)
	}
	c.runWindows(10, nil)

	isRelay := map[string]bool{relays[0]: true, relays[1]: true}
	var totalOpened, totalAverted int64
	for _, addr := range c.Addrs {
		n := c.nodes[addr]
		opened := n.Registry().CounterVec("delivery_breaker_transitions_total", "to").With("open").Value()
		averted := n.Registry().Counter("membership_suspicions_averted_total").Value()
		totalOpened += opened
		totalAverted += averted
		switch {
		case addr == nat || isRelay[addr]:
			if opened != 0 {
				t.Fatalf("%s opened %d circuits; relays and the NAT'd node itself have clear paths", addr, opened)
			}
		default:
			if opened != 1 {
				t.Fatalf("%s opened %d circuits to the NAT'd node, want 1", addr, opened)
			}
			if !n.Prober().IsDegraded(nat) {
				t.Fatalf("%s did not mark the NAT'd node degraded", addr)
			}
		}
		if !aliveContains(n.Membership(), nat) && addr != nat {
			t.Fatalf("%s dropped the NAT'd node from its alive view", addr)
		}
	}
	if totalAverted != totalOpened {
		t.Fatalf("averted %d != opened %d: exact adjudication accounting broken", totalAverted, totalOpened)
	}
	if got := c.SumCounter("membership_suspects_total"); got != 0 {
		t.Fatalf("membership_suspects_total = %d, want 0: NAT must degrade links, not evict the node", got)
	}
	// Every refusal on the bus is the NAT matrix's doing.
	if got, want := int64(c.Bus.Refused()), c.Bus.Faults().Counts()[faults.RuleNATPrefix+nat]; got != want {
		t.Fatalf("bus refusals %d != NAT rule count %d", got, want)
	}
}

// fourFaultPlan composes global loss, an asymmetric refuse link, a partition
// and crash/recover churn over a ten-node chaosCluster.
const fourFaultPlan = `
0ms   loss 0.1
0ms   refuse mem://node01->mem://node03 name=oneway
250ms partition mem://node0{0..4} name=split
300ms crash mem://node07
450ms heal split
600ms recover mem://node07
700ms heal-all
`

// compoSummary captures everything a composition replay must reproduce.
type compoSummary struct {
	sent, dropped, delivered, refused int
	counts                            map[string]int64
	suspects, averted, opened         int64
	seen1, seen2                      string
}

// TestChaosFourFaultComposition scripts four fault classes — global loss,
// an asymmetric refuse link, a partition, and crash/recover churn — as one
// declarative plan, runs it over full nodes, and checks (a) the asymmetric
// link is adjudicated, not suspected, (b) a post-heal epidemic reaches
// everyone including the recovered node, and (c) the entire composition
// replays to identical accounting under the same seed.
func TestChaosFourFaultComposition(t *testing.T) {
	run := func() compoSummary {
		c := newChaosCluster(t, 1401, 10, 0)
		c.bootstrap()
		p, err := faults.ParsePlan(fourFaultPlan)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Bus.Schedule(p); err != nil {
			t.Fatal(err)
		}
		// Event 1 lands while loss + the one-way refuse are active and the
		// partition is about to bite; flooding is one-shot, so its coverage
		// may legitimately be partial — what matters is determinism and that
		// no healthy node gets suspected.
		c.Clock.Advance(20 * time.Millisecond)
		c.broadcast(c.addrOf(1), 1)
		c.runWindows(10, nil) // drive through the whole 700ms plan and settle

		// Event 2 after heal-all: the fabric is clean again and node07 is
		// back, so coverage must be total.
		c.broadcast(c.addrOf(5), 2)
		const budget = 20
		if w := c.runWindows(budget, func() bool { return c.fullCoverage(2) }); w > budget {
			t.Fatalf("post-heal coverage %s after %d windows", c.covered(2), budget)
		}

		s := compoSummary{
			counts:   c.Bus.Faults().Counts(),
			suspects: c.SumCounter("membership_suspects_total"),
			averted:  c.SumCounter("membership_suspicions_averted_total"),
			opened:   c.SumLabeled("delivery_breaker_transitions_total", "to", "open"),
			seen1:    c.covered(1),
			seen2:    c.covered(2),
		}
		s.sent, s.dropped, s.delivered = c.Bus.Stats()
		s.refused = c.Bus.Refused()

		n1 := c.nodes[c.addrOf(1)]
		if !aliveContains(n1.Membership(), c.addrOf(3)) {
			t.Fatalf("node01 dropped node03 (healthy, one-way-refused) from its alive view")
		}
		if !n1.Prober().IsDegraded(c.addrOf(3)) && c.Bus.Faults().Active() {
			t.Fatal("node01 did not degrade the refused link")
		}
		return s
	}

	s1 := run()
	if s1.suspects != 0 {
		t.Fatalf("suspicions = %d, want 0: every circuit opening must be averted (faults were asymmetric or silent)", s1.suspects)
	}
	if s1.opened == 0 || s1.averted != s1.opened {
		t.Fatalf("averted %d != opened %d (want equal and non-zero)", s1.averted, s1.opened)
	}
	for _, rule := range []string{"oneway", "split", faults.RuleLoss} {
		if s1.counts[rule] == 0 {
			t.Fatalf("rule %q never bit; the composition did not compose (counts: %v)", rule, s1.counts)
		}
	}
	if int64(s1.refused) != s1.counts["oneway"] {
		t.Fatalf("bus refusals %d != oneway rule count %d", s1.refused, s1.counts["oneway"])
	}

	// Same plan + same seed ⇒ identical everything.
	s2 := run()
	if s1.sent != s2.sent || s1.dropped != s2.dropped || s1.delivered != s2.delivered || s1.refused != s2.refused {
		t.Fatalf("bus stats differ across replays:\n  %+v\n  %+v", s1, s2)
	}
	if s1.seen1 != s2.seen1 || s1.seen2 != s2.seen2 {
		t.Fatalf("coverage differs across replays: %s/%s vs %s/%s", s1.seen1, s1.seen2, s2.seen1, s2.seen2)
	}
	if s1.suspects != s2.suspects || s1.averted != s2.averted || s1.opened != s2.opened {
		t.Fatalf("failure-detector accounting differs across replays:\n  %+v\n  %+v", s1, s2)
	}
	keys := make([]string, 0, len(s1.counts))
	for k := range s1.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if s1.counts[k] != s2.counts[k] {
			t.Fatalf("rule %q count differs across replays: %d vs %d", k, s1.counts[k], s2.counts[k])
		}
	}
}

// TestChaosHalfOpenProbeDegradedNotDown pins the long-horizon behaviour of
// a breaker against a one-way-dead link: the circuit opens once, every
// half-open probe fails without re-firing OnPeerDown, the indirect
// confirmation holds the peer at "degraded, not down" — and when the link
// heals, one successful probe closes the circuit and clears the mark.
func TestChaosHalfOpenProbeDegradedNotDown(t *testing.T) {
	c := newChaosCluster(t, 1501, 5, 0)
	c.bootstrap()
	a, b := c.addrOf(1), c.addrOf(2)
	c.Bus.Faults().RefuseLink("oneway", []string{a}, []string{b})
	na := c.nodes[a]

	// A long stretch of virtual time with steady traffic pressure: each
	// window pushes another payload at b, exercising fast-fails and
	// half-open probes over many cooldown cycles.
	seq := 10
	c.broadcast(a, seq)
	for i := 0; i < 40; i++ {
		seq++
		c.broadcast(a, seq)
		c.runWindows(2, nil)
	}

	trans := na.Registry().CounterVec("delivery_breaker_transitions_total", "to")
	if got := trans.With("open").Value(); got != 1 {
		t.Fatalf("breaker opened %d times over 8s of failed half-open probes, want exactly 1", got)
	}
	if got := trans.With("closed").Value(); got != 0 {
		t.Fatalf("breaker closed %d times while the link was still dead", got)
	}
	if got := na.Registry().Counter("membership_suspicions_averted_total").Value(); got != 1 {
		t.Fatalf("averted = %d, want 1 (OnPeerDown must not re-fire on failed probes)", got)
	}
	if !na.Prober().IsDegraded(b) || !aliveContains(na.Membership(), b) {
		t.Fatalf("b must be degraded-but-alive at a (degraded=%v)", na.Prober().IsDegraded(b))
	}
	if got := c.SumCounter("membership_suspects_total"); got != 0 {
		t.Fatalf("suspects = %d, want 0", got)
	}

	// Heal: the next due probe succeeds, the circuit closes, OnPeerUp
	// clears the degraded mark, and payloads flow directly again.
	c.Bus.Faults().Heal("oneway")
	for i := 0; i < 10 && trans.With("closed").Value() == 0; i++ {
		seq++
		c.broadcast(a, seq)
		c.runWindows(2, nil)
	}
	if got := trans.With("closed").Value(); got != 1 {
		t.Fatalf("breaker close transitions after heal = %d, want 1", got)
	}
	if na.Prober().IsDegraded(b) {
		t.Fatal("OnPeerUp did not clear the degraded mark after recovery")
	}
	if !c.nodes[b].seen[seq] {
		t.Fatalf("b never received the post-heal payload seq %d", seq)
	}
}
