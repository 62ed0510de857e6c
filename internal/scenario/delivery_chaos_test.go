// Delivery-plane chaos scenarios: the failure-aware outbound plane under
// flapping links, a saturated receiver, and misbehaving envelopes — all on
// the virtual clock, all asserting that the delivery_* and shed_* metric
// families account for every injected fault exactly.
package scenario

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/epidemic"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// sumCounter totals one plain counter across every node registry plus the
// initiator's.
func (c *cluster) sumCounter(name string) int64 {
	total := c.initReg.Counter(name).Value()
	for _, reg := range c.regs {
		total += reg.Counter(name).Value()
	}
	return total
}

// sumLabeled totals one labeled counter across every node registry plus
// the initiator's.
func (c *cluster) sumLabeled(name, label, value string) int64 {
	total := c.initReg.CounterVec(name, label).With(value).Value()
	for _, reg := range c.regs {
		total += reg.CounterVec(name, label).With(value).Value()
	}
	return total
}

// sumGauge totals one gauge across every node registry plus the initiator's.
func (c *cluster) sumGauge(name string) int64 {
	total := c.initReg.Gauge(name).Value()
	for _, reg := range c.regs {
		total += reg.Gauge(name).Value()
	}
	return total
}

// queuedTotal sums the outbound backlog across every delivery plane.
func (c *cluster) queuedTotal() int {
	total := 0
	for _, p := range c.planes {
		if p != nil {
			total += p.Stats().Queued
		}
	}
	if c.initPlane != nil {
		total += c.initPlane.Stats().Queued
	}
	return total
}

// TestChaosFlappingLink refuses every one-way send to one node for a
// stretch: sender planes retry, exhaust per-message budgets, and open the
// victim's circuit. The transport-failure counters must equal the bus's
// refused count exactly. After the link heals, half-open probes riding
// ordinary traffic close every opened circuit and anti-entropy completes the
// victim's coverage. It holds on every cluster seed of the range, not one
// lucky one.
func TestChaosFlappingLink(t *testing.T) {
	for seed := int64(211); seed <= 230; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runFlappingLink(t, seed) })
	}
}

func runFlappingLink(t *testing.T, seed int64) {
	const (
		n      = 24
		victim = 5
		// maxEvents bounds the post-heal events issued to give every tripped
		// plane traffic toward the victim.
		maxEvents = 40
	)
	// Every node may target every other: a plane whose circuit opened while
	// it only answered the victim's digests — the victim absent from its own
	// target list — would otherwise never again send the victim anything to
	// probe with.
	c := newCluster(t, clusterConfig{
		n: n, seed: seed, targets: n - 1,
		repairEvery: 200 * time.Millisecond,
		plane: func(i int) *delivery.Config {
			return &delivery.Config{
				MaxAttempts:      3,
				AttemptTimeout:   time.Second,
				BackoffBase:      50 * time.Millisecond,
				BackoffMax:       200 * time.Millisecond,
				BreakerThreshold: 3,
				BreakerCooldown:  400 * time.Millisecond,
			}
		},
	})
	ctx := context.Background()

	inter, err := c.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Every node registers up front, so anti-entropy repairs a node the eager
	// push happened to miss — an unregistered node sends no digests.
	for _, d := range c.dissems {
		if err := d.JoinInteraction(ctx, inter.Context, core.ProtocolPushGossip); err != nil {
			t.Fatal(err)
		}
	}
	// Event 1 on a healthy overlay: the planes must be transparent.
	if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if w := advanceUntil(c.clk, 200*time.Millisecond, 20, func() bool {
		return c.coverage(nil, 1) == n
	}); w > 20 {
		t.Fatalf("healthy-overlay event covered %d/%d", c.coverage(nil, 1), n)
	}
	if got := c.sumLabeled("delivery_attempt_failures_total", "kind", "transport"); got != 0 {
		t.Fatalf("healthy overlay shows %d transport failures", got)
	}

	// The victim's inbound link starts refusing connections.
	victimAddr := c.addrs[victim]
	c.bus.Faults().RefuseLink("victim", nil, []string{victimAddr})
	if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	others := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		others[i] = i != victim
	}
	if w := advanceUntil(c.clk, 200*time.Millisecond, 20, func() bool {
		return c.coverage(others, 2) == n-1
	}); w > 20 {
		t.Fatalf("event 2 covered %d/%d live nodes during the flap", c.coverage(others, 2), n-1)
	}
	if c.apps[victim].Count() >= 2 {
		t.Fatal("victim received event 2 through a refused link")
	}
	// Every attempt that reached the wire was refused; the planes' transport
	// failure counters must tell exactly that story — no more, no less.
	if fails, refused := c.sumLabeled("delivery_attempt_failures_total", "kind", "transport"), int64(c.bus.Refused()); fails != refused {
		t.Fatalf("transport failures %d != refused sends %d", fails, refused)
	}
	opened := c.sumLabeled("delivery_breaker_transitions_total", "to", "open")
	if opened == 0 {
		t.Fatal("sustained refusal opened no circuit")
	}
	if open := c.sumGauge("delivery_breaker_open"); open == 0 {
		t.Fatal("no circuit currently open at the height of the flap")
	}

	// Heal. Repair digests reach the victim again and anti-entropy delivers
	// the missed event.
	c.bus.Faults().Heal("victim")
	if w := advanceUntil(c.clk, 200*time.Millisecond, 40, func() bool {
		return c.coverage(nil, 2) == n
	}); w > 40 {
		t.Fatalf("after heal: event 2 covered %d/%d", c.coverage(nil, 2), n)
	}
	// Probes ride real traffic, and a plane only probes a peer it has
	// something to send: the initiator only when asked, a repair sender only
	// when its sample picks the victim. One event per window gives every
	// tripped plane something to probe the victim with until every circuit
	// has re-closed.
	last := 2
	for c.sumGauge("delivery_breaker_open") != 0 {
		if last-2 == maxEvents {
			t.Fatalf("after heal: %d circuits still open after %d more events", c.sumGauge("delivery_breaker_open"), maxEvents)
		}
		last++
		if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: last}); err != nil {
			t.Fatal(err)
		}
		c.clk.Advance(200 * time.Millisecond)
	}
	if w := advanceUntil(c.clk, 200*time.Millisecond, 60, func() bool {
		return c.coverage(nil, last) == n && c.sumGauge("delivery_breaker_open") == 0
	}); w > 60 {
		t.Fatalf("after heal: coverage %d/%d, %d circuits still open",
			c.coverage(nil, last), n, c.sumGauge("delivery_breaker_open"))
	}
	closed := c.sumLabeled("delivery_breaker_transitions_total", "to", "closed")
	openedNow := c.sumLabeled("delivery_breaker_transitions_total", "to", "open")
	if closed != openedNow {
		t.Fatalf("breaker transitions unbalanced after recovery: %d opens, %d closes", openedNow, closed)
	}
	// Refusal must not have counted as receiver overload anywhere.
	if got := c.sumCounter("delivery_deferrals_total"); got != 0 {
		t.Fatalf("connection refusal produced %d retry-after deferrals", got)
	}
	t.Logf("flapping link: %d refused sends, %d circuits opened and all re-closed after %d post-heal events, victim repaired",
		c.bus.Refused(), openedNow, last-2)
}

// TestChaosSaturatedReceiver is the overload contract end to end: one
// receiver admits one notification per 100ms and sheds the rest with
// retry-after hints; every sender routes through a delivery plane that
// honors the hint. The epidemic must still close within the analytic
// budget plus the shed-pacing tail, no message may be retried past its
// budget, and the shed/deferral/retry counters must agree exactly.
func TestChaosSaturatedReceiver(t *testing.T) {
	const (
		n      = 24
		victim = 7
	)
	planeCfg := func(int) *delivery.Config {
		return &delivery.Config{
			// Generous attempt budget: the point of this scenario is that
			// pacing, not dropping, absorbs the overload.
			MaxAttempts:    64,
			AttemptTimeout: time.Second,
		}
	}
	// Generous fanout concentrates senders on the victim; repair runs, but
	// slowly: pacing by the planes — not anti-entropy — is what must absorb
	// the overload within the budget.
	c := newCluster(t, clusterConfig{n: n, seed: 223, plane: planeCfg,
		fanout: 6, hops: 8,
		repairEvery: 500 * time.Millisecond})
	ctx := context.Background()

	// Synchronous bus: a shed fault comes back on the send, as over HTTP.
	c.bus.SetSync(true)

	// The victim sheds data-plane notifications beyond 10/s (burst 1); the
	// control plane and repair stay exempt — overload must not eject the
	// node from coordination.
	gate := delivery.NewGate(delivery.GateConfig{
		Clock:   c.clk,
		Rate:    10,
		Burst:   1,
		Metrics: c.regs[victim],
		Exempt:  func(action string) bool { return action != core.ActionNotify },
	})
	c.bus.Register(c.addrs[victim], soap.Chain(c.dissems[victim].Handler(), gate.Middleware()))

	inter, err := c.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Every node registers the interaction up front so anti-entropy can
	// backstop any edge the eager push lost to hop exhaustion — the victim
	// forwards admitted copies late, possibly with no hop budget left.
	for _, d := range c.dissems {
		if err := d.JoinInteraction(ctx, inter.Context, core.ProtocolPushGossip); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
		t.Fatal(err)
	}

	// Budget: the analytic push rounds (instant on the synchronous bus)
	// plus one 100ms admission window per message the victim must absorb —
	// at most one queued notification per sending plane.
	analytic, err := epidemic.RoundsForCoverage(n, inter.Params.Fanout, 0.99, 100)
	if err != nil {
		t.Fatal(err)
	}
	budget := analytic + n + 4
	windows := advanceUntil(c.clk, 100*time.Millisecond, budget, func() bool {
		return c.coverage(nil, 1) == n && c.queuedTotal() == 0
	})
	if windows > budget {
		t.Fatalf("saturated receiver: coverage %d/%d, %d still queued after %d windows",
			c.coverage(nil, 1), n, c.queuedTotal(), budget)
	}

	// Exact fault accounting. Every shed the gate issued was seen by some
	// plane as a deferral, and every deferral was resolved by exactly one
	// retry (the queues are drained, and nothing hit its attempt budget).
	shed := c.regs[victim].Counter("delivery_shed_total").Value()
	if shed == 0 {
		t.Fatal("the victim never shed — the scenario exerted no overload")
	}
	deferrals := c.sumCounter("delivery_deferrals_total")
	retries := c.sumCounter("delivery_retries_total")
	if deferrals != shed || retries != shed {
		t.Fatalf("overload accounting broken: shed=%d deferrals=%d retries=%d", shed, deferrals, retries)
	}
	if got := c.sumLabeled("delivery_drops_total", "reason", "budget"); got != 0 {
		t.Fatalf("%d messages retried past their budget", got)
	}
	if got := c.sumLabeled("delivery_attempt_failures_total", "kind", "shed"); got != shed {
		t.Fatalf("shed-kind attempt failures %d != shed %d", got, shed)
	}
	// Overload is not failure: no breaker may have moved, and nothing may
	// have been refused outright.
	if got := c.sumLabeled("delivery_breaker_transitions_total", "to", "open"); got != 0 {
		t.Fatalf("shedding opened %d circuits", got)
	}
	if got := c.sumLabeled("delivery_attempt_failures_total", "kind", "transport"); got != 0 {
		t.Fatalf("saturation produced %d transport failures", got)
	}
	for i, app := range c.apps {
		if app.Count() != 1 {
			t.Fatalf("node %d delivered %d copies, want exactly 1", i, app.Count())
		}
	}
	if got := c.regs[victim].CounterVec("shed_requests_total", "result").With("exempt").Value(); got == 0 {
		t.Fatal("no exempt request passed the gate — the exemption was never exercised")
	}
	t.Logf("saturated receiver: %d sheds all deferred and retried, coverage in %d/%d windows (analytic %d)",
		shed, windows, budget, analytic)
}

// TestChaosMisbehavingEnvelopes replays the inbound-hardening faults at the
// wire level: an oversized buffer and a truncated one land at a node, are
// rejected before any handler runs, are counted under exactly one reason
// each, and leave the epidemic entirely unharmed.
func TestChaosMisbehavingEnvelopes(t *testing.T) {
	const (
		n      = 8
		target = 2
	)
	reg := metrics.NewRegistry()
	soap.InstallWireMetrics(reg)
	defer soap.InstallWireMetrics(nil)

	c := newCluster(t, clusterConfig{n: n, seed: 239, repairEvery: 200 * time.Millisecond})
	ctx := context.Background()

	decodeErrors := func(reason string) int64 {
		return reg.CounterVec("soap_decode_errors_total", "reason").With(reason).Value()
	}

	// An envelope one byte over the wire cap.
	oversize := make([]byte, soap.MaxEnvelopeBytes+1)
	if err := c.bus.SendEncoded(ctx, c.addrs[target], oversize); err != nil {
		t.Fatal(err)
	}
	// A legitimate notification torn off mid-stream.
	inter, err := c.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	env := soap.NewEnvelope()
	if err := env.SetBody(eventBody{Seq: 99}); err != nil {
		t.Fatal(err)
	}
	whole, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.bus.SendEncoded(ctx, c.addrs[target], whole[:len(whole)/2]); err != nil {
		t.Fatal(err)
	}
	c.clk.Advance(50 * time.Millisecond)

	if got := decodeErrors("oversize"); got != 1 {
		t.Fatalf("oversize decode errors = %d, want exactly 1", got)
	}
	if got := decodeErrors("malformed"); got != 1 {
		t.Fatalf("malformed decode errors = %d, want exactly 1", got)
	}
	for i, app := range c.apps {
		if app.Count() != 0 {
			t.Fatalf("node %d delivered %d events off garbage bytes", i, app.Count())
		}
	}

	// The overlay shrugs: a real event still covers everyone, and the
	// garbage counters stay frozen.
	if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if w := advanceUntil(c.clk, 100*time.Millisecond, 20, func() bool {
		return c.coverage(nil, 1) == n
	}); w > 20 {
		t.Fatalf("post-garbage event covered %d/%d", c.coverage(nil, 1), n)
	}
	if got := decodeErrors("oversize") + decodeErrors("malformed"); got != 2 {
		t.Fatalf("decode-error counters moved during healthy traffic: %d", got)
	}
	t.Logf("misbehaving envelopes: both rejects counted once each, zero handler deliveries, epidemic unharmed")
}
