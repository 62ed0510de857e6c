// Chaos scenarios: fault injection on the virtual clock with assertions on
// the metrics plane itself — the counters and histograms must tell the same
// story the apps see, or the observability stack is lying.
package scenario

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// repairedTotal sums the repair retransmit counters across all nodes.
func (c *cluster) repairedTotal() int64 {
	var total int64
	for _, reg := range c.regs {
		total += reg.CounterVec("gossip_retransmits_total", "protocol").With("repair").Value()
	}
	return total
}

// duplicatesTotal sums the duplicate-suppression counters across all nodes.
func (c *cluster) duplicatesTotal() int64 {
	var total int64
	for _, reg := range c.regs {
		total += reg.Counter("gossip_duplicates_total").Value()
	}
	return total
}

// TestChaosHealingPartition splits a pushing cluster in half mid-interaction
// and heals it. The metrics must trace the incident: repair retransmits
// spike only after the heal (they are what closes the gap), and once
// coverage is complete both the repair and duplicate counters go quiescent.
func TestChaosHealingPartition(t *testing.T) {
	const n = 32
	c := newCluster(t, clusterConfig{
		n: n, seed: 133,
		repairEvery: 200 * time.Millisecond,
	})
	ctx := context.Background()

	inter, err := c.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Event 1 pre-partition: every node registers the interaction.
	if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if w := advanceUntil(c.clk, 200*time.Millisecond, 20, func() bool {
		return c.coverage(nil, 1) == n
	}); w > 20 {
		t.Fatalf("pre-partition event covered %d/%d", c.coverage(nil, 1), n)
	}

	// Partition: nodes 0..15 plus the (unstamped) initiator on side A,
	// nodes 16..31 on side B. The control plane stays connected.
	c.bus.Faults().Partition("split", c.addrs[n/2:])

	if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	// Coverage stalls: side B is unreachable, and even inside side A a node
	// whose static target list points across the cut cannot initiate its own
	// repair. Whatever level the stall settles at, it must hold there.
	for w := 0; w < 10; w++ {
		c.clk.Advance(200 * time.Millisecond)
	}
	stalled := c.coverage(nil, 2)
	if stalled == 0 || stalled >= n {
		t.Fatalf("partitioned coverage = %d, want a partial stall below %d", stalled, n)
	}
	repairedBeforeHeal := c.repairedTotal()
	for w := 0; w < 5; w++ {
		c.clk.Advance(200 * time.Millisecond)
	}
	if got := c.coverage(nil, 2); got != stalled {
		t.Fatalf("coverage moved %d -> %d during partition", stalled, got)
	}

	// Heal. Cross-side repair digests now land and retransmits close the
	// other half within the repair budget.
	c.bus.Faults().Heal("split")
	if w := advanceUntil(c.clk, 200*time.Millisecond, 30, func() bool {
		return c.coverage(nil, 2) == n
	}); w > 30 {
		t.Fatalf("heal left coverage at %d/%d after budget", c.coverage(nil, 2), n)
	}
	repairedAfterHeal := c.repairedTotal()
	if repairedAfterHeal <= repairedBeforeHeal {
		t.Fatalf("repair counters did not spike across the heal: %d -> %d",
			repairedBeforeHeal, repairedAfterHeal)
	}
	// Healed and converged: the spike must subside. Repair rounds keep
	// exchanging digests, but nothing is missing anymore, so retransmit and
	// duplicate counters freeze.
	dupSettled := c.duplicatesTotal()
	repairSettled := c.repairedTotal()
	for w := 0; w < 5; w++ {
		c.clk.Advance(200 * time.Millisecond)
	}
	if got := c.repairedTotal(); got != repairSettled {
		t.Fatalf("repair retransmits still growing after convergence: %d -> %d", repairSettled, got)
	}
	if got := c.duplicatesTotal(); got != dupSettled {
		t.Fatalf("duplicates still growing after convergence: %d -> %d", dupSettled, got)
	}
	t.Logf("healing partition: %d repairs during partition, %d after heal",
		repairedBeforeHeal, repairedAfterHeal-repairedBeforeHeal)
}

// skewClock wraps a virtual clock so that every timer callback appears to
// take step: inside a callback the clock slides forward by step right after
// its first reading. A Runner reads the clock first thing in a fire and
// again after the Tick, so exactly one step elapses across each of that
// node's rounds — a deterministic nonzero tick duration, however many
// other readings the node's components take in between — while timers
// still fire on the shared virtual timeline.
type skewClock struct {
	inner clock.Clock
	step  time.Duration

	mu    sync.Mutex
	slid  time.Duration
	armed bool // in a callback whose first reading has not happened yet
}

func (s *skewClock) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.inner.Now() + s.slid
	if s.armed {
		s.armed = false
		s.slid += s.step
	}
	return now
}

func (s *skewClock) arm(on bool) {
	s.mu.Lock()
	s.armed = on
	s.mu.Unlock()
}

func (s *skewClock) AfterFunc(d time.Duration, fn func()) (stop func() bool) {
	return s.inner.AfterFunc(d, func() {
		s.arm(true)
		fn()
		s.arm(false)
	})
}

// TestChaosStraggler gives one node pull-round ticks that appear to take
// 50ms (the healthy nodes' ticks are instantaneous on the virtual clock).
// The tick-duration histogram must expose the straggler's tail, and the
// epidemic must still reach full coverage within the usual pull budget.
func TestChaosStraggler(t *testing.T) {
	const (
		n         = 24
		straggler = 0
		step      = 50 * time.Millisecond
	)
	c := newCluster(t, clusterConfig{
		n: n, seed: 150,
		pullEvery: 100 * time.Millisecond,
		nodeClock: func(i int, shared *clock.Virtual) clock.Clock {
			if i == straggler {
				return &skewClock{inner: shared, step: step}
			}
			return nil
		},
	})
	ctx := context.Background()

	inter, err := c.init.StartProtocolInteraction(ctx, core.ProtocolPullGossip)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	for _, d := range c.dissems {
		if err := d.JoinInteraction(ctx, inter.Context, core.ProtocolPullGossip); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 40
	if w := advanceUntil(c.clk, 100*time.Millisecond, budget, func() bool {
		return c.coverage(nil, 1) == n
	}); w > budget {
		t.Fatalf("straggler held coverage to %d/%d past the budget", c.coverage(nil, 1), n)
	}

	tickHist := func(i int) *metrics.BucketHistogram {
		return c.regs[i].BucketHistogramVec("runner_tick_seconds", metrics.DefLatencyBuckets, "loop").With("pull")
	}
	slow := tickHist(straggler)
	if slow.Count() == 0 {
		t.Fatal("straggler never ticked")
	}
	// Every straggler tick contributes exactly one step.
	wantSum := float64(slow.Count()) * step.Seconds()
	if got := slow.Sum(); got < wantSum-1e-9 || got > wantSum+1e-9 {
		t.Fatalf("straggler tick-duration sum = %v, want %v", got, wantSum)
	}
	if max := slow.Max(); max < step.Seconds() {
		t.Fatalf("straggler tick-duration max = %v, tail invisible (step %v)", max, step.Seconds())
	}
	for i := 1; i < n; i++ {
		h := tickHist(i)
		if h.Count() == 0 {
			t.Fatalf("healthy node %d never ticked", i)
		}
		if h.Sum() != 0 {
			t.Fatalf("healthy node %d shows nonzero tick durations: %v", i, h.Sum())
		}
	}
	t.Logf("straggler: %d ticks, sum %.3fs, max bucket %.4fs; %d healthy nodes all at 0s",
		slow.Count(), slow.Sum(), slow.Max(), n-1)
}

// captureHandler tees one node's SOAP traffic, keeping the first
// notification envelope it sees so the rogue can replay it verbatim.
type captureHandler struct {
	inner soap.Handler

	mu   sync.Mutex
	data []byte
}

func (h *captureHandler) HandleSOAP(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	if req.Addressing().Action == core.ActionNotify {
		if data, err := req.Envelope.Encode(); err == nil {
			h.mu.Lock()
			if h.data == nil {
				h.data = data
			}
			h.mu.Unlock()
		}
	}
	return h.inner.HandleSOAP(ctx, req)
}

func (h *captureHandler) captured() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.data
}

// TestChaosDuplicateReplayer has a misbehaving sender replay one captured
// notification envelope at a single victim, dozens of times. The victim's
// duplicate counter — and only the victim's — must account for every
// replay, and no application sees a second delivery.
func TestChaosDuplicateReplayer(t *testing.T) {
	const (
		n       = 24
		replays = 50
		victim  = 7
	)
	// Generous fanout/hops so the eager push alone covers every node —
	// repair stays quiet and cannot be mistaken for the rogue's replays.
	c := newCluster(t, clusterConfig{
		n: n, seed: 150,
		fanout: 4, hops: 12,
		repairEvery: 200 * time.Millisecond,
	})
	ctx := context.Background()

	// Tee node 3's handler to capture a forwarded notification verbatim.
	tap := &captureHandler{inner: c.dissems[3].Handler()}
	c.bus.Register(c.addrs[3], tap)

	inter, err := c.init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if w := advanceUntil(c.clk, 100*time.Millisecond, 20, func() bool {
		return c.coverage(nil, 1) == n
	}); w > 20 {
		t.Fatalf("event covered %d/%d", c.coverage(nil, 1), n)
	}
	data := tap.captured()
	if data == nil {
		t.Fatal("tap captured no notification")
	}

	dupBefore := make([]int64, n)
	for i, reg := range c.regs {
		dupBefore[i] = reg.Counter("gossip_duplicates_total").Value()
	}

	// The rogue replays the same envelope (same wsa MessageID) at the
	// victim over and over.
	for r := 0; r < replays; r++ {
		if err := c.bus.SendEncoded(ctx, c.addrs[victim], data); err != nil {
			t.Fatal(err)
		}
	}
	c.clk.Advance(100 * time.Millisecond)

	for i, reg := range c.regs {
		delta := reg.Counter("gossip_duplicates_total").Value() - dupBefore[i]
		switch i {
		case victim:
			if delta != replays {
				t.Fatalf("victim duplicate delta = %d, want %d", delta, replays)
			}
		default:
			if delta != 0 {
				t.Fatalf("node %d duplicate delta = %d, want 0 — replay was not isolated", i, delta)
			}
		}
	}
	// Duplicate suppression held: every app still saw the event exactly once.
	for i, app := range c.apps {
		if app.Count() != 1 {
			t.Fatalf("node %d delivered %d copies, want exactly 1", i, app.Count())
		}
	}
	// The victim's scrape shows the incident.
	var sb strings.Builder
	if err := c.regs[victim].WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gossip_duplicates_total") {
		t.Fatal("victim exposition missing the duplicate counter")
	}
	t.Logf("replayer: %d replays at node %d all counted as duplicates, zero re-deliveries", replays, victim)
}
