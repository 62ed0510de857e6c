package scenario

import (
	"context"
	"math/rand"
	"testing"

	"wsgossip"
	"wsgossip/internal/core"
	"wsgossip/internal/faults"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// TestChaosFullStackStaysOnScanner pins the measurement soap.Decode's two
// rungs rest on: nothing this stack writes needs the encoding/xml fallback.
// The four-fault composition runs over full nodes with every layer switched
// on — a lazy-push and a pull interaction with announce, pull and repair
// rounds, membership, the delivery plane, indirect probes and a windowed
// push-sum query — and every envelope any of them decodes must take the
// scanner. The day a layer emits a block that is not in the canonical form
// (a prefix, a block without its own xmlns), it is this test that says so,
// not a throughput regression.
func TestChaosFullStackStaysOnScanner(t *testing.T) {
	wire := metrics.NewRegistry()
	soap.InstallWireMetrics(wire)
	defer soap.InstallWireMetrics(nil)

	// Two coordinators, so one run carries both a lazy-push and a pull
	// interaction; the nodes subscribe to the first on Start and are
	// subscribed to the second by hand.
	const lazyCoord, pullCoord = "mem://coordinator", "mem://coordinator-pull"
	styles := []struct {
		coord string
		style gossip.Style
	}{{lazyCoord, gossip.StyleLazyPush}, {pullCoord, gossip.StylePull}}
	const nodes = 10
	c := newChaosFabric(t, 1601, 0, func(idx int, cfg *wsgossip.NodeConfig) {
		cfg.Coordinator = lazyCoord
		cfg.PullEvery, cfg.RepairEvery, cfg.AnnounceEvery = chaosWindow, chaosWindow, chaosWindow/2
		cfg.JitterFrac = 0.2
		cfg.Value, cfg.AggregateEvery = func() float64 { return 1 }, chaosWindow/2
		if idx == 0 {
			cfg.Queries = []wsgossip.ContinuousQuery{{Name: "nodes", Func: wsgossip.FuncCount}}
			cfg.QueryWindow = 5 * chaosWindow
		}
	})
	for _, s := range styles {
		coord := core.NewCoordinator(core.CoordinatorConfig{Address: s.coord, RNG: rand.New(rand.NewSource(1601)), Style: s.style})
		c.Bus.Register(s.coord, coord.Handler())
	}
	c.addNodes(nodes)
	c.bootstrap()
	ctx := context.Background()
	var inits []*core.Initiator
	var inters []*core.Interaction
	for _, addr := range c.Addrs {
		if err := core.SubscribeClient(ctx, c.Bus, pullCoord, addr, core.RoleDisseminator); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range styles {
		init, err := core.NewInitiator(core.InitiatorConfig{Address: "mem://initiator", Caller: c.Bus, Activation: s.coord})
		if err != nil {
			t.Fatal(err)
		}
		inter := start(t, init, core.ProtocolPushGossip)
		inits, inters = append(inits, init), append(inters, inter)
	}

	p, err := faults.ParsePlan(fourFaultPlan)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Bus.Schedule(p); err != nil {
		t.Fatal(err)
	}
	// Per window, through the whole plan: one notification on each
	// interaction and one plane-borne flood. Then windows enough for the
	// rounds to close the gaps.
	const events = 8
	for seq := 1; seq <= events; seq++ {
		for i, init := range inits {
			if _, _, err := init.Notify(ctx, inters[i], eventBody{Seq: seq}); err != nil {
				t.Fatal(err)
			}
		}
		c.broadcast(c.addrOf(seq%nodes), seq)
		c.runWindows(1, nil)
	}
	c.runWindows(30, nil)

	// Every layer must have spoken, or a zero below proves nothing.
	for i, app := range c.Apps {
		if app.Count() != 2*events {
			t.Errorf("node%02d took %d of %d notifications", i, app.Count(), 2*events)
		}
	}
	for _, family := range []string{
		"gossip_received_total", "gossip_fetches_total", "membership_exchanges_total",
		"delivery_attempts_total", "aggregate_shares_sent_total", "aggregate_acks_sent_total",
		"aggregate_epochs_total",
	} {
		if c.SumCounter(family) == 0 {
			t.Errorf("%s never moved: that layer sent nothing", family)
		}
	}
	for _, lv := range [][3]string{
		{"gossip_sends_total", "protocol", "lazypush"},
		{"gossip_sends_total", "protocol", "pull"},
		{"gossip_sends_total", "protocol", "repair"},
		{"probe_messages_total", "type", "ping_req"},
		{"probe_messages_total", "type", "ping_req_ack"},
	} {
		if c.SumLabeled(lv[0], lv[1], lv[2]) == 0 {
			t.Errorf("%s{%s} never moved: that layer sent nothing", lv[0], lv[2])
		}
	}

	rung := wire.CounterVec("soap_decode_total", "rung")
	if got := rung.With("legacy").Value(); got != 0 {
		t.Errorf("%d envelopes took the encoding/xml fallback; everything this stack writes must scan", got)
	}
	if rung.With("scanner").Value() == 0 {
		t.Error("no envelope took the scanner: the wire metrics saw nothing")
	}
	if got := wire.CounterVec("soap_decode_errors_total", "reason").With("malformed").Value(); got != 0 {
		t.Errorf("%d envelopes failed to decode", got)
	}
}
