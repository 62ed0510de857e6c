package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"wsgossip"
	"wsgossip/internal/aggregate"
	"wsgossip/internal/core"
	"wsgossip/internal/epidemic"
	"wsgossip/internal/soap"
	"wsgossip/internal/testbed"
)

// overlayNode is one membership-driven node: a disseminator whose fan-outs
// sample the live membership view, with the gossip and membership actions
// served on a single SOAP endpoint.
type overlayNode struct {
	*wsgossip.Node
	addr string
	app  *core.CollectingApp
	seen map[int]bool // chaos events taken, by sequence number
}

// overlay is a deployment whose nodes learn of each other only through
// membership: every node after the first joins through node 0. nodes holds
// the nodes that have not left, by address; Addrs every node ever added.
type overlay struct {
	*testbed.Fabric
	t     *testing.T
	nodes map[string]*overlayNode
}

func newOverlay(t *testing.T, spec testbed.Spec[wsgossip.NodeConfig]) *overlay {
	t.Helper()
	spec.Stream = nodeStream
	fab, err := testbed.Nodes(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fab.Close)
	return &overlay{Fabric: fab, t: t, nodes: make(map[string]*overlayNode)}
}

const (
	memberPullEvery     = 100 * time.Millisecond
	memberExchangeEvery = 200 * time.Millisecond
	memberSuspectAfter  = 2 * time.Second
	memberRemoveAfter   = 4 * time.Second
)

// newMemberCluster is a coordinator-light overlay: the Coordinator still
// hosts Activation/Registration (it hands out fanout and hops) but has no
// subscribers, so every registration returns an empty target list and all
// dissemination targets come from the membership overlay.
func newMemberCluster(t *testing.T, seed int64) *overlay {
	return newOverlay(t, testbed.Spec[wsgossip.NodeConfig]{
		Seed: seed, Addr: "mem://node%03d",
		// No subscribers ever register, so the parameter policy must not
		// depend on the subscription count: classic epidemic sizing for the
		// deployment's design capacity.
		Coordinator: &core.CoordinatorConfig{Address: "mem://coordinator", Params: func(int) (int, int) { return 3, 9 }},
		Config: wsgossip.NodeConfig{
			PullEvery:  memberPullEvery,
			JitterFrac: 0.2,
			Membership: &wsgossip.NodeMembership{
				Every:        memberExchangeEvery,
				SuspectAfter: memberSuspectAfter,
				RemoveAfter:  memberRemoveAfter,
			},
		},
	})
}

// addNode boots the next node; it joins the overlay as it is added.
func (c *overlay) addNode() *overlayNode {
	c.t.Helper()
	node, err := c.Add()
	if err != nil {
		c.t.Fatal(err)
	}
	i := len(c.Nodes) - 1
	n := &overlayNode{Node: node, addr: c.Addrs[i], app: c.Apps[i], seen: make(map[int]bool)}
	node.Dispatcher().Register(actionChaosEvent, soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
		var ev chaosEvent
		if err := req.Envelope.DecodeBody(&ev); err != nil {
			return nil, soap.NewFault(soap.CodeSender, "malformed chaos event: "+err.Error())
		}
		if !n.seen[ev.Seq] {
			n.seen[ev.Seq] = true
			c.flood(n, ev.Seq)
		}
		return nil, nil
	}))
	c.nodes[n.addr] = n
	return n
}

// leave removes a node gracefully: it announces departure over the
// membership protocol, stops its rounds, and then crashes off the bus.
func (c *overlay) leave(n *overlayNode) {
	n.Membership().Leave(context.Background())
	n.Stop()
	c.Bus.Crash(n.addr)
	delete(c.nodes, n.addr)
}

// coverage counts live nodes whose app saw at least want events.
func (c *overlay) coverage(want int) (covered, total int) {
	return c.Coverage(want, func(i int) bool { return c.nodes[c.Addrs[i]] != nil })
}

// TestScenarioMembershipDrivenDissemination is the live-view end-to-end
// case: nodes join and leave through membership exchanges only — the
// Coordinator assigns parameters but zero targets — and WS-PullGossip
// still sustains epidemic coverage within the analytic budget, including
// for nodes that joined mid-interaction.
func TestScenarioMembershipDrivenDissemination(t *testing.T) {
	const (
		nStart = 24
		nJoin  = 8
		nLeave = 6
	)
	c := newMemberCluster(t, 101)
	ctx := context.Background()

	// Bootstrap: every node knows exactly one seed (node 0); the overlay
	// self-assembles through view exchanges.
	for i := 0; i < nStart; i++ {
		c.addNode()
	}
	c.Clock.Advance(1500 * time.Millisecond)
	for _, addr := range c.Addrs {
		if got := c.nodes[addr].Membership().Size(); got < nStart*3/4 {
			t.Fatalf("%s discovered only %d/%d peers through exchanges", addr, got, nStart-1)
		}
	}

	// The initiator is node 0 itself: its notification seeds from its own
	// live view. The interaction is pull-style, so nothing spreads eagerly.
	n0 := c.nodes["mem://node000"]
	init, err := core.NewInitiator(core.InitiatorConfig{
		Address:    n0.addr,
		Caller:     c.Bus,
		Activation: "mem://coordinator",
		Peers:      n0.Membership(),
		RNG:        rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	inter := start(t, init, core.ProtocolPullGossip)
	if len(inter.Params.Targets) != 0 {
		t.Fatalf("coordinator assigned %d static targets; the scenario must run on the live view alone",
			len(inter.Params.Targets))
	}
	for _, addr := range c.Addrs {
		if err := c.nodes[addr].Disseminator().JoinInteraction(ctx, inter.Context, core.ProtocolPullGossip); err != nil {
			t.Fatal(err)
		}
	}
	notify(t, init, inter, 1)
	analytic, err := epidemic.RoundsForCoverage(nStart, 3, 0.9, 100)
	if err != nil {
		t.Fatal(err)
	}
	budget := 4*analytic + 6
	windows := advanceUntil(c.Clock, memberPullEvery, budget, func() bool {
		covered, total := c.coverage(1)
		return covered == total
	})
	if windows > budget {
		covered, total := c.coverage(1)
		t.Fatalf("live-view pull covered %d/%d after %d windows (analytic %d)", covered, total, budget, analytic)
	}

	// Churn mid-interaction: joiners bootstrap from node 0, leavers say
	// goodbye. Nobody edits a target list anywhere.
	joined := make([]*overlayNode, 0, nJoin)
	for i := 0; i < nJoin; i++ {
		n := c.addNode()
		if err := n.Disseminator().JoinInteraction(ctx, inter.Context, core.ProtocolPullGossip); err != nil {
			t.Fatal(err)
		}
		joined = append(joined, n)
	}
	leaveRNG := rand.New(rand.NewSource(99))
	var left []string
	for _, i := range leaveRNG.Perm(nStart - 1)[:nLeave] {
		addr := fmt.Sprintf("mem://node%03d", i+1) // never the seed node
		left = append(left, addr)
		c.leave(c.nodes[addr])
	}
	windows = advanceUntil(c.Clock, memberPullEvery, budget, func() bool {
		covered, total := c.coverage(1)
		return covered == total
	})
	if windows > budget {
		covered, total := c.coverage(1)
		t.Fatalf("post-churn coverage %d/%d after %d windows: late joiners did not pull the event",
			covered, total, budget)
	}
	for _, n := range joined {
		if n.app.Count() != 1 {
			t.Fatalf("joiner %s delivered %d copies, want exactly 1", n.addr, n.app.Count())
		}
	}

	// A second event over the churned overlay: the survivors plus joiners
	// converge again, still with zero static targets.
	notify(t, init, inter, 2)
	windows = advanceUntil(c.Clock, memberPullEvery, budget, func() bool {
		covered, total := c.coverage(2)
		return covered == total
	})
	if windows > budget {
		covered, total := c.coverage(2)
		t.Fatalf("event 2 coverage %d/%d after %d windows on the churned overlay", covered, total, budget)
	}

	// Failure detection: once RemoveAfter elapses, every survivor's view
	// has shed the leavers (tombstoned or aged out) — sends stop targeting
	// the dead.
	c.Clock.Advance(memberRemoveAfter + memberSuspectAfter)
	for _, addr := range c.Addrs {
		n, alive := c.nodes[addr]
		if !alive {
			continue
		}
		for _, gone := range left {
			for _, a := range n.Membership().Alive() {
				if a == gone {
					t.Fatalf("%s still lists departed %s as alive after the removal window", addr, gone)
				}
			}
		}
	}
	// Exactly-once delivery held throughout the churn.
	for _, addr := range c.Addrs {
		if n, alive := c.nodes[addr]; alive && n.app.Count() > 2 {
			t.Fatalf("%s delivered %d copies of 2 events", addr, n.app.Count())
		}
	}
}

// TestScenarioCoordinatorFailover crashes the primary coordinator
// mid-interaction: nodes whose first-contact registration finds it dead
// re-register the replicated activity against the successor and the
// dissemination still reaches everyone within the eager-push window.
func TestScenarioCoordinatorFailover(t *testing.T) {
	const n = 48
	f := newFabric(t, 211, nil)
	clk, bus := f.Clock, f.Bus

	successor := core.NewCoordinator(core.CoordinatorConfig{
		Address:             "mem://coord-b",
		RNG:                 rand.New(rand.NewSource(212)),
		ReplicateActivities: true, // accept the primary's activity imports
	})
	bus.Register("mem://coord-b", successor.Handler())
	primary := core.NewCoordinator(core.CoordinatorConfig{
		Address:             "mem://coord-a",
		RNG:                 rand.New(rand.NewSource(211)),
		Caller:              bus,
		Replicas:            []string{"mem://coord-b"},
		ReplicateActivities: true,
	})
	bus.Register("mem://coord-a", primary.Handler())

	// Subscribing at the primary replicates the record to the successor, so
	// both coordinators share one assignment base.
	_, apps := disseminators(t, f, 211, n, "mem://coord-a", []string{"mem://coord-b"}, func(d *core.Disseminator) core.Loop {
		return core.Loop{Name: "repair", Period: 200 * time.Millisecond, Jitter: 40 * time.Millisecond, Tick: d.TickRepair}
	})

	init, err := core.NewInitiator(core.InitiatorConfig{
		Address: "mem://initiator", Caller: bus, Activation: "mem://coord-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	inter := start(t, init, core.ProtocolPushGossip)
	// Activity replication is one-way traffic riding the bus: let it land.
	clk.Advance(10 * time.Millisecond)
	if got := successor.LiveActivities(); got != 1 {
		t.Fatalf("successor imported %d activities, want 1", got)
	}

	// The primary dies while the first epidemic wave is in flight: only
	// the nodes the wave reached within ~one link delay have registered.
	clk.AfterFunc(3*time.Millisecond, func() { bus.Crash("mem://coord-a") })
	notify(t, init, inter, 1)
	windows := advanceUntil(clk, 100*time.Millisecond, 10, func() bool {
		return covered(apps, 1) == n
	})
	if windows > 10 {
		t.Fatalf("failover dissemination covered %d/%d", covered(apps, 1), n)
	}
	// (Eager push alone predicts ~0.94 coverage at these parameters; the
	// anti-entropy repair loop is the backstop that makes full coverage a
	// fair assertion — exactly the production configuration.)
	primaryRegs := primary.Stats().Registrations
	successorRegs := successor.Stats().Registrations
	if successorRegs == 0 {
		t.Fatal("no registration failed over to the successor; crash landed too late to matter")
	}
	if primaryRegs == 0 {
		t.Fatal("no registration reached the primary; crash landed before the scenario's point")
	}
	t.Logf("failover: %d registrations at primary, %d at successor, covered in %d windows",
		primaryRegs, successorRegs, windows)
}

// TestScenarioQuiescenceBackoff pins the adaptive-pacing claim: a quiescent
// deployment fires provably fewer pull rounds than the fixed-period
// runtime, and the first notification snaps the loops back so coverage
// still lands within the epidemic budget.
func TestScenarioQuiescenceBackoff(t *testing.T) {
	const (
		n         = 8
		pullEvery = 100 * time.Millisecond
		quiescent = 1600 * time.Millisecond
		idle      = 20 * time.Second
	)
	build := func(adaptive bool) (*testbed.Fabric, []*core.Disseminator, []*core.CollectingApp) {
		f := newFabric(t, 303, &core.CoordinatorConfig{Address: "mem://coordinator"})
		ds, apps := disseminators(t, f, 303, n, "mem://coordinator", nil, func(d *core.Disseminator) core.Loop {
			pull := core.Loop{Name: "pull", Period: pullEvery, Jitter: pullEvery / 5, Tick: d.TickPull}
			if adaptive {
				pull.MaxPeriod, pull.Activity = quiescent, d.ActivityCount
			}
			return pull
		})
		return f, ds, apps
	}

	fixedFabric, _, _ := build(false)
	fixedFabric.Clock.Advance(idle)
	fixed := fixedFabric.FireCount("pull")

	f, ds, apps := build(true)
	clk, bus := f.Clock, f.Bus
	clk.Advance(idle)
	adaptive := f.FireCount("pull")

	// The fixed runtime fires ~idle/period rounds per node; backoff holds
	// the adaptive runtime near idle/quiescentMax plus the settle ramp.
	if fixed < int64(n)*int64(idle/pullEvery)*8/10 {
		t.Fatalf("fixed-period control fired only %d pull rounds; harness broken", fixed)
	}
	if adaptive*3 > fixed {
		t.Fatalf("quiescent adaptive runtime fired %d pull rounds vs %d fixed — backoff saves too little", adaptive, fixed)
	}
	t.Logf("quiescent pull rounds over %v: fixed %d, adaptive %d (%.1fx fewer)",
		idle, fixed, adaptive, float64(fixed)/math.Max(float64(adaptive), 1))

	// Traffic snaps the backed-off loops to base pace: a pull interaction
	// seeded at one node must still reach everyone within the same budget
	// the fixed-period scenario suite uses.
	init, err := core.NewInitiator(core.InitiatorConfig{
		Address: "mem://initiator", Caller: bus, Activation: "mem://coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	inter := start(t, init, core.ProtocolPullGossip)
	joinAll(t, ds, inter, core.ProtocolPullGossip)
	notify(t, init, inter, 1)
	analytic, err := epidemic.RoundsForCoverage(n, inter.Params.Fanout, 0.9, 100)
	if err != nil {
		t.Fatal(err)
	}
	budget := 4*analytic + 6
	windows := advanceUntil(clk, pullEvery, budget, func() bool {
		return covered(apps, 1) == n
	})
	if windows > budget {
		t.Fatalf("woken adaptive runtime covered %d/%d after %d windows (analytic %d)", covered(apps, 1), n, budget, analytic)
	}
	t.Logf("snap-back: coverage complete in %d windows after %v of quiescence (analytic %d)", windows, idle, analytic)
}

// TestScenarioQuiescentAggregation: an aggregation exchange loop with
// nothing to exchange backs off, and a query starting snaps every loop back
// to base pace while push-sum converges.
func TestScenarioQuiescentAggregation(t *testing.T) {
	const (
		n             = 16
		exchangeEvery = 100 * time.Millisecond
		quiescent     = 1600 * time.Millisecond
	)
	f := newFabric(t, 401, &core.CoordinatorConfig{Address: "mem://coordinator"})
	clk := f.Clock
	ctx := context.Background()
	var truthSum float64
	for _, v := range aggServices(t, f, 401, n, exchangeEvery, quiescent) {
		truthSum += v
	}
	fires := func() int64 { return f.FireCount("aggregate") }
	// Idle before any task: every exchange loop must back off.
	clk.Advance(10 * time.Second)
	idleFires := fires()
	fixedEstimate := int64(n) * int64(10*time.Second/exchangeEvery)
	if idleFires*3 > fixedEstimate {
		t.Fatalf("idle aggregation fired %d exchange rounds (fixed pace would be ~%d); backoff not engaging",
			idleFires, fixedEstimate)
	}

	// A query starts: loops snap back, push-sum converges inside the usual
	// analytic budget, estimates land on truth.
	querier := aggQuerier(t, f, 401, exchangeEvery, quiescent)
	before := fires()
	task, err := querier.StartContinuous(ctx, "value", aggregate.FuncAvg, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := epidemic.PushSumRoundsToEpsilon(n+1, task.Params.Fanout, aggEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	budget := 2*analytic + 10
	windows := advanceUntil(clk, exchangeEvery, budget, converging(func() (float64, bool) {
		return querier.Estimate(task.ID)
	}))
	if windows > budget {
		t.Fatalf("adaptive aggregation not converged after %d windows (analytic %d)", budget, analytic)
	}
	truth := truthSum / float64(n)
	est, ok := querier.Estimate(task.ID)
	if !ok {
		t.Fatal("querier has no estimate after convergence")
	}
	if rel := math.Abs(est-truth) / truth; rel > 0.02 {
		t.Fatalf("estimate %.4f vs truth %.4f (rel err %.3e)", est, truth, rel)
	}
	active := fires() - before
	fixedActive := int64(n+1) * int64(windows)
	if active*2 < fixedActive {
		t.Fatalf("a running query fired %d exchange rounds in %d windows (fixed ~%d); loops did not snap back",
			active, windows, fixedActive)
	}
	t.Logf("aggregation: idle fires %d (fixed ~%d), converged in %d windows with %d fires (fixed ~%d)",
		idleFires, fixedEstimate, windows, active, fixedActive)
}
