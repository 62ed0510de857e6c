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
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/epidemic"
)

// memberNode is one membership-driven node: a disseminator whose fan-outs
// sample the live membership view, with both the gossip actions and the
// membership exchange actions served on a single SOAP endpoint.
type memberNode struct {
	*wsgossip.Node
	addr string
	app  *core.CollectingApp
}

// memberCluster is a coordinator-light deployment: the Coordinator still
// hosts Activation/Registration (it hands out fanout and hops) but has no
// subscribers, so every registration returns an empty target list and all
// dissemination targets come from the membership overlay.
type memberCluster struct {
	t     *testing.T
	clk   *clock.Virtual
	bus   *virtBus
	coord *core.Coordinator
	seed  int64
	nodes map[string]*memberNode
	order []string // insertion-ordered addresses for deterministic asserts
}

const (
	memberPullEvery     = 100 * time.Millisecond
	memberExchangeEvery = 200 * time.Millisecond
	memberSuspectAfter  = 2 * time.Second
	memberRemoveAfter   = 4 * time.Second
)

func newMemberCluster(t *testing.T, seed int64) *memberCluster {
	t.Helper()
	clk := clock.NewVirtual()
	bus := newVirtBus(clk, seed, time.Millisecond, 5*time.Millisecond)
	c := &memberCluster{
		t: t, clk: clk, bus: bus, seed: seed,
		nodes: make(map[string]*memberNode),
	}
	c.coord = core.NewCoordinator(core.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(seed)),
		// No subscribers ever register, so the parameter policy must not
		// depend on the subscription count: classic epidemic sizing for the
		// deployment's design capacity.
		Params: func(int) (int, int) { return 3, 9 },
	})
	bus.Register("mem://coordinator", c.coord.Handler())
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
	})
	return c
}

// addNode boots a membership-driven node and joins it to the overlay
// through the given seed addresses — the only way any node ever learns of
// any other. Returns the node.
func (c *memberCluster) addNode(idx int, seeds []string) *memberNode {
	c.t.Helper()
	ctx := context.Background()
	addr := fmt.Sprintf("mem://node%03d", idx)
	app := core.NewCollectingApp()
	node, err := wsgossip.NewNode(wsgossip.NodeConfig{
		Address:    addr,
		Caller:     c.bus,
		App:        app,
		Clock:      c.clk,
		Seed:       nodeSeed(c.seed, idx),
		PullEvery:  memberPullEvery,
		JitterFrac: 0.2,
		Membership: &wsgossip.NodeMembership{
			Seeds:        seeds,
			Every:        memberExchangeEvery,
			SuspectAfter: memberSuspectAfter,
			RemoveAfter:  memberRemoveAfter,
		},
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.bus.Register(addr, node.Handler())
	if err := node.Start(ctx); err != nil {
		c.t.Fatal(err)
	}
	c.clk.Advance(0) // fire Start's zero-delay join: the node joins as it is added
	n := &memberNode{Node: node, addr: addr, app: app}
	c.nodes[addr] = n
	c.order = append(c.order, addr)
	return n
}

// leave removes a node gracefully: it announces departure over the
// membership protocol, stops its rounds, and then crashes off the bus.
func (c *memberCluster) leave(n *memberNode) {
	n.Membership().Leave(context.Background())
	n.Stop()
	c.bus.Crash(n.addr)
	delete(c.nodes, n.addr)
}

// coverage counts live nodes whose app saw at least want events.
func (c *memberCluster) coverage(want int) (covered, total int) {
	for _, addr := range c.order {
		n, alive := c.nodes[addr]
		if !alive {
			continue
		}
		total++
		if n.app.Count() >= want {
			covered++
		}
	}
	return covered, total
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
	c.addNode(0, nil)
	for i := 1; i < nStart; i++ {
		c.addNode(i, []string{"mem://node000"})
	}
	c.clk.Advance(1500 * time.Millisecond)
	for _, addr := range c.order {
		if got := c.nodes[addr].Membership().Size(); got < nStart*3/4 {
			t.Fatalf("%s discovered only %d/%d peers through exchanges", addr, got, nStart-1)
		}
	}

	// The initiator is node 0 itself: its notification seeds from its own
	// live view. The interaction is pull-style, so nothing spreads eagerly.
	n0 := c.nodes["mem://node000"]
	init, err := core.NewInitiator(core.InitiatorConfig{
		Address:    n0.addr,
		Caller:     c.bus,
		Activation: "mem://coordinator",
		Peers:      n0.Membership(),
		RNG:        rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartProtocolInteraction(ctx, core.ProtocolPullGossip)
	if err != nil {
		t.Fatal(err)
	}
	if len(inter.Params.Targets) != 0 {
		t.Fatalf("coordinator assigned %d static targets; the scenario must run on the live view alone",
			len(inter.Params.Targets))
	}
	for _, addr := range c.order {
		if err := c.nodes[addr].Disseminator().JoinInteraction(ctx, inter.Context, core.ProtocolPullGossip); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	analytic, err := epidemic.RoundsForCoverage(nStart, 3, 0.9, 100)
	if err != nil {
		t.Fatal(err)
	}
	budget := 4*analytic + 6
	windows := advanceUntil(c.clk, memberPullEvery, budget, func() bool {
		covered, total := c.coverage(1)
		return covered == total
	})
	if windows > budget {
		covered, total := c.coverage(1)
		t.Fatalf("live-view pull covered %d/%d after %d windows (analytic %d)", covered, total, budget, analytic)
	}

	// Churn mid-interaction: joiners bootstrap from node 0, leavers say
	// goodbye. Nobody edits a target list anywhere.
	joined := make([]*memberNode, 0, nJoin)
	for i := 0; i < nJoin; i++ {
		n := c.addNode(nStart+i, []string{"mem://node000"})
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
	windows = advanceUntil(c.clk, memberPullEvery, budget, func() bool {
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
	if _, _, err := init.Notify(ctx, inter, eventBody{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	windows = advanceUntil(c.clk, memberPullEvery, budget, func() bool {
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
	c.clk.Advance(memberRemoveAfter + memberSuspectAfter)
	for _, addr := range c.order {
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
	for _, addr := range c.order {
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
	clk := clock.NewVirtual()
	bus := newVirtBus(clk, 211, time.Millisecond, 5*time.Millisecond)
	ctx := context.Background()

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

	apps := make([]*core.CollectingApp, n)
	var runners []*core.Runner
	defer func() {
		for _, r := range runners {
			r.Stop()
		}
	}()
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("mem://node%03d", i)
		apps[i] = core.NewCollectingApp()
		d, err := core.NewDisseminator(core.DisseminatorConfig{
			Address:      addr,
			Caller:       bus,
			App:          apps[i],
			RNG:          rand.New(rand.NewSource(211*31 + int64(i))),
			Coordinators: []string{"mem://coord-b"},
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, d.Handler())
		// Subscribing at the primary replicates the record to the
		// successor, so both coordinators share one assignment base.
		if err := core.SubscribeClient(ctx, bus, "mem://coord-a", addr, core.RoleDisseminator); err != nil {
			t.Fatal(err)
		}
		r, err := core.NewRunner(core.RunnerConfig{
			Clock: clk,
			RNG:   rand.New(rand.NewSource(211*977 + int64(i))),
			Loops: []core.Loop{{Name: "repair", Period: 200 * time.Millisecond, Jitter: 40 * time.Millisecond, Tick: d.TickRepair}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(ctx); err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}

	init, err := core.NewInitiator(core.InitiatorConfig{
		Address: "mem://initiator", Caller: bus, Activation: "mem://coord-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Activity replication is one-way traffic riding the bus: let it land.
	clk.Advance(10 * time.Millisecond)
	if got := successor.LiveActivities(); got != 1 {
		t.Fatalf("successor imported %d activities, want 1", got)
	}

	// The primary dies while the first epidemic wave is in flight: only
	// the nodes the wave reached within ~one link delay have registered.
	clk.AfterFunc(3*time.Millisecond, func() { bus.Crash("mem://coord-a") })
	if _, _, err := init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	windows := advanceUntil(clk, 100*time.Millisecond, 10, func() bool {
		covered := 0
		for _, app := range apps {
			if app.Count() >= 1 {
				covered++
			}
		}
		return covered == n
	})
	if windows > 10 {
		covered := 0
		for _, app := range apps {
			if app.Count() >= 1 {
				covered++
			}
		}
		t.Fatalf("failover dissemination covered %d/%d", covered, n)
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
	build := func(adaptive bool) (*clock.Virtual, *virtBus, []*core.Disseminator, []*core.Runner, []*core.CollectingApp) {
		clk := clock.NewVirtual()
		bus := newVirtBus(clk, 303, time.Millisecond, 5*time.Millisecond)
		coord := core.NewCoordinator(core.CoordinatorConfig{
			Address: "mem://coordinator",
			RNG:     rand.New(rand.NewSource(303)),
		})
		bus.Register("mem://coordinator", coord.Handler())
		var ds []*core.Disseminator
		var rs []*core.Runner
		var apps []*core.CollectingApp
		for i := 0; i < n; i++ {
			addr := fmt.Sprintf("mem://node%03d", i)
			app := core.NewCollectingApp()
			d, err := core.NewDisseminator(core.DisseminatorConfig{
				Address: addr,
				Caller:  bus,
				App:     app,
				RNG:     rand.New(rand.NewSource(303*31 + int64(i))),
			})
			if err != nil {
				t.Fatal(err)
			}
			bus.Register(addr, d.Handler())
			if err := core.SubscribeClient(context.Background(), bus, "mem://coordinator", addr, core.RoleDisseminator); err != nil {
				t.Fatal(err)
			}
			pull := core.Loop{Name: "pull", Period: pullEvery, Jitter: pullEvery / 5, Tick: d.TickPull}
			if adaptive {
				pull.MaxPeriod, pull.Activity = quiescent, d.ActivityCount
			}
			r, err := core.NewRunner(core.RunnerConfig{
				Clock: clk,
				RNG:   rand.New(rand.NewSource(303*977 + int64(i))),
				Loops: []core.Loop{pull},
			})
			if err != nil {
				t.Fatal(err)
			}
			if adaptive {
				d.OnActivity(r.Wake)
			}
			if err := r.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			ds = append(ds, d)
			rs = append(rs, r)
			apps = append(apps, app)
		}
		return clk, bus, ds, rs, apps
	}
	fires := func(rs []*core.Runner) int64 {
		var total int64
		for _, r := range rs {
			total += r.FireCount("pull")
		}
		return total
	}

	fclk, _, _, fixedRunners, _ := build(false)
	defer func() {
		for _, r := range fixedRunners {
			r.Stop()
		}
	}()
	fclk.Advance(idle)
	fixed := fires(fixedRunners)

	clk, bus, ds, adaptiveRunners, apps := build(true)
	defer func() {
		for _, r := range adaptiveRunners {
			r.Stop()
		}
	}()
	clk.Advance(idle)
	adaptive := fires(adaptiveRunners)

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
	ctx := context.Background()
	init, err := core.NewInitiator(core.InitiatorConfig{
		Address: "mem://initiator", Caller: bus, Activation: "mem://coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartProtocolInteraction(ctx, core.ProtocolPullGossip)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if err := d.JoinInteraction(ctx, inter.Context, core.ProtocolPullGossip); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	analytic, err := epidemic.RoundsForCoverage(n, inter.Params.Fanout, 0.9, 100)
	if err != nil {
		t.Fatal(err)
	}
	budget := 4*analytic + 6
	windows := advanceUntil(clk, pullEvery, budget, func() bool {
		covered := 0
		for _, app := range apps {
			if app.Count() >= 1 {
				covered++
			}
		}
		return covered == n
	})
	if windows > budget {
		covered := 0
		for _, app := range apps {
			if app.Count() >= 1 {
				covered++
			}
		}
		t.Fatalf("woken adaptive runtime covered %d/%d after %d windows (analytic %d)", covered, n, budget, analytic)
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
	clk := clock.NewVirtual()
	bus := newVirtBus(clk, 401, time.Millisecond, 5*time.Millisecond)
	ctx := context.Background()
	coord := core.NewCoordinator(core.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(401)),
	})
	bus.Register("mem://coordinator", coord.Handler())

	var runners []*core.Runner
	defer func() {
		for _, r := range runners {
			r.Stop()
		}
	}()
	addRunner := func(svc interface {
		Tick(context.Context)
		ActivityCount() uint64
		OnActivity(func())
	}, seed int64) *core.Runner {
		t.Helper()
		r, err := core.NewRunner(core.RunnerConfig{
			Clock: clk,
			RNG:   rand.New(rand.NewSource(seed)),
			Loops: []core.Loop{{
				Name: "aggregate", Period: exchangeEvery, Jitter: exchangeEvery / 5, Tick: svc.Tick,
				MaxPeriod: quiescent, Activity: svc.ActivityCount,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		svc.OnActivity(r.Wake)
		if err := r.Start(ctx); err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
		return r
	}
	valueRNG := rand.New(rand.NewSource(401 * 7))
	var truthSum float64
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("mem://svc%03d", i)
		v := 10 + valueRNG.Float64()*90
		truthSum += v
		val := v
		svc, err := aggregate.NewService(aggregate.ServiceConfig{
			Address: addr,
			Caller:  bus,
			Value:   func() float64 { return val },
			RNG:     rand.New(rand.NewSource(401*13 + int64(i))),
			Clock:   clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, svc.Handler())
		if err := core.SubscribeClient(ctx, bus, "mem://coordinator", addr,
			core.RoleDisseminator, core.ProtocolAggregate); err != nil {
			t.Fatal(err)
		}
		addRunner(svc, 401*17+int64(i))
	}

	fires := func() int64 {
		var total int64
		for _, r := range runners {
			total += r.FireCount("aggregate")
		}
		return total
	}
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
	querier, err := aggregate.NewQuerier(aggregate.QuerierConfig{
		Address:    "mem://querier",
		Caller:     bus,
		Activation: "mem://coordinator",
		RNG:        rand.New(rand.NewSource(401 * 19)),
		Clock:      clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://querier", querier.Handler())
	if err := core.SubscribeClient(ctx, bus, "mem://coordinator", "mem://querier",
		core.RoleDisseminator, core.ProtocolAggregate); err != nil {
		t.Fatal(err)
	}
	addRunner(querier, 401*23)
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
