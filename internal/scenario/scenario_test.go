// The dissemination and aggregation scenario cases (see doc.go for the
// suite's ground rules: no sleeps, Runner-fired rounds, analytic budgets).
package scenario

import (
	"context"
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wsgossip"
	"wsgossip/internal/aggregate"
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/epidemic"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/testbed"
)

type eventBody struct {
	XMLName xml.Name `xml:"urn:example:scenario Event"`
	Seq     int      `xml:"Seq"`
}

// cluster is one dissemination deployment on a virtual clock: coordinator,
// n disseminator nodes each running its own rounds, and an initiator.
type cluster struct {
	*testbed.Fabric
	init *core.Initiator
	// initPlane is the initiator's delivery plane, when clusterConfig.plane
	// gives it one; nil means it sends on the bus directly.
	initPlane *delivery.Plane
	// initReg is the initiator's own metrics registry (the initiator is not
	// a cluster node but its plane's counters matter to delivery accounting).
	initReg *metrics.Registry
}

// clusterConfig selects the deployment shape for one scenario.
type clusterConfig struct {
	n             int
	seed          int64
	style         string // "" = coordinator default (push); "lazypush"
	fanout, hops  int
	targets       int // peers per registration response; 0 = coordinator default (twice the fanout)
	pullEvery     time.Duration
	repairEvery   time.Duration
	announceEvery time.Duration
	maxDelay      time.Duration
	// nodeClock, when set, overrides node i's clock (the straggler scenario
	// wraps the shared virtual clock in a skewing one). Nil or a nil return
	// keeps the shared clock.
	nodeClock func(i int, shared clock.Clock) clock.Clock
	// plane, when set, wraps each sender's caller in a delivery plane built
	// from the returned budgets; a nil return leaves that sender on the raw
	// bus. It is called once per node and once with i == -1 for the
	// initiator.
	plane func(i int) *delivery.Config
}

// nodeStream spaces the node seeds of one cluster 8 apart: a Node draws its
// six component streams from seed+0 … seed+5.
var nodeStream = testbed.Stream{Mul: 1024, Step: 8}

func newCluster(t *testing.T, cfg clusterConfig) *cluster {
	t.Helper()
	coord := &core.CoordinatorConfig{Address: "mem://coordinator", TargetsPerRegistrant: cfg.targets}
	if cfg.fanout > 0 {
		f, h := cfg.fanout, cfg.hops
		coord.Params = func(int) (int, int) { return f, h }
	}
	if cfg.style == "lazypush" {
		coord.Style = gossip.StyleLazyPush
	}
	fab, err := testbed.Nodes(testbed.Spec[wsgossip.NodeConfig]{
		Seed: cfg.seed, Addr: "mem://node%03d", Stream: nodeStream,
		Coordinator: coord, MaxDelay: cfg.maxDelay,
		Config: wsgossip.NodeConfig{
			Coordinator:   "mem://coordinator",
			PullEvery:     cfg.pullEvery,
			RepairEvery:   cfg.repairEvery,
			AnnounceEvery: cfg.announceEvery,
			JitterFrac:    0.2,
		},
		Shape: func(i int, ncfg *wsgossip.NodeConfig) {
			if cfg.plane != nil {
				ncfg.Delivery = cfg.plane(i)
			}
			if cfg.nodeClock != nil {
				if c := cfg.nodeClock(i, ncfg.Clock); c != nil {
					ncfg.Clock = c
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{Fabric: fab, initReg: metrics.NewRegistry()}
	t.Cleanup(func() {
		c.Close()
		if c.initPlane != nil {
			c.initPlane.Close()
		}
	})
	for i := 0; i < cfg.n; i++ {
		if _, err := c.Add(); err != nil {
			t.Fatal(err)
		}
		if got := len(c.Coord.Subscribers()); got != i+1 {
			t.Fatalf("%d subscribers after starting node %d, want %d", got, i, i+1)
		}
	}
	var initCaller soap.Caller = c.Bus
	if cfg.plane != nil {
		if pc := cfg.plane(-1); pc != nil {
			filled := *pc
			filled.Caller = c.Bus
			filled.Clock = c.Clock
			filled.Metrics = c.initReg
			if filled.RNG == nil {
				filled.RNG = rand.New(rand.NewSource(cfg.seed*7919 - 1))
			}
			c.initPlane = delivery.NewPlane(filled)
			initCaller = c.initPlane
		}
	}
	c.init, err = core.NewInitiator(core.InitiatorConfig{
		Address:    "mem://initiator",
		Caller:     initCaller,
		Activation: "mem://coordinator",
		Metrics:    c.initReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// dissems returns every node's disseminator.
func (c *cluster) dissems() []*core.Disseminator {
	out := make([]*core.Disseminator, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Disseminator()
	}
	return out
}

// crash kills node i at the current instant: the bus drops its traffic and
// the node stops scheduling rounds.
func (c *cluster) crash(i int) {
	c.Bus.Crash(c.Addrs[i])
	c.Nodes[i].Stop()
}

// coverage counts nodes in alive whose app received at least want events.
func (c *cluster) coverage(alive map[int]bool, want int) int {
	covered, _ := c.Coverage(want, func(i int) bool { return alive == nil || alive[i] })
	return covered
}

// advanceUntil advances the clock window by window until done() or the
// budget is exhausted, returning the number of windows consumed.
func advanceUntil(clk *clock.Virtual, window time.Duration, budget int, done func() bool) int {
	for w := 1; w <= budget; w++ {
		clk.Advance(window)
		if done() {
			return w
		}
	}
	return budget + 1
}

// aggEpsilon is the relative movement below which an aggregate estimate
// counts as converged.
const aggEpsilon = 1e-4

// converging returns a check that holds once est's last three readings are
// defined and agree within aggEpsilon.
func converging(est func() (float64, bool)) func() bool {
	var last []float64
	return func() bool {
		v, ok := est()
		if !ok {
			last = last[:0]
			return false
		}
		if last = append(last, v); len(last) > 3 {
			last = last[1:]
		}
		if len(last) < 3 {
			return false
		}
		lo, hi := slices.Min(last), slices.Max(last)
		return (hi-lo)/math.Max(math.Abs(lo), math.Abs(hi)) <= aggEpsilon
	}
}

// newFabric is a testbed fabric with no nodes yet: a virtual clock, a bus
// seeded seed and, if coord is set, that coordinator, its RNG seeded seed.
// It closes when t ends.
func newFabric(t *testing.T, seed int64, coord *core.CoordinatorConfig) *testbed.Fabric {
	t.Helper()
	f, err := testbed.Nodes(testbed.Spec[wsgossip.NodeConfig]{Seed: seed, Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// runLoop starts loop on a runner of f seeded seed; a loop with an Activity
// snaps back when wake's activity advances.
func runLoop(t *testing.T, f *testbed.Fabric, seed int64, loop core.Loop, wake interface{ OnActivity(func()) }) {
	t.Helper()
	r, err := f.Run(seed, loop)
	if err != nil {
		t.Fatal(err)
	}
	if loop.Activity != nil {
		wake.OnActivity(r.Wake)
	}
}

// disseminators serves n Disseminators on f's bus at mem://node000…, node i
// drawing from the stream seeded seed*31+i and failing over to successors,
// each subscribed at coord and running loop(d) on a runner seeded
// seed*977+i.
func disseminators(t *testing.T, f *testbed.Fabric, seed int64, n int, coord string, successors []string, loop func(d *core.Disseminator) core.Loop) ([]*core.Disseminator, []*core.CollectingApp) {
	t.Helper()
	var ds []*core.Disseminator
	var apps []*core.CollectingApp
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("mem://node%03d", i)
		app := core.NewCollectingApp()
		d, err := core.NewDisseminator(core.DisseminatorConfig{
			Address:      addr,
			Caller:       f.Bus,
			App:          app,
			RNG:          rand.New(rand.NewSource(seed*31 + int64(i))),
			Coordinators: successors,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Bus.Register(addr, d.Handler())
		if err := core.SubscribeClient(context.Background(), f.Bus, coord, addr, core.RoleDisseminator); err != nil {
			t.Fatal(err)
		}
		runLoop(t, f, seed*977+int64(i), loop(d), d)
		ds, apps = append(ds, d), append(apps, app)
	}
	return ds, apps
}

// start starts an interaction of protocol at init.
func start(t *testing.T, init *core.Initiator, protocol string) *core.Interaction {
	t.Helper()
	inter, err := init.StartProtocolInteraction(context.Background(), protocol)
	if err != nil {
		t.Fatal(err)
	}
	return inter
}

// notify publishes event seq on inter from init.
func notify(t *testing.T, init *core.Initiator, inter *core.Interaction, seq int) {
	t.Helper()
	if _, _, err := init.Notify(context.Background(), inter, eventBody{Seq: seq}); err != nil {
		t.Fatal(err)
	}
}

// joinAll registers every one of ds in inter under protocol.
func joinAll(t *testing.T, ds []*core.Disseminator, inter *core.Interaction, protocol string) {
	t.Helper()
	for _, d := range ds {
		if err := d.JoinInteraction(context.Background(), inter.Context, protocol); err != nil {
			t.Fatal(err)
		}
	}
}

// covered counts the apps that received at least want events.
func covered(apps []*core.CollectingApp, want int) int {
	n := 0
	for _, app := range apps {
		if app.Count() >= want {
			n++
		}
	}
	return n
}

// aggParticipant is an aggregation participant on the bus: a Service or a
// Querier.
type aggParticipant interface {
	Handler() soap.Handler
	Tick(context.Context)
	ActivityCount() uint64
	OnActivity(func())
}

// joinAggregation serves p at addr, subscribes it for aggregation, and
// runs its exchange every period on a runner seeded seed, backing off to
// quiescent when idle if quiescent is set.
func joinAggregation(t *testing.T, f *testbed.Fabric, addr string, p aggParticipant, seed int64, every, quiescent time.Duration) {
	t.Helper()
	f.Bus.Register(addr, p.Handler())
	if err := core.SubscribeClient(context.Background(), f.Bus, "mem://coordinator", addr,
		core.RoleDisseminator, core.ProtocolAggregate); err != nil {
		t.Fatal(err)
	}
	loop := core.Loop{Name: "aggregate", Period: every, Jitter: every / 5, Tick: p.Tick}
	if quiescent > 0 {
		loop.MaxPeriod, loop.Activity = quiescent, p.ActivityCount
	}
	runLoop(t, f, seed, loop, p)
}

// aggServices joins n aggregation services at mem://svc000…, service i
// holding the i-th value drawn from the stream seeded seed*7, drawing from
// seed*13+i, its runner from seed*17+i. It returns the values.
func aggServices(t *testing.T, f *testbed.Fabric, seed int64, n int, every, quiescent time.Duration) []float64 {
	t.Helper()
	valueRNG := rand.New(rand.NewSource(seed * 7))
	values := make([]float64, n)
	for i := range values {
		addr := fmt.Sprintf("mem://svc%03d", i)
		v := 10 + valueRNG.Float64()*90
		values[i] = v
		svc, err := aggregate.NewService(aggregate.ServiceConfig{
			Address: addr,
			Caller:  f.Bus,
			Value:   func() float64 { return v },
			RNG:     rand.New(rand.NewSource(seed*13 + int64(i))),
			Clock:   f.Clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		joinAggregation(t, f, addr, svc, seed*17+int64(i), every, quiescent)
	}
	return values
}

// aggQuerier joins a querier at mem://querier, drawing from the stream
// seeded seed*19, its runner from seed*23.
func aggQuerier(t *testing.T, f *testbed.Fabric, seed int64, every, quiescent time.Duration) *aggregate.Querier {
	t.Helper()
	q, err := aggregate.NewQuerier(aggregate.QuerierConfig{
		Address:    "mem://querier",
		Caller:     f.Bus,
		Activation: "mem://coordinator",
		RNG:        rand.New(rand.NewSource(seed * 19)),
		Clock:      f.Clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	joinAggregation(t, f, "mem://querier", q, seed*23, every, quiescent)
	return q
}

// TestScenarioDissemination is the virtual-time table suite for the
// dissemination protocols: push with mid-stream loss closed by anti-entropy
// repair, pull-only rounds, deferred lazy push, slow links, and node churn
// mid-round — all self-clocked, all deterministic.
func TestScenarioDissemination(t *testing.T) {
	const n = 48
	type scenario struct {
		name string
		cfg  clusterConfig
		run  func(t *testing.T, c *cluster)
	}
	scenarios := []scenario{
		{
			// WS-PushGossip with anti-entropy: event 1 spreads loss-free
			// (every node registers the interaction); the link then turns
			// lossy and event 2 is torn up mid-epidemic; repair rounds
			// close it on every node.
			name: "push/loss-midstream-repair-closes",
			cfg: clusterConfig{
				n: n, seed: 11,
				repairEvery: 200 * time.Millisecond,
			},
			run: func(t *testing.T, c *cluster) {
				inter := start(t, c.init, core.ProtocolPushGossip)
				notify(t, c.init, inter, 1)
				c.Clock.Advance(100 * time.Millisecond) // push phase: a few link delays deep
				if got := c.coverage(nil, 1); got != n {
					t.Fatalf("lossless push covered %d/%d", got, n)
				}

				const loss = 0.40
				c.Bus.SetLoss(loss)
				notify(t, c.init, inter, 2)
				c.Clock.Advance(100 * time.Millisecond)
				partial := c.coverage(nil, 2)
				if partial == n {
					t.Fatalf("40%% loss still covered everyone eagerly; scenario exerts no repair pressure")
				}
				// Sanity against the analytic lossy-push fixed point: the
				// eager phase should land in the model's neighbourhood.
				if pred, err := epidemic.ExpectedCoverageLossy(n, inter.Params.Fanout, inter.Params.Hops, loss); err == nil {
					if frac := float64(partial) / float64(n); math.Abs(frac-pred) > 0.25 {
						t.Fatalf("eager coverage %.2f implausibly far from analytic %.2f", frac, pred)
					}
				}
				windows := advanceUntil(c.Clock, 200*time.Millisecond, 30, func() bool {
					return c.coverage(nil, 2) == n
				})
				if windows > 30 {
					t.Fatalf("repair never closed the gap: %d/%d after budget", c.coverage(nil, 2), n)
				}
				t.Logf("eager coverage %d/%d, repair closed in %d windows", partial, n, windows)
			},
		},
		{
			// WS-PullGossip only: one seeding, then nothing moves except
			// by pull rounds. Budget derives from the epidemic model.
			name: "pull/rounds-only",
			cfg: clusterConfig{
				n: n, seed: 23,
				pullEvery: 100 * time.Millisecond,
			},
			run: func(t *testing.T, c *cluster) {
				inter := start(t, c.init, core.ProtocolPullGossip)
				notify(t, c.init, inter, 1)
				joinAll(t, c.dissems(), inter, core.ProtocolPullGossip)
				c.Clock.Advance(20 * time.Millisecond)
				if got := c.coverage(nil, 1); got == 0 || got == n {
					t.Fatalf("seeding covered %d/%d, want partial", got, n)
				}
				// Pull anti-entropy converges at least as fast per round as
				// infect-and-die push spreads per hop; give it 4x the
				// analytic push rounds plus slack for jittered phases.
				// (0.9 is the highest target below push's fanout-3 fixed
				// point; pull itself keeps going to 1.0.)
				analytic, err := epidemic.RoundsForCoverage(n, inter.Params.Fanout, 0.9, 100)
				if err != nil {
					t.Fatal(err)
				}
				budget := 4*analytic + 6
				windows := advanceUntil(c.Clock, 100*time.Millisecond, budget, func() bool {
					return c.coverage(nil, 1) == n
				})
				if windows > budget {
					t.Fatalf("pull rounds left %d/%d covered after %d windows (analytic %d)",
						c.coverage(nil, 1), n, budget, analytic)
				}
				for i, app := range c.Apps {
					if app.Count() != 1 {
						t.Fatalf("node %d delivered %d copies, want exactly 1", i, app.Count())
					}
				}
				t.Logf("pull covered %d nodes in %d windows (analytic push rounds %d)", n, windows, analytic)
			},
		},
		{
			// Deferred lazy push under loss and slow links: announcements
			// ride announce timers, payload fetches are pulled, repair
			// backstops lost IHAVEs.
			name: "lazypush/deferred-announce-loss",
			cfg: clusterConfig{
				n: n, seed: 37, style: "lazypush",
				fanout: 4, hops: 9,
				announceEvery: 100 * time.Millisecond,
				repairEvery:   400 * time.Millisecond,
				maxDelay:      15 * time.Millisecond,
			},
			run: func(t *testing.T, c *cluster) {
				inter := start(t, c.init, core.ProtocolPushGossip)
				// Event 1 spreads loss-free: every node registers the
				// interaction (a node never contacted at all has no state
				// to repair from).
				notify(t, c.init, inter, 1)
				warm := advanceUntil(c.Clock, 100*time.Millisecond, 40, func() bool {
					return c.coverage(nil, 1) == n
				})
				if warm > 40 {
					t.Fatalf("lossless lazy push covered %d/%d after budget", c.coverage(nil, 1), n)
				}
				// Event 2 fights 10% loss on announcements, fetches, and
				// payloads; announce retries and repair close it.
				c.Bus.SetLoss(0.10)
				notify(t, c.init, inter, 2)
				windows := advanceUntil(c.Clock, 100*time.Millisecond, 40, func() bool {
					return c.coverage(nil, 2) == n
				})
				if windows > 40 {
					t.Fatalf("lossy lazy push covered %d/%d after budget", c.coverage(nil, 2), n)
				}
				for i, app := range c.Apps {
					if app.Count() != 2 {
						t.Fatalf("node %d delivered %d copies, want exactly 2", i, app.Count())
					}
				}
				t.Logf("deferred lazy push: event1 in %d windows, lossy event2 in %d windows", warm, windows)
			},
		},
		{
			// Churn mid-round: a quarter of the nodes crash while the pull
			// epidemic is in flight; survivors still converge, the dead
			// stay silent.
			name: "pull/churn-midround",
			cfg: clusterConfig{
				n: n, seed: 53,
				pullEvery: 100 * time.Millisecond,
			},
			run: func(t *testing.T, c *cluster) {
				inter := start(t, c.init, core.ProtocolPullGossip)
				notify(t, c.init, inter, 1)
				joinAll(t, c.dissems(), inter, core.ProtocolPullGossip)
				// Crash every 4th node 150ms in — mid-pull-round.
				crashRNG := rand.New(rand.NewSource(99))
				alive := make(map[int]bool, n)
				for i := 0; i < n; i++ {
					alive[i] = true
				}
				var crashed []int
				for _, i := range crashRNG.Perm(n)[:n/4] {
					crashed = append(crashed, i)
					alive[i] = false
				}
				c.Clock.AfterFunc(150*time.Millisecond, func() {
					for _, i := range crashed {
						c.crash(i)
					}
				})
				budget := 40
				windows := advanceUntil(c.Clock, 100*time.Millisecond, budget, func() bool {
					return c.coverage(alive, 1) == n-len(crashed)
				})
				if windows > budget {
					t.Fatalf("churned pull covered %d/%d survivors after budget",
						c.coverage(alive, 1), n-len(crashed))
				}
				// The dead must not have taken deliveries after crashing:
				// counts are frozen at 0 or 1 and no app saw duplicates.
				for i, app := range c.Apps {
					if app.Count() > 1 {
						t.Fatalf("node %d delivered %d copies, want at most 1", i, app.Count())
					}
				}
				t.Logf("%d/%d survivors covered in %d windows despite %d mid-round crashes",
					c.coverage(alive, 1), n-len(crashed), windows, len(crashed))
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			c := newCluster(t, sc.cfg)
			sc.run(t, c)
		})
	}
}

// TestScenarioAggregation runs push-sum aggregation end to end on the
// virtual clock: services join through the coordinator, exchange rounds
// fire from their runners, and the querier's estimate must reach ground
// truth within the analytic round budget from internal/epidemic. The
// query's window outlasts the run, so push-sum mixes once.
func TestScenarioAggregation(t *testing.T) {
	const exchangeEvery = 100 * time.Millisecond
	cases := []struct {
		name string
		fn   aggregate.Func
		n    int
		loss float64
		seed int64
	}{
		{name: "avg/lossless", fn: aggregate.FuncAvg, n: 64, seed: 71},
		{name: "count/lossless", fn: aggregate.FuncCount, n: 48, seed: 83},
		// Extremes merge idempotently, so max survives message loss.
		{name: "max/10pct-loss", fn: aggregate.FuncMax, n: 64, loss: 0.10, seed: 97},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFabric(t, tc.seed, &core.CoordinatorConfig{Address: "mem://coordinator"})
			clk, bus := f.Clock, f.Bus
			ctx := context.Background()
			values := aggServices(t, f, tc.seed, tc.n, exchangeEvery, 0)
			truthSum, truthMax := 0.0, math.Inf(-1)
			for _, v := range values {
				truthSum += v
				truthMax = math.Max(truthMax, v)
			}
			querier := aggQuerier(t, f, tc.seed, exchangeEvery, 0)

			bus.SetLoss(tc.loss)
			task, err := querier.StartContinuous(ctx, "value", tc.fn, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			analytic, err := epidemic.PushSumRoundsToEpsilon(tc.n+1, task.Params.Fanout, aggEpsilon)
			if err != nil {
				t.Fatal(err)
			}
			budget := 2*analytic + 10
			windows := advanceUntil(clk, exchangeEvery, budget, converging(func() (float64, bool) {
				return querier.Estimate(task.ID)
			}))
			if windows > budget {
				t.Fatalf("aggregation not converged after %d windows (analytic %d)", budget, analytic)
			}

			var truth float64
			switch tc.fn {
			case aggregate.FuncAvg:
				// The querier participates without a value: passive node.
				truth = truthSum / float64(tc.n)
			case aggregate.FuncCount:
				truth = float64(tc.n)
			case aggregate.FuncMax:
				truth = truthMax
			}
			est, ok := querier.Estimate(task.ID)
			if !ok {
				t.Fatal("querier has no estimate after convergence")
			}
			tol := 0.02 // estimates stabilize before the last digits settle
			if tc.fn == aggregate.FuncMax {
				tol = 1e-9 // idempotent merge is exact
			}
			if rel := math.Abs(est-truth) / math.Max(math.Abs(truth), 1e-12); rel > tol {
				t.Fatalf("%s estimate %.6f vs truth %.6f (rel err %.3e > %.0e)", tc.fn, est, truth, rel, tol)
			}
			t.Logf("%s converged in %d windows (analytic ε-rounds %d, budget %d): estimate %.4f truth %.4f",
				tc.fn, windows, analytic, budget, est, truth)
		})
	}
}
