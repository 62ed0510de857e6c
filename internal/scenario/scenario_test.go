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
)

type eventBody struct {
	XMLName xml.Name `xml:"urn:example:scenario Event"`
	Seq     int      `xml:"Seq"`
}

// cluster is one dissemination deployment on a virtual clock: coordinator,
// n disseminator nodes each running its own rounds, and an initiator.
type cluster struct {
	clk     *clock.Virtual
	bus     *virtBus
	coord   *core.Coordinator
	init    *core.Initiator
	addrs   []string
	nodes   []*wsgossip.Node
	dissems []*core.Disseminator
	apps    []*core.CollectingApp
	// regs holds one metrics registry per node, so scenario assertions can
	// attribute counters to individual nodes.
	regs []*metrics.Registry
	// planes holds each node's delivery plane when clusterConfig.plane is
	// set (indexed like dissems), plus the initiator's. Nil entries mean
	// that sender goes to the bus directly.
	planes    []*delivery.Plane
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
	minDelay      time.Duration
	maxDelay      time.Duration
	// nodeClock, when set, overrides node i's clock (the straggler scenario
	// wraps the shared virtual clock in a skewing one). Nil or a nil return
	// keeps the shared clock.
	nodeClock func(i int, shared *clock.Virtual) clock.Clock
	// plane, when set, wraps each sender's caller in a delivery plane built
	// from the returned budgets; a nil return leaves that sender on the raw
	// bus. It is called once per node and once with i == -1 for the
	// initiator.
	plane func(i int) *delivery.Config
}

func newCluster(t *testing.T, cfg clusterConfig) *cluster {
	t.Helper()
	if cfg.minDelay == 0 {
		cfg.minDelay = time.Millisecond
	}
	if cfg.maxDelay == 0 {
		cfg.maxDelay = 5 * time.Millisecond
	}
	clk := clock.NewVirtual()
	bus := newVirtBus(clk, cfg.seed, cfg.minDelay, cfg.maxDelay)
	c := &cluster{clk: clk, bus: bus}

	ccfg := core.CoordinatorConfig{
		Address:              "mem://coordinator",
		RNG:                  rand.New(rand.NewSource(cfg.seed)),
		TargetsPerRegistrant: cfg.targets,
	}
	if cfg.fanout > 0 {
		f, h := cfg.fanout, cfg.hops
		ccfg.Params = func(int) (int, int) { return f, h }
	}
	if cfg.style == "lazypush" {
		ccfg.Style = gossip.StyleLazyPush
	}
	c.coord = core.NewCoordinator(ccfg)
	bus.Register("mem://coordinator", c.coord.Handler())

	ctx := context.Background()
	for i := 0; i < cfg.n; i++ {
		addr := fmt.Sprintf("mem://node%03d", i)
		app := core.NewCollectingApp()
		ncfg := wsgossip.NodeConfig{
			Address:       addr,
			Caller:        &nodeCaller{bus: bus, from: addr},
			App:           app,
			Clock:         clk,
			Seed:          nodeSeed(cfg.seed, i),
			Coordinator:   "mem://coordinator",
			PullEvery:     cfg.pullEvery,
			RepairEvery:   cfg.repairEvery,
			AnnounceEvery: cfg.announceEvery,
			JitterFrac:    0.2,
		}
		if cfg.plane != nil {
			ncfg.Delivery = cfg.plane(i)
		}
		if cfg.nodeClock != nil {
			if c := cfg.nodeClock(i, clk); c != nil {
				ncfg.Clock = c
			}
		}
		node, err := wsgossip.NewNode(ncfg)
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, node.Handler())
		if err := node.Start(ctx); err != nil {
			t.Fatal(err)
		}
		// Start's subscribe is a zero-delay timer: fire it now, so nodes
		// subscribe in index order before any traffic.
		clk.Advance(0)
		if got := len(c.coord.Subscribers()); got != i+1 {
			t.Fatalf("%d subscribers after starting node %d, want %d", got, i, i+1)
		}
		c.addrs = append(c.addrs, addr)
		c.nodes = append(c.nodes, node)
		c.dissems = append(c.dissems, node.Disseminator())
		c.apps = append(c.apps, app)
		c.planes = append(c.planes, node.Plane())
		c.regs = append(c.regs, node.Registry())
	}
	c.initReg = metrics.NewRegistry()
	var initCaller soap.Caller = bus
	if cfg.plane != nil {
		if pc := cfg.plane(-1); pc != nil {
			filled := *pc
			filled.Caller = bus
			filled.Clock = clk
			filled.Metrics = c.initReg
			if filled.RNG == nil {
				filled.RNG = rand.New(rand.NewSource(cfg.seed*7919 - 1))
			}
			c.initPlane = delivery.NewPlane(filled)
			initCaller = c.initPlane
		}
	}
	var err error
	c.init, err = core.NewInitiator(core.InitiatorConfig{
		Address:    "mem://initiator",
		Caller:     initCaller,
		Activation: "mem://coordinator",
		Metrics:    c.initReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Stop()
		}
		if c.initPlane != nil {
			c.initPlane.Close()
		}
	})
	return c
}

// nodeSeed spaces the node seeds of one cluster 8 apart: a Node draws its
// six component streams from seed+0 … seed+5.
func nodeSeed(clusterSeed int64, i int) int64 { return clusterSeed*1024 + int64(i)*8 }

// crash kills node i at the current instant: the bus drops its traffic and
// the node stops scheduling rounds.
func (c *cluster) crash(i int) {
	c.bus.Crash(c.addrs[i])
	c.nodes[i].Stop()
}

// coverage counts nodes in alive whose app received at least want events.
func (c *cluster) coverage(alive map[int]bool, want int) int {
	covered := 0
	for i, app := range c.apps {
		if alive != nil && !alive[i] {
			continue
		}
		if app.Count() >= want {
			covered++
		}
	}
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
				ctx := context.Background()
				inter, err := c.init.StartInteraction(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
					t.Fatal(err)
				}
				c.clk.Advance(100 * time.Millisecond) // push phase: a few link delays deep
				if got := c.coverage(nil, 1); got != n {
					t.Fatalf("lossless push covered %d/%d", got, n)
				}

				const loss = 0.40
				c.bus.SetLoss(loss)
				if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 2}); err != nil {
					t.Fatal(err)
				}
				c.clk.Advance(100 * time.Millisecond)
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
				windows := advanceUntil(c.clk, 200*time.Millisecond, 30, func() bool {
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
				c.clk.Advance(20 * time.Millisecond)
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
				windows := advanceUntil(c.clk, 100*time.Millisecond, budget, func() bool {
					return c.coverage(nil, 1) == n
				})
				if windows > budget {
					t.Fatalf("pull rounds left %d/%d covered after %d windows (analytic %d)",
						c.coverage(nil, 1), n, budget, analytic)
				}
				for i, app := range c.apps {
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
				ctx := context.Background()
				inter, err := c.init.StartInteraction(ctx)
				if err != nil {
					t.Fatal(err)
				}
				// Event 1 spreads loss-free: every node registers the
				// interaction (a node never contacted at all has no state
				// to repair from).
				if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 1}); err != nil {
					t.Fatal(err)
				}
				warm := advanceUntil(c.clk, 100*time.Millisecond, 40, func() bool {
					return c.coverage(nil, 1) == n
				})
				if warm > 40 {
					t.Fatalf("lossless lazy push covered %d/%d after budget", c.coverage(nil, 1), n)
				}
				// Event 2 fights 10% loss on announcements, fetches, and
				// payloads; announce retries and repair close it.
				c.bus.SetLoss(0.10)
				if _, _, err := c.init.Notify(ctx, inter, eventBody{Seq: 2}); err != nil {
					t.Fatal(err)
				}
				windows := advanceUntil(c.clk, 100*time.Millisecond, 40, func() bool {
					return c.coverage(nil, 2) == n
				})
				if windows > 40 {
					t.Fatalf("lossy lazy push covered %d/%d after budget", c.coverage(nil, 2), n)
				}
				for i, app := range c.apps {
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
				c.clk.AfterFunc(150*time.Millisecond, func() {
					for _, i := range crashed {
						c.crash(i)
					}
				})
				budget := 40
				windows := advanceUntil(c.clk, 100*time.Millisecond, budget, func() bool {
					return c.coverage(alive, 1) == n-len(crashed)
				})
				if windows > budget {
					t.Fatalf("churned pull covered %d/%d survivors after budget",
						c.coverage(alive, 1), n-len(crashed))
				}
				// The dead must not have taken deliveries after crashing:
				// counts are frozen at 0 or 1 and no app saw duplicates.
				for i, app := range c.apps {
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
			clk := clock.NewVirtual()
			bus := newVirtBus(clk, tc.seed, time.Millisecond, 5*time.Millisecond)
			ctx := context.Background()

			coord := core.NewCoordinator(core.CoordinatorConfig{
				Address: "mem://coordinator",
				RNG:     rand.New(rand.NewSource(tc.seed)),
			})
			bus.Register("mem://coordinator", coord.Handler())

			valueRNG := rand.New(rand.NewSource(tc.seed * 7))
			var truthSum, truthMax float64
			truthMax = math.Inf(-1)
			var runners []*core.Runner
			defer func() {
				for _, r := range runners {
					r.Stop()
				}
			}()
			startRunner := func(svc interface{ Tick(context.Context) }, seed int64) {
				t.Helper()
				r, err := core.NewRunner(core.RunnerConfig{
					Clock: clk,
					RNG:   rand.New(rand.NewSource(seed)),
					Loops: []core.Loop{{Name: "aggregate", Period: exchangeEvery, Jitter: exchangeEvery / 5, Tick: svc.Tick}},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Start(ctx); err != nil {
					t.Fatal(err)
				}
				runners = append(runners, r)
			}
			for i := 0; i < tc.n; i++ {
				addr := fmt.Sprintf("mem://svc%03d", i)
				v := 10 + valueRNG.Float64()*90
				truthSum += v
				truthMax = math.Max(truthMax, v)
				val := v
				svc, err := aggregate.NewService(aggregate.ServiceConfig{
					Address: addr,
					Caller:  bus,
					Value:   func() float64 { return val },
					RNG:     rand.New(rand.NewSource(tc.seed*13 + int64(i))),
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
				startRunner(svc, tc.seed*17+int64(i))
			}
			querier, err := aggregate.NewQuerier(aggregate.QuerierConfig{
				Address:    "mem://querier",
				Caller:     bus,
				Activation: "mem://coordinator",
				RNG:        rand.New(rand.NewSource(tc.seed * 19)),
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
			startRunner(querier, tc.seed*23)

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
