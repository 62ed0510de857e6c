package main

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	"wsgossip/bench/fabric"
	"wsgossip/internal/aggregate"
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/faults"
	"wsgossip/internal/gossip"
	"wsgossip/internal/membership"
	"wsgossip/internal/metrics"
	"wsgossip/internal/probe"
	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
)

// virt-node-faulty-32: full nodes — lazy-push Disseminator with deferred
// announcements, a core.Runner firing announce, repair, pull, membership
// and aggregate rounds, a live membership view filtered by the delivery
// plane, an indirect prober wired to the plane's circuit transitions, and a
// windowed push-sum with two continuous queries — on one clock.Virtual over
// the bench-local fabric, under a parsed faults.Plan. Notifications are
// published on the virtual schedule; the run is one goroutine, so every
// count and every virtual latency is a pure function of the seed.

type virtSizes struct {
	nodes, body, store int
	rate, warmRate     int // notifications per virtual second, measured and warm-up
	bootSecs           int // membership bootstrap before the interaction starts
	warmSecs, runSecs  int // virtual seconds of warm-up and of measured phase
	drainSecs          int
	announce, repair   time.Duration
	pull, member       time.Duration
	aggTick, window    time.Duration
}

func virtSizesFor(o options) virtSizes {
	s := virtSizes{
		// The warm-up publishes four times as fast as the measured phase:
		// it has to fill every store, and the periodic rounds it would
		// otherwise sit through are set-up time nobody learns from.
		nodes: 32, body: 512, store: storeSize, rate: 10, warmRate: 40,
		bootSecs: 3, warmSecs: warmNotifications / 40, drainSecs: 5,
		announce: 100 * time.Millisecond, repair: time.Second, pull: time.Second,
		member: 500 * time.Millisecond, aggTick: 250 * time.Millisecond, window: 5 * time.Second,
	}
	s.runSecs = virtSecsPerSecond * o.seconds
	if o.quick {
		s.nodes, s.warmSecs, s.warmRate, s.runSecs, s.store = 12, 3, 10, 8, 24
		s.bootSecs, s.drainSecs = 2, 3
	}
	return s
}

// crashFor is how long the four crashed nodes stay isolated.
const crashFor = 3 * time.Second

// virtSecsPerSecond is how many virtual seconds the reference box
// simulates per wall second of measured phase.
const virtSecsPerSecond = 3

type virtNode struct {
	addr    string
	reg     *metrics.Registry
	msvc    *membership.Service
	prober  *probe.Prober
	plane   *delivery.Plane
	runner  *core.Runner
	planeTx *wireTap // binding tap under the plane
	rawTx   *wireTap // binding tap of membership and probes, which bypass the plane
}

type virtWorkload struct {
	o          options
	s          virtSizes
	c          *cluster
	clk        *clock.Virtual
	fab        *fabric.Fabric
	nodes      []*virtNode
	window     *aggregate.Window
	entropy    io.Reader  // crypto/rand.Reader as found, restored at teardown
	underPlane []*wireTap // binding taps whose failed sends a plane must have counted
	loads      []float64
	fired      int64 // timers fired through the counting clock (traced runs)
	next       int
	t0         time.Duration // virtual start of the measured phase
	// unsettled is the virtual interval during which membership was
	// disturbed; epochs overlapping it (or the window after it) are not
	// held to the aggregate's accuracy.
	unsettledFrom, unsettledTo time.Duration
}

func newVirtWorkload(o options) *virtWorkload {
	return &virtWorkload{o: o, s: virtSizesFor(o)}
}

// countingClock counts the timers that fire through it.
type countingClock struct {
	clock.Clock
	fired *int64
}

func (c countingClock) AfterFunc(d time.Duration, fn func()) func() bool {
	return c.Clock.AfterFunc(d, func() {
		*c.fired++
		fn()
	})
}

func (w *virtWorkload) setup(traced bool) error {
	ctx := context.Background()
	var t *tracer
	if traced {
		t = newTracer(false)
		t.on.Store(true)
	}
	// Message and activity identifiers come from crypto/rand. The stack
	// sorts by them in places (aggregate tasks tick in identifier order and
	// share one RNG), so for the run to be a pure function of its seed the
	// identifiers must be too. crypto/rand.Read honours a replaced Reader.
	w.entropy = crand.Reader
	crand.Reader = w.seededEntropy()
	w.clk = clock.NewVirtual()
	var clk clock.Clock = w.clk
	if t != nil {
		clk = countingClock{Clock: w.clk, fired: &w.fired}
	}
	w.fab = fabric.New(w.clk, w.o.seed, time.Millisecond, 5*time.Millisecond)
	total := w.s.warmSecs*w.s.warmRate + w.s.runSecs*w.s.rate
	c := newCluster(w.o, t, w.s.nodes, total, w.s.body, func() int64 { return int64(w.clk.Now()) })
	w.c = c

	c.coord = core.NewCoordinator(core.CoordinatorConfig{
		Address: coordinatorAddr,
		Style:   gossip.StyleLazyPush,
		RNG:     c.rng(1, 0),
		Metrics: c.coordReg,
	})
	w.fab.Register(coordinatorAddr, tapHandler(c.coord.Handler(), t, -1))

	loadRNG := c.rng(9, 0)
	for i := 0; i < w.s.nodes; i++ {
		w.loads = append(w.loads, 0.1+0.8*loadRNG.Float64())
		c.addrs = append(c.addrs, nodeAddr(i))
	}
	for i := 0; i < w.s.nodes; i++ {
		if err := w.addNode(i, clk, t); err != nil {
			return err
		}
	}
	control := w.fab.Endpoint("mem://harness")
	if err := c.subscribeAll(ctx, control, coordinatorAddr,
		core.ProtocolPushGossip, core.ProtocolPullGossip, core.ProtocolAggregate); err != nil {
		return err
	}
	// Background loss applies from the first message; the timed faults are
	// scheduled relative to the measured phase below.
	boot, err := faults.ParsePlan("0s loss 0.05\n")
	if err != nil {
		return err
	}
	if err := boot.Schedule(w.clk, w.fab.Applier()); err != nil {
		return err
	}
	for i, n := range w.nodes {
		if err := n.runner.Start(ctx); err != nil {
			return err
		}
		if i > 0 {
			n.msvc.Join(ctx, []string{nodeAddr(0)})
		}
	}
	w.clk.Advance(time.Duration(w.s.bootSecs) * time.Second)
	for _, n := range w.nodes {
		if got := n.msvc.Size(); got != w.s.nodes-1 {
			return fmt.Errorf("membership bootstrap: %s knows %d of %d peers", n.addr, got, w.s.nodes-1)
		}
	}

	initReg := metrics.NewRegistry()
	initWire := c.wire(w.fab.Endpoint("mem://initiator"), -1)
	initPlane := delivery.NewPlane(w.planeConfig(initWire, clk, -1, initReg, nil, nil))
	c.planes = append(c.planes, initPlane)
	w.underPlane = append(w.underPlane, initWire)
	if err := c.start(ctx, c.role(initPlane, -1), "mem://initiator", coordinatorAddr, initReg); err != nil {
		return err
	}
	w.publish(ctx, w.s.warmSecs*w.s.warmRate, w.s.warmRate, nil)
	w.t0 = w.clk.Now()
	if err := w.schedulePlan(); err != nil {
		return err
	}
	if t != nil {
		t.on.Store(false)
	}
	return nil
}

func (w *virtWorkload) planeConfig(b binding, clk clock.Clock, node int, reg *metrics.Registry, onDown, onUp func(string)) delivery.Config {
	return delivery.Config{
		Caller:           b,
		Clock:            clk,
		RNG:              w.c.rng(4, node),
		Metrics:          reg,
		AttemptTimeout:   time.Second,
		MaxAttempts:      3,
		BackoffBase:      50 * time.Millisecond,
		BackoffMax:       400 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Second,
		OnPeerDown:       onDown,
		OnPeerUp:         onUp,
	}
}

// addNode wires node i the way cmd/wsgossip-node wires a disseminator with
// -members, -delivery, -probe-k and -cluster-queries, on the virtual clock.
func (w *virtWorkload) addNode(i int, clk clock.Clock, t *tracer) error {
	c := w.c
	addr := nodeAddr(i)
	reg := metrics.NewRegistry()
	n := &virtNode{addr: addr, reg: reg}
	ep := w.fab.Endpoint(addr)
	n.rawTx, n.planeTx = c.wire(ep, i), c.wire(ep, i)
	w.underPlane = append(w.underPlane, n.planeTx)
	dispatcher := soap.NewDispatcher()

	// Membership and probes ride the raw binding: the failure detector must
	// see the real link, not a retried view of it.
	mep := membership.NewSOAPEndpoint(addr, n.rawTx)
	var err error
	n.msvc, err = membership.New(membership.Config{
		Endpoint:     mep,
		Clock:        clk,
		RNG:          c.rng(3, i),
		Fanout:       3,
		SuspectAfter: 10 * w.s.member,
		RemoveAfter:  20 * w.s.member,
		Metrics:      reg,
	})
	if err != nil {
		return err
	}
	mux := transport.NewMux()
	n.msvc.Register(mux)
	mux.Bind(mep)
	mep.RegisterActions(dispatcher)

	n.prober = probe.New(probe.Config{
		Self:    addr,
		Caller:  n.rawTx,
		Clock:   clk,
		Peers:   n.msvc,
		K:       3,
		Timeout: 500 * time.Millisecond,
		RNG:     c.rng(5, i),
		Metrics: reg,
		OnDown:  n.msvc.Suspect,
	})
	n.prober.RegisterActions(dispatcher)

	n.plane = delivery.NewPlane(w.planeConfig(n.planeTx, clk, i, reg, n.prober.Confirm, n.prober.ClearDegraded))
	c.planes = append(c.planes, n.plane)
	role := c.role(n.plane, i)
	view := n.plane.FilterView(n.msvc)

	d, err := core.NewDisseminator(core.DisseminatorConfig{
		Address:   addr,
		Caller:    role,
		App:       c.track.app(i),
		RNG:       c.rng(2, i),
		Peers:     view,
		StoreSize: w.s.store,
		Metrics:   reg,
		Clock:     clk,
	})
	if err != nil {
		return err
	}
	d.RegisterActions(dispatcher)
	d.DeferAnnouncements()

	load := w.loads[i]
	values := map[string]func() float64{"load": func() float64 { return load }}
	one := func() float64 { return 1 }
	var aggregator interface{ Tick(context.Context) }
	if i == 0 {
		q, err := aggregate.NewQuerier(aggregate.QuerierConfig{
			Address: addr, Caller: role, Activation: coordinatorAddr,
			Value: one, Values: values, RNG: c.rng(6, i), Metrics: reg, Clock: clk, Peers: view,
		})
		if err != nil {
			return err
		}
		q.RegisterActions(dispatcher)
		w.window, err = aggregate.NewWindow(aggregate.WindowConfig{
			Querier: q,
			Window:  w.s.window,
			Queries: []aggregate.ContinuousQuery{
				{Name: "nodes", Func: aggregate.FuncCount},
				{Name: "load", Func: aggregate.FuncAvg},
			},
		})
		if err != nil {
			return err
		}
		aggregator = w.window
	} else {
		svc, err := aggregate.NewService(aggregate.ServiceConfig{
			Address: addr, Caller: role,
			Value: one, Values: values, RNG: c.rng(6, i), Metrics: reg, Clock: clk, Peers: view,
		})
		if err != nil {
			return err
		}
		svc.RegisterActions(dispatcher)
		aggregator = svc
	}
	w.fab.Register(addr, tapHandler(dispatcher, t, i))

	loop := func(name string, period time.Duration, tick func(context.Context)) core.Loop {
		return core.Loop{Name: name, Period: period, Jitter: period / 10, Tick: tapLoop(name, tick, t, i)}
	}
	n.runner, err = core.NewRunner(core.RunnerConfig{
		Clock:   clk,
		RNG:     c.rng(7, i),
		Metrics: reg,
		Loops: []core.Loop{
			loop("announce", w.s.announce, d.TickAnnounce),
			loop("repair", w.s.repair, d.TickRepair),
			loop("pull", w.s.pull, d.TickPull),
			loop("membership", w.s.member, n.msvc.Tick),
			loop("aggregate", w.s.aggTick, aggregator.Tick),
		},
	})
	if err != nil {
		return err
	}
	c.regs = append(c.regs, reg)
	c.dissems = append(c.dissems, d)
	w.nodes = append(w.nodes, n)
	return nil
}

// schedulePlan arms the timed faults of the measured phase: a one-way cut,
// a NAT'd node, and four nodes that crash and recover. Times are fractions
// of the phase, so a longer phase stretches the plan with it.
func (w *virtWorkload) schedulePlan() error {
	at := func(frac float64) time.Duration {
		return (time.Duration(frac*float64(w.s.runSecs)*1000) * time.Millisecond).Round(time.Millisecond)
	}
	n := w.s.nodes
	crashed := []string{nodeAddr(n - 1), nodeAddr(n - 2), nodeAddr(n - 3), nodeAddr(n - 4)}
	var b strings.Builder
	fmt.Fprintf(&b, "%v cut %s->%s name=oneway\n", at(0.10), nodeAddr(1), nodeAddr(2))
	fmt.Fprintf(&b, "%v nat %s via %s,%s\n", at(0.15), nodeAddr(5), nodeAddr(6), nodeAddr(7))
	// The outage is shorter than membership's SuspectAfter: nothing in the
	// stack probes a suspect, so nodes that all suspect each other never
	// find each other again.
	fmt.Fprintf(&b, "%v crash %s\n", at(0.40), strings.Join(crashed, ","))
	fmt.Fprintf(&b, "%v recover %s\n", at(0.40)+crashFor, strings.Join(crashed, ","))
	plan, err := faults.ParsePlan(b.String())
	if err != nil {
		return err
	}
	w.unsettledFrom, w.unsettledTo = w.t0+at(0.40), w.t0+at(0.40)+crashFor+w.s.window
	return plan.Schedule(w.clk, w.fab.Applier())
}

// publish runs the virtual schedule for count notifications, calling
// second after each whole virtual second of it.
func (w *virtWorkload) publish(ctx context.Context, count, rate int, second func() error) (failed int64) {
	start := w.clk.Now()
	interval := time.Second / time.Duration(rate)
	for k := 0; k < count; k++ {
		due := start + time.Duration(k)*interval
		w.clk.RunUntil(due)
		if err := w.c.notify(ctx, w.next, int64(due)); err != nil {
			failed++
		}
		w.next++
		if (k+1)%rate == 0 {
			w.clk.RunUntil(start + time.Duration(k+1)*interval)
			if second != nil {
				if err := second(); err != nil {
					return failed
				}
			}
		}
	}
	return failed
}

func (w *virtWorkload) measure(res *result) error {
	ctx := context.Background()
	c := w.c
	total := w.s.runSecs * w.s.rate
	truth := map[string]float64{"nodes": float64(w.s.nodes)}
	for _, l := range w.loads {
		truth["load"] += l / float64(w.s.nodes)
	}
	judged := map[string]uint64{} // per query: last frozen epoch judged
	var massErrMax, relErrMax float64
	pendingMax, sec := 0, 0
	fired0, delivered0 := w.fired, w.fab.Stats().Delivered

	before := c.snapshot()
	ph := beginPhase()
	if c.t != nil {
		c.t.on.Store(false)
	}
	res.attempted = int64(total)
	res.failed = w.publish(ctx, total, w.s.rate, func() error {
		traced := w.o.trace && sec%2 == 1
		ph.mark(traced)
		sec++
		if c.t != nil {
			c.t.on.Store(w.o.trace && sec%2 == 1)
		}
		if p := w.clk.Pending(); p > pendingMax {
			pendingMax = p
		}
		for _, n := range w.nodes {
			massErrMax = math.Max(massErrMax, math.Abs(n.reg.FloatGauge("aggregate_mass_error").Value()))
		}
		for _, est := range w.window.Estimates() {
			if est.FrozenEpoch == 0 || est.FrozenEpoch == judged[est.Query] || !est.Defined {
				continue
			}
			judged[est.Query] = est.FrozenEpoch
			from := time.Duration(est.FrozenEpoch-1) * w.s.window
			if from+w.s.window > w.unsettledFrom && from < w.unsettledTo {
				continue
			}
			relErrMax = math.Max(relErrMax, math.Abs(est.Estimate-truth[est.Query])/truth[est.Query])
		}
		return nil
	})
	if c.t != nil {
		c.t.on.Store(false)
	}
	w.clk.Advance(time.Duration(w.s.drainSecs) * time.Second)
	totals := ph.finish()
	d := c.snapshot().minus(before)
	fabStats := w.fab.Stats()

	obs := observed{
		ph: ph, totals: totals,
		subs: w.s.nodes, notifications: total,
		wireMsgs: d["wire.msgs"], wireBytes: d["wire.bytes"],
		// Lazy push with repair closes the gaps infect-and-die push
		// leaves; the floor is the lossy push model all the same.
		expected: expectedCoverage(w.s.nodes, c.inter.Params.Fanout, c.inter.Params.Hops, 0.05),
	}
	obs.deliver, obs.spread, obs.pairs, obs.incomplete = c.track.latencies(w.s.warmSecs*w.s.warmRate, w.next)
	res.fill(obs, w.o.trace)
	res.checkTracker(c.track)
	res.soapLayers(c, d, float64(obs.pairs), w.s.store)

	l := res.metrics
	l["aggregate.mass_error_max"] = massErrMax
	l["aggregate.rel_err_max"] = relErrMax
	tot := w.fab.Faults().Totals()
	l["faults.dropped"] = float64(tot.Dropped + tot.Lost)
	l["faults.refused"] = float64(tot.Refused)
	l["clock.pending_max"] = float64(pendingMax)
	if c.t != nil {
		l["clock.timers_fired"] = float64(w.fired-fired0) + float64(fabStats.Delivered-delivered0)
		l["membership.select_peers_ns"] = nsPerOp(func(int) {
			sink = w.nodes[1].msvc.SelectPeers(replayRNG, 3, w.nodes[1].addr)
		})
		replayClock(l)
		replayFaults(l, w.o.seed)
		if w.o.traceFile != "" {
			if err := c.t.writeFile(w.o.traceFile); err != nil {
				return err
			}
		}
	}

	res.checkMass(massErrMax)
	var underPlane float64
	for _, tap := range w.underPlane {
		underPlane += float64(tap.errs.Load())
	}
	all := c.snapshot()
	res.checkAccounting(accounting{
		fabric: fabStats, table: tot,
		planeFailures: all["delivery_attempt_failures_total{transport}"],
		tapErrs:       all["wire.errs"], tapErrsUnderPlane: underPlane,
	})
	res.exact = []string{"wire_bytes_per_delivery", "msgs_per_delivery", "coverage",
		"harness.deliver_p50_ms", "harness.spread_p50_ms",
		"harness.deliver_p99_ms", "harness.spread_p99_ms"}
	return nil
}

// seededEntropy is the seeded stream that stands in for crypto/rand.Reader.
func (w *virtWorkload) seededEntropy() io.Reader {
	return rand.New(rand.NewSource(w.o.seed*1000003 + 8*7919))
}

func (w *virtWorkload) teardown() {
	if w.entropy != nil {
		crand.Reader = w.entropy
	}
	for _, n := range w.nodes {
		n.runner.Stop()
	}
	if w.c != nil {
		for _, p := range w.c.planes {
			p.Close()
		}
	}
	soap.InstallWireMetrics(nil)
	w.c, w.nodes = nil, nil
}
