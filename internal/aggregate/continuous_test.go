package aggregate

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

func TestEpochAt(t *testing.T) {
	w := time.Second
	cases := []struct {
		now  time.Duration
		want uint64
	}{
		{0, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 2},
		{2500 * time.Millisecond, 3},
		{-time.Second, 1}, // clamped: virtual time starts at zero
	}
	for _, c := range cases {
		if got := EpochAt(c.now, w); got != c.want {
			t.Errorf("EpochAt(%v, %v) = %d, want %d", c.now, w, got, c.want)
		}
	}
	if got := EpochAt(time.Second, 0); got != 0 {
		t.Errorf("EpochAt with zero window = %d, want 0", got)
	}
}

// ackGate wraps a Caller and, while holding, parks exchange acks instead of
// delivering them — the deterministic stand-in for ack loss. Single
// goroutine only (MemBus dispatch is synchronous).
type ackGate struct {
	inner soap.Caller
	hold  bool
	held  []func() error
	// refuse, when set, is asked about every exchange envelope, with the
	// shares it carries; true refuses the send synchronously, as an
	// unreachable peer would. refused counts the shares of refused envelopes.
	refuse  func([]Share) bool
	refused int
}

func (g *ackGate) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	return g.inner.Call(ctx, to, env)
}

func (g *ackGate) Send(ctx context.Context, to string, env *soap.Envelope) error {
	if g.refuse != nil && env.Addressing().Action == ActionExchange {
		shares := make([]Share, len(env.Body.Blocks))
		for i, b := range env.Body.Blocks {
			if err := b.Decode(&shares[i]); err != nil {
				return err
			}
		}
		if g.refuse(shares) {
			g.refused += len(shares)
			return errors.New("ackGate: connection refused")
		}
	}
	if g.hold && env.Addressing().Action == ActionExchangeAck {
		e := env.Clone()
		g.held = append(g.held, func() error {
			return g.inner.Send(context.Background(), to, e)
		})
		return nil
	}
	return g.inner.Send(ctx, to, env)
}

// SendEncoded gates data as Send does the envelope it holds.
func (g *ackGate) SendEncoded(ctx context.Context, to string, data []byte) error {
	env, err := soap.Decode(data)
	if err != nil {
		return err
	}
	return g.Send(ctx, to, env)
}

func (g *ackGate) release() {
	held := g.held
	g.held = nil
	for _, send := range held {
		_ = send()
	}
}

// contCluster is an N-service continuous-aggregation deployment on a shared
// virtual clock, with per-node registries so every node's mass-error gauge
// can be pinned.
type contCluster struct {
	bus      *soap.MemBus
	gate     *ackGate
	clk      *clock.Virtual
	querier  *Querier
	window   *Window
	services []*Service
	regs     []*metrics.Registry
	qreg     *metrics.Registry
}

func newContCluster(t *testing.T, n int, seed int64, window time.Duration) *contCluster {
	t.Helper()
	ctx := context.Background()
	bus := soap.NewMemBus()
	c := &contCluster{bus: bus, gate: &ackGate{inner: bus}, clk: clock.NewVirtual()}
	coord := core.NewCoordinator(core.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(seed)),
	})
	bus.Register("mem://coordinator", coord.Handler())
	for i := 0; i < n; i++ {
		addr := addrOf(i)
		load := float64(i + 1)
		reg := metrics.NewRegistry()
		svc, err := NewService(ServiceConfig{
			Address: addr,
			Caller:  c.gate,
			Clock:   c.clk,
			Values: map[string]func() float64{
				"ones": func() float64 { return 1 },
				"load": func() float64 { return load },
			},
			RNG:     rand.New(rand.NewSource(seed + 100 + int64(i))),
			Metrics: reg,
		})
		if err != nil {
			t.Fatalf("NewService: %v", err)
		}
		bus.Register(addr, svc.Handler())
		c.services = append(c.services, svc)
		c.regs = append(c.regs, reg)
		if err := core.SubscribeClient(ctx, bus, "mem://coordinator", addr,
			core.RoleDisseminator, core.ProtocolAggregate); err != nil {
			t.Fatalf("subscribe %s: %v", addr, err)
		}
	}
	c.qreg = metrics.NewRegistry()
	q, err := NewQuerier(QuerierConfig{
		Address:    "mem://querier",
		Caller:     c.gate,
		Activation: "mem://coordinator",
		Clock:      c.clk,
		Values: map[string]func() float64{
			"ones": func() float64 { return 1 },
			"load": func() float64 { return 0 },
		},
		RNG:     rand.New(rand.NewSource(seed + 7)),
		Metrics: c.qreg,
	})
	if err != nil {
		t.Fatalf("NewQuerier: %v", err)
	}
	bus.Register("mem://querier", q.Handler())
	if err := core.SubscribeClient(ctx, bus, "mem://coordinator", "mem://querier",
		core.RoleDisseminator, core.ProtocolAggregate); err != nil {
		t.Fatalf("subscribe querier: %v", err)
	}
	c.querier = q
	w, err := NewWindow(WindowConfig{
		Querier: q,
		Window:  window,
		Queries: []ContinuousQuery{
			{Name: "ones", Func: FuncCount},
			{Name: "load", Func: FuncAvg},
		},
	})
	if err != nil {
		t.Fatalf("NewWindow: %v", err)
	}
	c.window = w
	return c
}

// step advances the shared clock and runs one exchange round everywhere.
func (c *contCluster) step(ctx context.Context, dt time.Duration) {
	c.clk.Advance(dt)
	for _, svc := range c.services {
		svc.Tick(ctx)
	}
	c.window.Tick(ctx)
}

// assertGaugesZero pins every node's mass-error gauge at exactly zero —
// the conservation contract holds at commit points, not just round
// boundaries, so this may be asserted at any instant between steps.
func (c *contCluster) assertGaugesZero(t *testing.T, when string) {
	t.Helper()
	for i, reg := range c.regs {
		if e := reg.FloatGauge("aggregate_mass_error").Value(); e != 0 {
			t.Fatalf("%s: node %d aggregate_mass_error = %g, want exactly 0", when, i, e)
		}
	}
	if e := c.qreg.FloatGauge("aggregate_mass_error").Value(); e != 0 {
		t.Fatalf("%s: querier aggregate_mass_error = %g, want exactly 0", when, e)
	}
}

// TestContinuousWindowTracksCluster is the happy-path acceptance test for
// the tentpole: a Window over a MemBus cluster rolls epochs on the shared
// clock, every closed epoch's count matches the population, the avg matches
// ground truth, and each node's conservation gauge is exactly zero at every
// round — including mid-window instants.
func TestContinuousWindowTracksCluster(t *testing.T) {
	const n = 6
	window := 500 * time.Millisecond
	c := newContCluster(t, n, 11, window)
	ctx := context.Background()

	for i := 0; i < 35; i++ {
		c.step(ctx, 50*time.Millisecond)
		c.assertGaugesZero(t, "mid-run")
	}

	ests := c.window.Estimates()
	if len(ests) != 2 {
		t.Fatalf("estimates = %d queries, want 2", len(ests))
	}
	byName := map[string]ClusterEstimate{}
	for _, e := range ests {
		byName[e.Query] = e
	}
	count := byName["ones"]
	if count.FrozenEpoch < 3 {
		t.Fatalf("count frozen epoch = %d, want >= 3 after 3.5 windows", count.FrozenEpoch)
	}
	if !count.Defined {
		t.Fatal("count estimate undefined")
	}
	wantCount := float64(n + 1) // n services + the querier
	if math.Abs(count.Estimate-wantCount)/wantCount > 0.01 {
		t.Fatalf("count estimate = %g, want %g within 1%%", count.Estimate, wantCount)
	}
	load := byName["load"]
	if !load.Defined {
		t.Fatal("load estimate undefined")
	}
	wantAvg := 0.0
	for i := 0; i < n; i++ {
		wantAvg += float64(i + 1)
	}
	wantAvg /= float64(n + 1) // querier contributes load 0
	if math.Abs(load.Estimate-wantAvg)/wantAvg > 0.01 {
		t.Fatalf("load estimate = %g, want %g within 1%%", load.Estimate, wantAvg)
	}

	// Epochs rolled on every node, not just the root.
	for i, svc := range c.services {
		if got := svc.Stats().Epochs; got < 3 {
			t.Fatalf("node %d epochs = %d, want >= 3", i, got)
		}
	}
}

// TestContinuousAckWithheldGaugeExactAtCommitPoints is the regression test
// for evaluating the mass-error gauge at exchange commit points. While acks
// are withheld the sender's split mass sits in the outstanding account: a
// gauge computed without that account — or only refreshed at round
// boundaries — reads a phantom deficit at exactly this instant. The
// contract: the gauge is exactly zero while shares are unacked, and stays
// exactly zero through the ack commits that later settle them.
func TestContinuousAckWithheldGaugeExactAtCommitPoints(t *testing.T) {
	const n = 4
	c := newContCluster(t, n, 23, time.Second)
	ctx := context.Background()

	// Two rounds with acks parked: every split share stays outstanding.
	c.gate.hold = true
	c.step(ctx, 50*time.Millisecond)
	c.step(ctx, 50*time.Millisecond)

	outstanding := 0.0
	for _, id := range heldTasks(c.querier.Service) {
		o, _ := c.querier.Outstanding(id)
		outstanding += o
	}
	if outstanding == 0 {
		t.Fatal("no outstanding mass while acks are withheld; the gate is not exercising the commit path")
	}
	c.assertGaugesZero(t, "acks withheld")

	before := c.querier.Stats().Commits
	c.gate.hold = false
	c.gate.release() // commits happen here, between round boundaries
	c.assertGaugesZero(t, "after ack release")
	if got := c.querier.Stats().Commits; got <= before {
		t.Fatalf("querier commits = %d after release, want > %d", got, before)
	}
}

// TestContinuousShareSemantics drives crafted shares at one service to pin
// the receive-side contract: a passive join contributes only from the next
// boundary, duplicates are absorbed once, and stale-epoch shares are acked
// but never absorbed.
func TestContinuousShareSemantics(t *testing.T) {
	const n = 3
	window := time.Second
	c := newContCluster(t, n, 31, window)
	ctx := context.Background()

	// Start the queries and let one round run.
	c.step(ctx, 50*time.Millisecond)
	tk, ok := c.window.Task("load")
	if !ok {
		t.Fatal("load query not started")
	}
	svc := c.services[0]
	epoch := svc.EpochOf(tk.ID)
	if epoch == 0 {
		t.Fatal("service has not rolled into an epoch")
	}

	_, w0, ok := svc.Mass(tk.ID)
	if !ok {
		t.Fatal("service does not hold the task")
	}
	share := Share{
		TaskID:       tk.ID,
		Function:     string(FuncAvg),
		From:         "mem://ghost",
		Sum:          3,
		Weight:       0.5,
		WindowMillis: window.Milliseconds(),
		Epoch:        epoch,
		Seq:          1,
		Root:         "mem://querier",
		Metric:       "load",
	}
	env, err := handMarshalled(ActionExchange, tk.Context, share)
	if err != nil {
		t.Fatal(err)
	}
	deliver := func() {
		if err := c.bus.Send(ctx, addrOf(0), env); err != nil {
			t.Fatalf("deliver share: %v", err)
		}
	}
	deliver()
	_, w1, _ := svc.Mass(tk.ID)
	if math.Abs((w1-w0)-share.Weight) > 1e-12 {
		t.Fatalf("absorbed weight delta = %g, want %g", w1-w0, share.Weight)
	}
	dupBefore := svc.Stats().DuplicateShares
	deliver() // identical (From, Seq): must not absorb again
	_, w2, _ := svc.Mass(tk.ID)
	if w2 != w1 {
		t.Fatalf("duplicate share changed mass: %g -> %g", w1, w2)
	}
	if got := svc.Stats().DuplicateShares; got != dupBefore+1 {
		t.Fatalf("duplicate counter = %d, want %d", got, dupBefore+1)
	}

	// Stale epoch: ack-only.
	stale := share
	stale.Seq = 2
	stale.Epoch = epoch - 1
	if stale.Epoch == 0 {
		// First epoch is 1; force a roll so epoch-1 is a real retired epoch.
		c.clk.Advance(window)
		svc.Tick(ctx)
		stale.Epoch = svc.EpochOf(tk.ID) - 1
		_, w2, _ = svc.Mass(tk.ID)
	}
	staleEnv, err := handMarshalled(ActionExchange, tk.Context, stale)
	if err != nil {
		t.Fatal(err)
	}
	staleBefore := svc.Stats().StaleShares
	if err := c.bus.Send(ctx, addrOf(0), staleEnv); err != nil {
		t.Fatalf("deliver stale share: %v", err)
	}
	_, w3, _ := svc.Mass(tk.ID)
	if w3 != w2 {
		t.Fatalf("stale share changed mass: %g -> %g", w2, w3)
	}
	if got := svc.Stats().StaleShares; got != staleBefore+1 {
		t.Fatalf("stale counter = %d, want %d", got, staleBefore+1)
	}
}

// TestContinuousReclaimAsymmetry pins the Service side of the one rule that
// lets mass come back mid-epoch: a synchronously refused FIRST send proves
// the share never left, so its mass is reclaimed on the spot; a refused RETRY
// proves nothing (the first copy may have arrived), so the share stays
// pending until its ack or the epoch boundary. A round sends one envelope per
// peer, and a refusal is the envelope's: each share in it takes the rule by
// itself, so the gate counts shares, not envelopes.
func TestContinuousReclaimAsymmetry(t *testing.T) {
	// Two services plus the querier: at most two targets per round, so the
	// outstanding account returns to zero exactly, not merely within an ulp.
	c := newContCluster(t, 2, 53, time.Second)
	ctx := context.Background()
	c.step(ctx, 50*time.Millisecond) // starts the queries; services hold nothing pending yet
	tk, ok := c.window.Task("load")
	if !ok {
		t.Fatal("load query not started")
	}
	svc := c.services[0]
	_, w0, _ := svc.Mass(tk.ID)

	// Every share of this round is a first send, and every one is refused.
	before := svc.Stats()
	c.gate.refuse = func([]Share) bool { return true }
	svc.Tick(ctx)
	after := svc.Stats()
	if c.gate.refused == 0 {
		t.Fatal("no share was offered to the caller; the round did not run")
	}
	if got := after.Recovered - before.Recovered; got != int64(c.gate.refused) {
		t.Fatalf("recovered %d shares, want every one of the %d shares refused", got, c.gate.refused)
	}
	if after.SharesSent != before.SharesSent {
		t.Fatalf("shares sent moved %d -> %d though every send was refused", before.SharesSent, after.SharesSent)
	}
	if o, _ := svc.Outstanding(tk.ID); o != 0 {
		t.Fatalf("outstanding = %g after reclaim, want exactly 0", o)
	}
	if _, w1, _ := svc.Mass(tk.ID); math.Abs(w1-w0) > 1e-12 {
		t.Fatalf("held weight %g -> %g: refused shares did not return their mass", w0, w1)
	}
	c.assertGaugesZero(t, "after refused first sends")

	// Now let first sends through with their acks parked, so they stay
	// pending, and refuse every envelope that re-sends one. Such an envelope
	// may also carry a fresh share of the other query: that one is a refused
	// first send like any other.
	type transfer struct {
		task string
		seq  uint64
	}
	sent := map[transfer]bool{}
	var retriesRefused, firstsRefused int64
	c.gate.refuse = func(shares []Share) bool {
		if shares[0].From != svc.Address() {
			return false
		}
		retries := 0
		for _, sh := range shares {
			if sent[transfer{sh.TaskID, sh.Seq}] {
				retries++
			}
			sent[transfer{sh.TaskID, sh.Seq}] = true
		}
		if retries == 0 {
			return false
		}
		retriesRefused += int64(retries)
		firstsRefused += int64(len(shares) - retries)
		return true
	}
	c.gate.hold, c.gate.refused = true, 0
	svc.Tick(ctx) // nothing left to retry: the reclaimed shares are gone, not pending
	if c.gate.refused != 0 || svc.Stats().Retries != after.Retries {
		t.Fatalf("reclaimed shares were retried (%d refused, retries %d -> %d)", c.gate.refused, after.Retries, svc.Stats().Retries)
	}
	pending, _ := svc.Outstanding(tk.ID)
	if pending == 0 {
		t.Fatal("no outstanding mass while acks are withheld")
	}
	before = svc.Stats()
	svc.Tick(ctx) // every envelope holding a retry refused; the others go out
	after = svc.Stats()
	if retriesRefused == 0 || after.Retries-before.Retries != retriesRefused {
		t.Fatalf("refused %d retries but retried %d: the gate did not refuse every retry", retriesRefused, after.Retries-before.Retries)
	}
	if int64(c.gate.refused) != retriesRefused+firstsRefused {
		t.Fatalf("gate refused %d shares, want %d retries + %d first sends", c.gate.refused, retriesRefused, firstsRefused)
	}
	if got := after.Recovered - before.Recovered; got != firstsRefused {
		t.Fatalf("recovered %d shares, want exactly the %d first sends refused beside a retry", got, firstsRefused)
	}
	if got := after.SendErrors - before.SendErrors; got != retriesRefused+firstsRefused {
		t.Fatalf("send errors moved by %d, want %d (one per refused share)", got, retriesRefused+firstsRefused)
	}
	if o, _ := svc.Outstanding(tk.ID); o < pending {
		t.Fatalf("outstanding fell %g -> %g: a refused retry released its share", pending, o)
	}
	c.assertGaugesZero(t, "after refused retries")

	// The parked acks of the first copies settle the very shares whose
	// retries were refused.
	c.gate.refuse, c.gate.hold = nil, false
	c.gate.release()
	if got := svc.Stats().Commits - after.Commits; got < retriesRefused {
		t.Fatalf("commits moved by %d, want at least the %d shares whose retry was refused", got, retriesRefused)
	}
	c.assertGaugesZero(t, "after ack release")

	t.Run("mixed envelope", func(t *testing.T) { checkMixedRefusal(t) })
}

// checkMixedRefusal: a retry of task A and a first send of task B to the
// same peer travel in one envelope, and its refusal gives exactly one of
// each outcome — the retry one send error and nothing more, the first send
// one reclaim (which counts its own failed send too).
func checkMixedRefusal(t *testing.T) {
	bus := soap.NewMemBus()
	gate := &ackGate{inner: bus}
	clk := clock.NewVirtual()
	clk.Advance(2 * time.Second)
	reg := metrics.NewRegistry()
	mk := func(addr string, reg *metrics.Registry) *Service {
		svc, err := NewService(ServiceConfig{
			Address: addr, Caller: gate, Clock: clk, Metrics: reg,
			Value: func() float64 { return 1 },
			RNG:   rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, svc.Handler())
		return svc
	}
	a, _ := mk("mem://a", reg), mk("mem://b", nil)
	start := func(id string) {
		a.install(id, FuncAvg, time.Second, a.Address(), "", core.AggregateParameters{Fanout: 1, Targets: []string{"mem://b"}}, wscoord.CoordinationContext{
			Identifier:          id,
			CoordinationType:    core.CoordinationTypeGossip,
			RegistrationService: wscoord.ServiceRef{Address: "mem://no-coordinator"},
		})
	}
	ctx := context.Background()
	start("urn:uuid:a")
	gate.hold = true
	a.Tick(ctx) // A's first share goes out; its ack is parked
	// A draws no more targets, so its next round is its retry alone.
	a.mu.Lock()
	a.m.tasks["urn:uuid:a"].params = core.AggregateParameters{}
	a.mu.Unlock()
	start("urn:uuid:b")
	var offered []Share
	gate.refuse = func(shares []Share) bool {
		offered = shares
		return true
	}
	outA, _ := a.Outstanding("urn:uuid:a")
	before := a.Stats()
	a.Tick(ctx)
	after := a.Stats()
	if len(offered) != 2 || offered[0].TaskID != "urn:uuid:a" || offered[1].TaskID != "urn:uuid:b" {
		t.Fatalf("refused envelope carried %+v, want A's retry then B's first share", offered)
	}
	if got := after.Retries - before.Retries; got != 1 {
		t.Fatalf("retries moved by %d, want 1", got)
	}
	if got := after.Recovered - before.Recovered; got != 1 {
		t.Fatalf("recovered %d shares, want exactly B's first send", got)
	}
	if got := (after.SendErrors - before.SendErrors) - (after.Recovered - before.Recovered); got != 1 {
		t.Fatalf("send errors beside the reclaim moved by %d, want exactly A's refused retry", got)
	}
	if o, _ := a.Outstanding("urn:uuid:a"); o != outA || o == 0 {
		t.Fatalf("A's outstanding %g -> %g: a refused retry must stay pending", outA, o)
	}
	if o, _ := a.Outstanding("urn:uuid:b"); o != 0 {
		t.Fatalf("B's outstanding = %g after its refused first send, want 0", o)
	}
	if e := reg.FloatGauge("aggregate_mass_error").Value(); e != 0 {
		t.Fatalf("aggregate_mass_error = %g, want exactly 0", e)
	}
}

// TestContinuousPassiveJoinContributesNextEpoch pins the churn-absorption
// rule: a node first reached by a stray share relays passively for the rest
// of the window and injects its value only at the next boundary.
func TestContinuousPassiveJoinContributesNextEpoch(t *testing.T) {
	const n = 3
	window := time.Second
	c := newContCluster(t, n, 41, window)
	ctx := context.Background()
	c.step(ctx, 50*time.Millisecond)
	tk, ok := c.window.Task("load")
	if !ok {
		t.Fatal("load query not started")
	}

	// A fresh node that never saw the start flood.
	reg := metrics.NewRegistry()
	late, err := NewService(ServiceConfig{
		Address: "mem://late",
		Caller:  c.gate,
		Clock:   c.clk,
		Values: map[string]func() float64{
			"load": func() float64 { return 42 },
		},
		RNG:     rand.New(rand.NewSource(99)),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.bus.Register("mem://late", late.Handler())

	epoch := c.services[0].EpochOf(tk.ID)
	share := Share{
		TaskID:       tk.ID,
		Function:     string(FuncAvg),
		From:         addrOf(0),
		Sum:          0.25,
		Weight:       0.25,
		WindowMillis: window.Milliseconds(),
		Epoch:        epoch,
		Seq:          7001,
		Root:         "mem://querier",
		Metric:       "load",
	}
	env, err := handMarshalled(ActionExchange, tk.Context, share)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.bus.Send(ctx, "mem://late", env); err != nil {
		t.Fatalf("deliver share to joiner: %v", err)
	}
	if got := late.EpochOf(tk.ID); got != epoch {
		t.Fatalf("joiner epoch = %d, want %d", got, epoch)
	}
	if _, contributed := late.Outstanding(tk.ID); contributed != 0 {
		t.Fatalf("joiner contributed %g mid-window, want 0 until the boundary", contributed)
	}
	_, w, _ := late.Mass(tk.ID)
	if math.Abs(w-share.Weight) > 1e-12 {
		t.Fatalf("joiner holds weight %g, want the absorbed share %g", w, share.Weight)
	}

	// Cross the boundary: the joiner's first roll into the new epoch
	// injects its value (weight 1 for avg).
	c.clk.Advance(window)
	late.Tick(ctx)
	if _, contributed := late.Outstanding(tk.ID); contributed != 1 {
		t.Fatalf("joiner contributed %g after the boundary, want 1", contributed)
	}
	if e := reg.FloatGauge("aggregate_mass_error").Value(); e != 0 {
		t.Fatalf("joiner aggregate_mass_error = %g, want exactly 0", e)
	}
}

// Regression: the nil-Clock fallback was once a zero-value clock.Real whose
// year-1 epoch saturates Now at the time.Duration maximum — every continuous
// task then ran in epoch ~9.2e9 and froze garbage at first roll. The
// fallback must be the Unix-epoch wall clock, and two services constructed
// at different moments must agree on the open epoch index, or the node with
// the larger offset perpetually drags its peers' epochs forward.
func TestNilClockFallbackSharedEpoch(t *testing.T) {
	bus := soap.NewMemBus()
	a, err := NewService(ServiceConfig{Address: "mem://wall-a", Caller: bus})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewService(ServiceConfig{Address: "mem://wall-b", Caller: bus})
	if err != nil {
		t.Fatal(err)
	}
	const window = time.Hour
	ka, kb := EpochAt(a.clk.Now(), window), EpochAt(b.clk.Now(), window)
	if ka != kb {
		t.Fatalf("services disagree on the open epoch: %d vs %d", ka, kb)
	}
	// ~56 years of hours since the Unix epoch, nowhere near saturation.
	if ka == 0 || ka > 10_000_000 {
		t.Fatalf("implausible epoch index %d for a %v window (saturated clock?)", ka, window)
	}
}

// TestStartContinuousFailureLeavesNoTask: a start that reaches none of its
// targets leaves no task at the querier. The Window retries the query on
// each later tick, and every failed attempt used to keep its task, which
// rolled epochs and exchanged its anchor mass for ever.
func TestStartContinuousFailureLeavesNoTask(t *testing.T) {
	const n = 3
	c := newContCluster(t, n, 61, time.Second)
	ctx := context.Background()
	w, err := NewWindow(WindowConfig{
		Querier: c.querier,
		Window:  time.Second,
		Queries: []ContinuousQuery{{Name: "ones", Func: FuncCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.bus.Unregister(addrOf(i))
	}
	for tick := 0; tick < 3; tick++ {
		c.clk.Advance(50 * time.Millisecond)
		w.Tick(ctx)
	}
	if _, ok := w.Task("ones"); ok {
		t.Fatal("the query started with every participant unreachable")
	}
	for i, svc := range c.services {
		c.bus.Register(addrOf(i), svc.Handler())
	}
	c.clk.Advance(50 * time.Millisecond)
	w.Tick(ctx)
	if _, ok := w.Task("ones"); !ok {
		t.Fatal("the query did not start once its participants were reachable")
	}
	if got := len(heldTasks(c.querier.Service)); got != 1 {
		t.Fatalf("querier holds %d tasks, want exactly the one started query", got)
	}
}
