package aggregate

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// TestAggregateMetricsViews runs an avg aggregation over a small cluster
// with a per-node registry and checks Stats() is a view over the scraped
// series, rounds are counted, and the mass-conservation gauge reads exactly
// zero.
func TestAggregateMetricsViews(t *testing.T) {
	ctx := context.Background()
	bus := soap.NewMemBus()
	clk := clock.NewVirtual()
	coord := core.NewCoordinator(core.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(9)),
	})
	bus.Register("mem://coordinator", coord.Handler())

	const n = 4
	regs := make([]*metrics.Registry, n)
	svcs := make([]*Service, n)
	for i := 0; i < n; i++ {
		addr := addrOf(i)
		v := float64(i + 1)
		regs[i] = metrics.NewRegistry()
		svc, err := NewService(ServiceConfig{
			Address: addr,
			Caller:  bus,
			Value:   func() float64 { return v },
			RNG:     rand.New(rand.NewSource(int64(i) + 100)),
			Metrics: regs[i],
			Clock:   clk,
		})
		if err != nil {
			t.Fatalf("NewService: %v", err)
		}
		bus.Register(addr, svc.Handler())
		svcs[i] = svc
		if err := core.SubscribeClient(ctx, bus, "mem://coordinator", addr,
			core.RoleDisseminator, core.ProtocolAggregate); err != nil {
			t.Fatalf("subscribe %s: %v", addr, err)
		}
	}
	qreg := metrics.NewRegistry()
	q, err := NewQuerier(QuerierConfig{
		Address:    "mem://querier",
		Caller:     bus,
		Activation: "mem://coordinator",
		RNG:        rand.New(rand.NewSource(7)),
		Metrics:    qreg,
		Clock:      clk,
	})
	if err != nil {
		t.Fatalf("NewQuerier: %v", err)
	}
	bus.Register("mem://querier", q.Handler())
	if err := core.SubscribeClient(ctx, bus, "mem://coordinator", "mem://querier",
		core.RoleDisseminator, core.ProtocolAggregate); err != nil {
		t.Fatalf("subscribe querier: %v", err)
	}

	tk, err := q.StartContinuous(ctx, "value", FuncAvg, clusterWindow)
	if err != nil {
		t.Fatalf("StartContinuous: %v", err)
	}
	for r := 0; r < 10; r++ {
		for _, svc := range svcs {
			svc.Tick(ctx)
		}
		q.Tick(ctx)
	}
	// One extra round boundary so every node re-evaluates its ledger after
	// the final exchanges settled.
	for _, svc := range svcs {
		svc.Tick(ctx)
	}

	for i, svc := range svcs {
		stats := svc.Stats()
		if stats.Started != 1 {
			t.Fatalf("node %d started = %d, want 1", i, stats.Started)
		}
		if got := regs[i].Counter("aggregate_tasks_started_total").Value(); got != stats.Started {
			t.Fatalf("node %d registry started = %d, stats = %d", i, got, stats.Started)
		}
		if got := regs[i].Counter("aggregate_shares_sent_total").Value(); got != stats.SharesSent {
			t.Fatalf("node %d registry sent = %d, stats = %d", i, got, stats.SharesSent)
		}
		if got := regs[i].Counter("aggregate_shares_absorbed_total").Value(); got != stats.SharesAbsorbed {
			t.Fatalf("node %d registry absorbed = %d, stats = %d", i, got, stats.SharesAbsorbed)
		}
		svc.mu.Lock()
		want := int64(svc.m.tasks[tk.ID].x.state.Rounds())
		svc.mu.Unlock()
		if got := regs[i].Counter("aggregate_rounds_total").Value(); got != want || want == 0 {
			t.Fatalf("node %d rounds counter = %d, state rounds = %d", i, got, want)
		}
		if e := regs[i].FloatGauge("aggregate_mass_error").Value(); e != 0 {
			t.Fatalf("node %d mass-conservation error = %g, want exactly 0", i, e)
		}
	}

	var sb strings.Builder
	if err := regs[0].WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"aggregate_tasks_started_total", "aggregate_rounds_total", "aggregate_mass_error"} {
		if !strings.Contains(sb.String(), family) {
			t.Fatalf("exposition missing %s:\n%s", family, sb.String())
		}
	}
}
