package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// TestRunnerMetricsUnifiedWithFireCount proves the satellite contract: the
// runner_fires_total{loop} metric and Runner.FireCount read the same
// counter, so they cannot drift.
func TestRunnerMetricsUnifiedWithFireCount(t *testing.T) {
	v := clock.NewVirtual()
	reg := metrics.NewRegistry()
	r, err := NewRunner(RunnerConfig{
		Clock:   v,
		Metrics: reg,
		Loops: []Loop{{
			Name:   "count",
			Period: 10 * time.Millisecond,
			Tick:   func(context.Context) {},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	v.Advance(100 * time.Millisecond)

	metricFires := reg.CounterVec("runner_fires_total", "loop").With("count").Value()
	if metricFires == 0 {
		t.Fatal("runner_fires_total never advanced")
	}
	if got := r.FireCount("count"); got != metricFires {
		t.Fatalf("FireCount = %d, metric = %d — bookkeeping drifted", got, metricFires)
	}
	// Ticks on a virtual clock are instantaneous; the duration histogram
	// must deterministically hold all-zero observations.
	tick := reg.BucketHistogramVec("runner_tick_seconds", metrics.DefLatencyBuckets, "loop").With("count")
	if tick.Count() != metricFires {
		t.Fatalf("tick histogram count = %d, fires = %d", tick.Count(), metricFires)
	}
	if tick.Sum() != 0 {
		t.Fatalf("virtual-clock tick durations must be 0, sum = %v", tick.Sum())
	}
}

// TestRunnerBackoffIntrospection drives a loop into quiescent backoff and
// reads the state back through LoopStates and the backoff-level gauge.
func TestRunnerBackoffIntrospection(t *testing.T) {
	v := clock.NewVirtual()
	reg := metrics.NewRegistry()
	var activity uint64
	r, err := NewRunner(RunnerConfig{
		Clock:   v,
		Metrics: reg,
		Loops: []Loop{{
			Name:      "adaptive",
			Period:    10 * time.Millisecond,
			MaxPeriod: 160 * time.Millisecond,
			Activity:  func() uint64 { return activity },
			Tick:      func(context.Context) {},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	states := r.LoopStates()
	if len(states) != 1 || states[0].Name != "adaptive" || states[0].BackoffLevel != 0 {
		t.Fatalf("initial state = %+v", states)
	}

	// Quiescence stretches the loop to its cap: 10→20→40→80→160.
	v.Advance(2 * time.Second)
	st := r.LoopStates()[0]
	if st.Current != 160*time.Millisecond {
		t.Fatalf("backed-off current period = %v, want 160ms", st.Current)
	}
	if st.BackoffLevel != 4 {
		t.Fatalf("backoff level = %d, want 4", st.BackoffLevel)
	}
	if g := reg.GaugeVec("runner_backoff_level", "loop").With("adaptive").Value(); g != 4 {
		t.Fatalf("backoff gauge = %d, want 4", g)
	}
	if st.Fires != r.FireCount("adaptive") {
		t.Fatalf("LoopStates fires %d != FireCount %d", st.Fires, r.FireCount("adaptive"))
	}

	// Wake snaps it back and is counted.
	activity++
	r.Wake()
	if got := reg.Counter("runner_wakes_total").Value(); got != 1 {
		t.Fatalf("runner_wakes_total = %d, want 1", got)
	}
	if st := r.LoopStates()[0]; st.BackoffLevel != 0 || st.Current != 10*time.Millisecond {
		t.Fatalf("state after wake = %+v, want base pace", st)
	}
}

// TestDisseminatorStatsAreRegistryViews sends one gossip notification
// through a two-node pair and checks Stats() agrees with the registry
// series, including the per-protocol labels.
func TestDisseminatorStatsAreRegistryViews(t *testing.T) {
	bus := soap.NewMemBus()
	coord := NewCoordinator(CoordinatorConfig{Address: "mem://coord"})
	bus.Register("mem://coord", coord.Handler())

	regA := metrics.NewRegistry()
	a, err := NewDisseminator(DisseminatorConfig{Address: "mem://a", Caller: bus, Metrics: regA})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://a", a.Handler())
	b, err := NewDisseminator(DisseminatorConfig{Address: "mem://b", Caller: bus})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://b", b.Handler())
	for _, n := range []string{"mem://a", "mem://b"} {
		if err := coord.SubscribeLocal(context.Background(), n, RoleDisseminator); err != nil {
			t.Fatal(err)
		}
	}

	init, err := NewInitiator(InitiatorConfig{Address: "mem://init", Caller: bus, Activation: "mem://coord"})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartInteraction(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := init.Notify(context.Background(), inter, struct {
		XMLName struct{} `xml:"urn:test Event"`
		Data    string   `xml:"Data"`
	}{Data: "p"}); err != nil {
		t.Fatal(err)
	}

	stats := a.Stats()
	if stats.Received == 0 || stats.Delivered == 0 {
		t.Fatalf("stats = %+v, want traffic", stats)
	}
	if got := regA.Counter("gossip_received_total").Value(); got != stats.Received {
		t.Fatalf("registry received = %d, stats = %d", got, stats.Received)
	}
	if got := regA.CounterVec("gossip_sends_total", "protocol").With("push").Value(); got != stats.Forwarded {
		t.Fatalf("registry forwarded = %d, stats = %d", got, stats.Forwarded)
	}
	if stats.Forwarded > 0 {
		if n := regA.BucketHistogram("gossip_fanout_seconds", nil).Count(); n == 0 {
			t.Fatal("fan-out latency histogram empty after a forward")
		}
	}
	var sb strings.Builder
	if err := regA.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `gossip_sends_total{protocol="push"}`) {
		t.Fatalf("exposition missing per-protocol send counter:\n%s", sb.String())
	}
}

// TestCoordinatorStatsAreRegistryViews checks the coordinator counters and
// the prune/live-activity series.
func TestCoordinatorStatsAreRegistryViews(t *testing.T) {
	v := clock.NewVirtual()
	base := time.Unix(0, 0)
	reg := metrics.NewRegistry()
	coord := NewCoordinator(CoordinatorConfig{
		Address:     "mem://coord",
		Metrics:     reg,
		Now:         func() time.Time { return base.Add(v.Now()) },
		ActivityTTL: 50 * time.Millisecond,
	})
	if err := coord.SubscribeLocal(context.Background(), "mem://a", RoleDisseminator); err != nil {
		t.Fatal(err)
	}
	coord.CreateActivity()
	stats := coord.Stats()
	if stats.Subscribes != 1 || stats.Activations != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := reg.Counter("coord_subscribes_total").Value(); got != stats.Subscribes {
		t.Fatalf("registry subscribes = %d, stats = %d", got, stats.Subscribes)
	}
	if got := reg.Gauge("coord_live_activities").Value(); got != 1 {
		t.Fatalf("live activities gauge = %d, want 1", got)
	}
	v.Advance(100 * time.Millisecond)
	coord.Tick(context.Background())
	if got := reg.Counter("coord_prunes_total").Value(); got != 1 {
		t.Fatalf("prunes = %d, want 1", got)
	}
	if got := reg.Gauge("coord_live_activities").Value(); got != 0 {
		t.Fatalf("live activities gauge after prune = %d, want 0", got)
	}
}
