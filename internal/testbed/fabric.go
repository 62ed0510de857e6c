package testbed

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wsgossip"
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
)

// Fabric is a population of wsgossip.Nodes, each built through NewNode on
// one Bus and one virtual clock, every node index-aligned across the
// slices.
type Fabric struct {
	Clock *clock.Virtual
	Bus   *Bus
	// Coord is the Spec.Coordinator's coordinator, if there is one.
	Coord *core.Coordinator
	Addrs []string
	Nodes []*wsgossip.Node
	// Apps holds what each node's application received.
	Apps []*core.CollectingApp

	spec    Spec[wsgossip.NodeConfig]
	runners []*core.Runner
}

// Nodes builds spec.N nodes from spec.Config on a new bus seeded
// spec.Seed, behind the coordinator spec.Coordinator if set.
func Nodes(spec Spec[wsgossip.NodeConfig]) (*Fabric, error) {
	clk := clock.NewVirtual()
	maxDelay := spec.MaxDelay
	if maxDelay == 0 {
		maxDelay = 5 * time.Millisecond
	}
	f := &Fabric{Clock: clk, Bus: NewBus(clk, spec.Seed, time.Millisecond, maxDelay), spec: spec}
	if spec.Coordinator != nil {
		cfg := *spec.Coordinator
		cfg.RNG = rand.New(rand.NewSource(spec.Seed))
		f.Coord = core.NewCoordinator(cfg)
		f.Bus.Register(cfg.Address, f.Coord.Handler())
	}
	for len(f.Nodes) < spec.N {
		if _, err := f.Add(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// Add builds the next node, serves it on the bus and starts it, firing
// Start's zero-delay timers (a subscription, a membership join through
// node 0) before it returns, so nodes join in index order.
func (f *Fabric) Add() (*wsgossip.Node, error) {
	i := len(f.Nodes)
	addr := fmt.Sprintf(f.spec.Addr, i)
	app := core.NewCollectingApp()
	cfg := f.spec.Config
	cfg.Address, cfg.Caller, cfg.App, cfg.Clock = addr, f.Bus.Caller(addr), app, f.Clock
	cfg.Seed = f.spec.Stream.Of(f.spec.Seed, i)
	if m := cfg.Membership; m != nil && i > 0 {
		joining := *m
		joining.Seeds = []string{f.Addrs[0]}
		cfg.Membership = &joining
	}
	if f.spec.Shape != nil {
		f.spec.Shape(i, &cfg)
	}
	node, err := wsgossip.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	f.Bus.Register(addr, node.Handler())
	f.Addrs, f.Nodes, f.Apps = append(f.Addrs, addr), append(f.Nodes, node), append(f.Apps, app)
	if err := node.Start(context.Background()); err != nil {
		return nil, err
	}
	f.Clock.Advance(0)
	return node, nil
}

// Run starts a runner of loops on the fabric's clock, its phases and jitter
// drawn from the stream seeded seed, for a participant built by hand on the
// bus; Close stops it.
func (f *Fabric) Run(seed int64, loops ...core.Loop) (*core.Runner, error) {
	r, err := core.NewRunner(core.RunnerConfig{Clock: f.Clock, RNG: rand.New(rand.NewSource(seed)), Loops: loops})
	if err != nil {
		return nil, err
	}
	f.runners = append(f.runners, r)
	return r, r.Start(context.Background())
}

// FireCount totals how often the runners Run started fired loop.
func (f *Fabric) FireCount(loop string) int64 {
	var sum int64
	for _, r := range f.runners {
		sum += r.FireCount(loop)
	}
	return sum
}

// Close stops every node and every runner Run started.
func (f *Fabric) Close() {
	for _, n := range f.Nodes {
		n.Stop()
	}
	for _, r := range f.runners {
		r.Stop()
	}
}

// Coverage counts the nodes i for which in(i) holds (every node if in is
// nil), and those of them whose application received at least want
// notifications.
func (f *Fabric) Coverage(want int, in func(i int) bool) (covered, total int) {
	for i, app := range f.Apps {
		if in != nil && !in(i) {
			continue
		}
		total++
		if app.Count() >= want {
			covered++
		}
	}
	return covered, total
}

// SumCounter totals one plain counter over every node's registry.
func (f *Fabric) SumCounter(name string) int64 {
	var sum int64
	for _, n := range f.Nodes {
		sum += n.Registry().Counter(name).Value()
	}
	return sum
}

// SumLabeled totals one labeled counter's value over every node's registry.
func (f *Fabric) SumLabeled(family, label, value string) int64 {
	var sum int64
	for _, n := range f.Nodes {
		sum += n.Registry().CounterVec(family, label).With(value).Value()
	}
	return sum
}

// SumGauge totals one gauge over every node's registry.
func (f *Fabric) SumGauge(name string) int64 {
	var sum int64
	for _, n := range f.Nodes {
		sum += n.Registry().Gauge(name).Value()
	}
	return sum
}
