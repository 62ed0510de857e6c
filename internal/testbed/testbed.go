// Package testbed builds the populations the paper's claims are reproduced
// on: gossip engines or push-sum SimNodes on one simnet (Engines, SimNodes),
// and full wsgossip.Nodes on one virtual SOAP bus (Nodes). One Spec
// describes a population; the builder owns its addresses, streams, wiring,
// start, stop, coverage and counter sums, so an experiment, a scenario or a
// simulator mode states only what differs.
//
// A Spec carries each caller's own address format and seed-to-stream rule
// as data (Stream), so a population built here draws exactly what its
// hand-wired predecessor drew and every seeded result stays byte-identical.
package testbed

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/core"
	"wsgossip/internal/faults"
	"wsgossip/internal/gossip"
	"wsgossip/internal/membership"
	"wsgossip/internal/metrics"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// Stream is a seed-to-stream rule: node i of a population seeded s draws
// from the source seeded s*Mul + Add + i*Step, a zero Step counting as 1.
type Stream struct{ Mul, Add, Step int64 }

// Of returns node i's seed under r in a population seeded seed.
func (r Stream) Of(seed int64, i int) int64 {
	step := r.Step
	if step == 0 {
		step = 1
	}
	return seed*r.Mul + r.Add + int64(i)*step
}

// Spec describes one population of nodes configured by a C. Engines and
// SimNodes read Peers through Plan; Nodes reads Coordinator and MaxDelay.
type Spec[C any] struct {
	N    int   // nodes added up front; Add adds more
	Seed int64 // seeds the network's own draws and every Stream
	// Addr is the fmt format of node i's address, such as "n%05d".
	Addr string
	// Stream is node i's protocol stream: an engine's or a SimNode's RNG,
	// or a Node's NodeConfig.Seed.
	Stream Stream
	// Config is every node's configuration before the builder fills in its
	// endpoint or caller, peers, stream and clock.
	Config C
	// Shape, if set, edits node i's configuration last, before it is built.
	Shape func(i int, cfg *C)

	// Peers supplies engines' and SimNodes' targets; nil means static peers
	// over the first N addresses. Members replaces it.
	Peers gossip.PeerProvider
	// Members, if set, gives every engine a membership.Service built from
	// it as its peers (Endpoint, Clock and RNG filled in per node), and
	// every node after the first joins through node 0 as it is added.
	Members *membership.Config
	// MemberStream is the rule for node i's membership stream.
	MemberStream Stream
	// Loops returns node i's Runner loops, which Start starts, drawing
	// phases and jitter from the stream seeded Seed*2693+i.
	Loops func(i int) []core.Loop
	// Metrics is the registry the runners count into.
	Metrics *metrics.Registry
	// Plan, if set, is scheduled on the network's clock before any node is
	// added: link ops on its fault table, crash and recover ops on its nodes.
	Plan *faults.Plan

	// Coordinator, if set, is served on the bus at its Address, its RNG
	// seeded with Seed.
	Coordinator *core.CoordinatorConfig
	// MaxDelay bounds the bus's one-way link delay, drawn from 1ms up; 0
	// means 5ms.
	MaxDelay time.Duration
}

// Delivery is one node's first delivery of a rumor: the virtual instant,
// and the hop budget the rumor arrived with.
type Delivery struct {
	At   time.Duration
	Hops int
}

// protocol is what a Sim node runs: a gossip.Engine or an aggregate.SimNode.
type protocol interface {
	Register(*transport.Mux)
	Tick(context.Context)
}

// Sim is a population on one simnet.Network built from a Spec[C], every
// node index-aligned across the slices.
type Sim[C any] struct {
	Net   *simnet.Network
	Addrs []string
	// Engines holds an Engines population's nodes, Aggs a SimNodes one's.
	Engines []*gossip.Engine
	Aggs    []*aggregate.SimNode
	// Members holds each node's membership service (Spec.Members).
	Members []*membership.Service
	// Runners holds each node's runner once Start started it.
	Runners []*core.Runner
	// Redeliveries counts engines' Deliver callbacks past the first per
	// node and rumor (a seen cache too small to remember the first).
	Redeliveries int

	spec      Spec[C]
	protocols []protocol
	got       []map[string]Delivery
	started   bool
	build     func(i int, ep transport.Endpoint, peers gossip.PeerProvider, rng *rand.Rand) (protocol, error)
}

// Engines builds spec.N gossip engines from spec.Config, each recording its
// deliveries (Delivered, Coverage).
func Engines(spec Spec[gossip.Config]) (*Sim[gossip.Config], error) {
	s, err := newSim(spec)
	if err != nil {
		return nil, err
	}
	s.build = func(i int, ep transport.Endpoint, peers gossip.PeerProvider, rng *rand.Rand) (protocol, error) {
		cfg := spec.Config
		cfg.Endpoint, cfg.Peers, cfg.RNG = ep, peers, rng
		got := make(map[string]Delivery)
		cfg.Deliver = func(r gossip.Rumor) {
			if _, ok := got[r.ID]; ok {
				s.Redeliveries++
				return
			}
			got[r.ID] = Delivery{At: s.Net.Now(), Hops: r.Hops}
		}
		s.shape(i, &cfg)
		e, err := gossip.New(cfg)
		s.got, s.Engines = append(s.got, got), append(s.Engines, e)
		return e, err
	}
	return s, s.grow()
}

// SimNodes builds spec.N push-sum nodes from spec.Config, node 0 the root.
func SimNodes(spec Spec[aggregate.SimNodeConfig]) (*Sim[aggregate.SimNodeConfig], error) {
	s, err := newSim(spec)
	if err != nil {
		return nil, err
	}
	s.build = func(i int, ep transport.Endpoint, peers gossip.PeerProvider, rng *rand.Rand) (protocol, error) {
		cfg := spec.Config
		cfg.Endpoint, cfg.Peers, cfg.RNG, cfg.Root, cfg.Clock = ep, peers, rng, i == 0, s.Net
		s.shape(i, &cfg)
		n, err := aggregate.NewSimNode(cfg)
		s.Aggs = append(s.Aggs, n)
		return n, err
	}
	return s, s.grow()
}

// newSim makes the network, schedules the plan and names the first N
// addresses.
func newSim[C any](spec Spec[C]) (*Sim[C], error) {
	s := &Sim[C]{Net: simnet.New(simnet.DefaultConfig(spec.Seed)), spec: spec}
	if spec.Plan != nil {
		err := spec.Plan.Schedule(s.Net.Clock(), faults.Applier{Table: s.Net.Faults(), Crash: s.Net.Crash, Recover: s.Net.Recover})
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.N; i++ {
		s.Addrs = append(s.Addrs, fmt.Sprintf(spec.Addr, i))
	}
	if s.spec.Peers == nil {
		s.spec.Peers = gossip.NewStaticPeers(s.Addrs)
	}
	return s, nil
}

// grow adds the first N nodes.
func (s *Sim[C]) grow() error {
	for len(s.protocols) < s.spec.N {
		if err := s.Add(); err != nil {
			return err
		}
	}
	return nil
}

// Add builds the next node from the Spec and binds it to its endpoint.
// With Spec.Members the node's membership service joins through node 0, and
// once Start has run the node's runner starts too.
func (s *Sim[C]) Add() error {
	i := len(s.protocols)
	if i == len(s.Addrs) {
		s.Addrs = append(s.Addrs, fmt.Sprintf(s.spec.Addr, i))
	}
	ep := s.Net.Node(s.Addrs[i])
	peers := s.spec.Peers
	var member *membership.Service
	if s.spec.Members != nil {
		mcfg := *s.spec.Members
		mcfg.Endpoint, mcfg.Clock = ep, s.Net
		mcfg.RNG = rand.New(rand.NewSource(s.spec.MemberStream.Of(s.spec.Seed, i)))
		var err error
		if member, err = membership.New(mcfg); err != nil {
			return err
		}
		s.Members = append(s.Members, member)
		peers = member
	}
	p, err := s.build(i, ep, peers, rand.New(rand.NewSource(s.spec.Stream.Of(s.spec.Seed, i))))
	if err != nil {
		return err
	}
	s.protocols = append(s.protocols, p)
	if member != nil {
		Bind(ep, member, p)
		if i > 0 {
			member.Join(context.Background(), []string{s.Addrs[0]})
		}
	} else {
		Bind(ep, p)
	}
	s.Runners = append(s.Runners, nil)
	if s.started {
		return s.run(i)
	}
	return nil
}

// shape applies the Spec's shape hook, if any, to node i's configuration.
func (s *Sim[C]) shape(i int, cfg *C) {
	if s.spec.Shape != nil {
		s.spec.Shape(i, cfg)
	}
}

// Bind serves every protocol on ep through one transport.Mux.
func Bind(ep transport.Endpoint, protocols ...interface{ Register(*transport.Mux) }) {
	mux := transport.NewMux()
	for _, p := range protocols {
		p.Register(mux)
	}
	mux.Bind(ep)
}

// Start starts the Spec.Loops runner of every node not crashed, and of
// every node added from now on.
func (s *Sim[C]) Start() error {
	s.started = true
	for i, addr := range s.Addrs[:len(s.protocols)] {
		if !s.Net.Crashed(addr) {
			if err := s.run(i); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Sim[C]) run(i int) error {
	r, err := core.NewRunner(core.RunnerConfig{
		Clock:   s.Net.Clock(),
		Metrics: s.spec.Metrics,
		RNG:     rand.New(rand.NewSource(s.spec.Seed*2693 + int64(i))),
		Loops:   s.spec.Loops(i),
	})
	if err != nil {
		return err
	}
	s.Runners[i] = r
	return r.Start(context.Background())
}

// Stop stops every runner.
func (s *Sim[C]) Stop() {
	for _, r := range s.Runners {
		if r != nil {
			r.Stop()
		}
	}
}

// Tick runs one round on every node not crashed, in index order: its
// membership service's, then its protocol's.
func (s *Sim[C]) Tick(ctx context.Context) {
	for i, p := range s.protocols {
		if s.Net.Crashed(s.Addrs[i]) {
			continue
		}
		if s.Members != nil {
			s.Members[i].Tick(ctx)
		}
		p.Tick(ctx)
	}
}

// Delivered returns node i's first delivery of rumor id.
func (s *Sim[C]) Delivered(i int, id string) (Delivery, bool) {
	d, ok := s.got[i][id]
	return d, ok
}

// Coverage is the share of nodes not crashed that delivered rumor id.
func (s *Sim[C]) Coverage(id string) float64 {
	reached, alive := 0, 0
	for i, addr := range s.Addrs[:len(s.got)] {
		if s.Net.Crashed(addr) {
			continue
		}
		alive++
		if _, ok := s.got[i][id]; ok {
			reached++
		}
	}
	if alive == 0 {
		return 0
	}
	return float64(reached) / float64(alive)
}

// GossipStats sums every engine's counters.
func (s *Sim[C]) GossipStats() gossip.Stats {
	return total(s.Engines, (*gossip.Engine).Stats)
}

// AggStats sums every SimNode's counters.
func (s *Sim[C]) AggStats() aggregate.Stats {
	return total(s.Aggs, (*aggregate.SimNode).Stats)
}

// total sums the int64 fields of stats over nodes.
func total[N any, T any](nodes []N, stats func(N) T) T {
	var sum T
	acc := reflect.ValueOf(&sum).Elem()
	for _, n := range nodes {
		v := reflect.ValueOf(stats(n))
		for f := 0; f < v.NumField(); f++ {
			acc.Field(f).SetInt(acc.Field(f).Int() + v.Field(f).Int())
		}
	}
	return sum
}
