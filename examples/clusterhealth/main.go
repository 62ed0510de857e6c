// Cluster health demo: push-sum aggregation as continuous queries.
//
// A querier node keeps three cluster quantities fresh — node count, average
// load, and peak load — with nothing but gossip exchanges of (sum, weight)
// shares: every node restarts push-sum at each 500ms window boundary on the
// shared clock, so the frozen estimate of the last closed epoch is never more
// than one window stale and churn is absorbed at the next boundary. Each
// service is a wsgossip.Node with a local value; a live membership view is
// what every exchange samples, so services that join later are reached too.
// Eight services join mid-window and the demo shows exactly when the count
// re-tracks: the epoch they joined still freezes the old population (joiners
// relay passively), the one after counts them. The closing act prints the
// "cluster" section of the /healthz document every wsgossip-node serves when
// run with -cluster-queries.
//
//	go run ./examples/clusterhealth
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"wsgossip"
	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
)

const (
	window        = 500 * time.Millisecond // epoch length
	exchangeEvery = 25 * time.Millisecond  // each node's push-sum round period
	viewEvery     = 50 * time.Millisecond  // each node's membership exchange period
	initial       = 24                     // services at activation
	joiners       = 8                      // services joining mid-window
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clusterhealth:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	bus := soap.NewMemBus()
	vc := clock.NewVirtual()

	coordinator := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(1)),
	})
	bus.Register("mem://coordinator", coordinator.Handler())

	// Every node subscribes at the coordinator, joins the membership view
	// through the querier and runs its own push-sum rounds, all on vc.
	var nodes []*wsgossip.Node
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
	}()
	startNode := func(cfg wsgossip.NodeConfig) (*wsgossip.Node, error) {
		cfg.Caller, cfg.Clock, cfg.Coordinator = bus, vc, "mem://coordinator"
		cfg.JitterFrac, cfg.AggregateEvery = 0.2, exchangeEvery
		cfg.Membership = &wsgossip.NodeMembership{
			Seeds: []string{"mem://querier"}, Every: viewEvery,
			SuspectAfter: 8 * viewEvery, RemoveAfter: 16 * viewEvery,
		}
		node, err := wsgossip.NewNode(cfg)
		if err != nil {
			return nil, err
		}
		bus.Register(cfg.Address, node.Handler())
		if err := node.Start(ctx); err != nil {
			return nil, err
		}
		vc.Advance(0) // Start's subscription and join are zero-delay timers
		nodes = append(nodes, node)
		return node, nil
	}

	// The querier is the root: it activates each query once and re-seeds the
	// anchor weight every epoch. It holds no load of its own, so the count
	// query counts exactly the contributing services, and every query of a
	// service falls back to its one Value.
	querier, err := startNode(wsgossip.NodeConfig{
		Address: "mem://querier",
		Seed:    8,
		Queries: []wsgossip.ContinuousQuery{
			{Name: "nodes", Func: wsgossip.FuncCount},
			{Name: "load", Func: wsgossip.FuncAvg},
			{Name: "load-peak", Func: wsgossip.FuncMax},
		},
		QueryWindow: window,
	})
	if err != nil {
		return err
	}

	// Loads are 20..20+n, so the ground truth of n services is obvious.
	services := 0
	addServices := func(k int) error {
		for ; k > 0; k-- {
			load := 20 + float64(services)
			if _, err := startNode(wsgossip.NodeConfig{
				Address: fmt.Sprintf("mem://service%02d", services),
				Seed:    int64(services+2) * 8,
				Value:   func() float64 { return load },
			}); err != nil {
				return err
			}
			services++
		}
		return nil
	}
	if err := addServices(initial); err != nil {
		return err
	}

	advance := func(d time.Duration) {
		for t := time.Duration(0); t < d; t += exchangeEvery {
			vc.Advance(exchangeEvery)
		}
	}
	// show prints each frozen estimate beside the ground truth of the
	// population that epoch started with.
	show := func(when string, population int) {
		n := float64(population)
		truth := map[string]float64{"nodes": n, "load": 20 + (n-1)/2, "load-peak": 20 + n - 1}
		log.Printf("%s:", when)
		for _, est := range querier.Health().Cluster.Queries {
			log.Printf("  %-5s(%-9s) epoch %d frozen: %8.3f (truth %6.2f, defined=%v)  live: %8.3f",
				est.Function, est.Query, est.FrozenEpoch, est.Estimate, truth[est.Query], est.Defined, est.Live)
		}
	}

	// Two full windows: epoch 2 is closed, every query has a stable frozen
	// estimate of the 24-service population.
	advance(2*window + exchangeEvery)
	show(fmt.Sprintf("t=%v, %d services", vc.Now(), initial), initial)

	// Eight services join mid-window. They absorb and relay shares
	// immediately but contribute only from the next epoch boundary on, so
	// the epoch in progress still freezes the population it started with.
	if err := addServices(joiners); err != nil {
		return err
	}
	log.Printf("t=%v: %d services joined mid-window", vc.Now(), joiners)
	advance(window)
	show(fmt.Sprintf("t=%v, epoch the join landed in (joiners still passive)", vc.Now()), initial)
	advance(window)
	show(fmt.Sprintf("t=%v, one boundary later (joiners counted)", vc.Now()), initial+joiners)

	// This is exactly the "cluster" section of the querier's GET /healthz.
	body, err := json.MarshalIndent(querier.Health().Cluster, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("\nGET /healthz → \"cluster\":\n%s\n", body)
	return nil
}
