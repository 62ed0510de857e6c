// Resilience: the paper's fault-tolerance claim demonstrated at scale on
// the deterministic simulator. 400 gossiping services disseminate an event
// while 30% of them crash mid-dissemination; delivery among survivors stays
// near-complete, and a push-pull repair phase closes the rest. The same
// event through a centralized notifier is shown losing exactly its link
// loss rate.
//
//	go run ./examples/resilience
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
	"wsgossip/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "resilience:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		n        = 400
		crashPct = 30
		loss     = 0.15
		seed     = 21
	)
	ctx := context.Background()
	net := simnet.New(simnet.DefaultConfig(seed))
	net.Faults().SetLoss(loss)

	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("svc%03d", i)
	}
	peers := gossip.NewStaticPeers(addrs)
	delivered := make([]map[string]bool, n)
	engines := make([]*gossip.Engine, n)
	for i := range addrs {
		i := i
		delivered[i] = make(map[string]bool)
		eng, err := gossip.New(gossip.Config{
			Style:    gossip.StylePushPull,
			Fanout:   4,
			Hops:     12,
			Endpoint: net.Node(addrs[i]),
			Peers:    peers,
			RNG:      rand.New(rand.NewSource(seed + int64(i))),
			Deliver:  func(r gossip.Rumor) { delivered[i][r.ID] = true },
		})
		if err != nil {
			return err
		}
		mux := transport.NewMux()
		eng.Register(mux)
		mux.Bind(net.Node(addrs[i]))
		engines[i] = eng
	}

	// Crash 30% of the nodes 5 virtual ms after the publish (mid-epidemic).
	rng := rand.New(rand.NewSource(seed))
	crashed := gossip.SamplePeers(rng, addrs, n*crashPct/100, addrs[0])
	net.AfterFunc(5*time.Millisecond, func() {
		for _, a := range crashed {
			net.Crash(a)
		}
	})

	r, err := engines[0].Publish(ctx, []byte("market-halt"))
	if err != nil {
		return err
	}
	net.Run()
	log.Printf("published one event; %d/%d nodes crashed 5ms in", len(crashed), n)
	log.Printf("coverage among survivors after push phase: %.1f%%", 100*coverage(net, addrs, delivered, r.ID))

	// Push-pull anti-entropy closes the gap. Each survivor owns its repair
	// schedule: a self-clocking Runner on the network's virtual clock fires
	// the rounds — the harness only advances time.
	var runners []*core.Runner
	for i := range addrs {
		if net.Crashed(addrs[i]) {
			continue
		}
		runner, err := core.NewRunner(core.RunnerConfig{
			Clock: net.Clock(),
			RNG:   rand.New(rand.NewSource(seed*977 + int64(i))),
			Loops: []core.Loop{{
				Name:   "repair",
				Period: 20 * time.Millisecond,
				Jitter: 2 * time.Millisecond,
				Tick:   engines[i].Tick,
			}},
		})
		if err != nil {
			return err
		}
		if err := runner.Start(ctx); err != nil {
			return err
		}
		runners = append(runners, runner)
	}
	net.RunFor(10 * 20 * time.Millisecond)
	for _, runner := range runners {
		runner.Stop()
	}
	net.Run() // drain deliveries in flight from the final rounds
	log.Printf("coverage among survivors after 10 repair rounds: %.1f%%", 100*coverage(net, addrs, delivered, r.ID))

	// The centralized baseline under the same loss (broker survives).
	bNet := simnet.New(simnet.DefaultConfig(seed + 1))
	bNet.Faults().SetLoss(loss)
	broker := wsn.NewBroker(bNet.Node("broker"))
	bmux := transport.NewMux()
	broker.Register(bmux)
	bmux.Bind(bNet.Node("broker"))
	consumers := make([]*wsn.Consumer, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("c%03d", i)
		consumers[i] = wsn.NewConsumer(bNet.Node(addr))
		mux := transport.NewMux()
		consumers[i].Register(mux)
		mux.Bind(bNet.Node(addr))
		broker.SubscribeLocal(addr)
	}
	if err := broker.Publish(ctx, wsn.Notification{ID: "market-halt"}); err != nil {
		return err
	}
	bNet.Run()
	got := 0
	for _, c := range consumers {
		if c.Has("market-halt") {
			got++
		}
	}
	log.Printf("centralized broker under the same %.0f%% loss: %.1f%% delivered (no redundancy, no repair)",
		loss*100, 100*float64(got)/float64(n))
	return nil
}

func coverage(net *simnet.Network, addrs []string, delivered []map[string]bool, id string) float64 {
	alive, reached := 0, 0
	for i, a := range addrs {
		if net.Crashed(a) {
			continue
		}
		alive++
		if delivered[i][id] {
			reached++
		}
	}
	return float64(reached) / float64(alive)
}
