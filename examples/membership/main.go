// Membership demo: dissemination with no target list anywhere. The
// Coordinator hands out gossip parameters (fanout, hop budget) but zero
// peers — every node discovers the overlay through gossip-maintained
// membership views, joins knowing only one seed address, and samples its
// live view for every pull round. Nodes then leave and join
// mid-interaction and the epidemic still reaches the final population.
//
// Everything runs on one deterministic virtual clock over the in-memory
// SOAP binding: membership exchanges, pull rounds, and the notifications
// all share a single timeline, so the demo prints the same numbers on
// every run.
//
//	go run ./examples/membership
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"wsgossip"
	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
)

const (
	pullEvery     = 50 * time.Millisecond
	exchangeEvery = 100 * time.Millisecond
)

// countingApp counts delivered notifications.
type countingApp struct{ n atomic.Int64 }

func (a *countingApp) HandleSOAP(context.Context, *soap.Request) (*soap.Envelope, error) {
	a.n.Add(1)
	return nil, nil
}

// node is one membership-driven participant.
type node struct {
	*wsgossip.Node
	addr string
	app  *countingApp
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "membership:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	bus := soap.NewMemBus()
	vc := clock.NewVirtual()

	// The coordinator never learns any subscriber: it can only assign
	// parameters. Dissemination must ride the membership overlay.
	coord := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address: "mem://coordinator",
		Params:  func(int) (fanout, hops int) { return 3, 8 },
	})
	bus.Register("mem://coordinator", coord.Handler())

	nodes := make(map[string]*node)
	boot := func(i int, seeds []string) (*node, error) {
		n := &node{addr: fmt.Sprintf("mem://node%02d", i), app: &countingApp{}}
		var err error
		// One call assembles the stack: the live view on the node's own
		// endpoint, the disseminator sampling it (not a frozen list), and
		// the self-clocked pull and view-exchange rounds.
		n.Node, err = wsgossip.NewNode(wsgossip.NodeConfig{
			Address:    n.addr,
			Caller:     bus,
			App:        n.app,
			Clock:      vc,
			Seed:       int64(i+1) * 8,
			PullEvery:  pullEvery,
			JitterFrac: 0.2,
			Membership: &wsgossip.NodeMembership{
				Seeds:        seeds,
				Every:        exchangeEvery,
				SuspectAfter: 8 * exchangeEvery,
				RemoveAfter:  16 * exchangeEvery,
			},
		})
		if err != nil {
			return nil, err
		}
		bus.Register(n.addr, n.Handler())
		nodes[n.addr] = n
		return n, n.Start(ctx) // launches the rounds; the join through the seeds fires on the clock
	}

	const nStart = 16
	for i := 0; i < nStart; i++ {
		var seeds []string
		if i > 0 {
			seeds = []string{"mem://node00"}
		}
		if _, err := boot(i, seeds); err != nil {
			return err
		}
	}
	vc.Advance(time.Second) // views self-assemble from one seed address
	meanView := func() float64 {
		sum := 0
		for _, n := range nodes {
			sum += n.Membership().Size()
		}
		return float64(sum) / float64(len(nodes))
	}
	log.Printf("%d nodes bootstrapped from one seed; mean view size %.1f", nStart, meanView())

	// A pull interaction: the initiator (node 0) seeds from its own view.
	n0 := nodes["mem://node00"]
	init, err := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
		Address:    n0.addr,
		Caller:     bus,
		Activation: "mem://coordinator",
		Peers:      n0.Membership(),
		RNG:        rand.New(rand.NewSource(11)),
	})
	if err != nil {
		return err
	}
	inter, err := init.StartProtocolInteraction(ctx, wsgossip.ProtocolPullGossip)
	if err != nil {
		return err
	}
	log.Printf("interaction %s: fanout=%d hops=%d, %d coordinator-assigned targets",
		inter.Context.Identifier, inter.Params.Fanout, inter.Params.Hops, len(inter.Params.Targets))
	for _, n := range nodes {
		if err := n.Disseminator().JoinInteraction(ctx, inter.Context, wsgossip.ProtocolPullGossip); err != nil {
			return err
		}
	}
	type event struct {
		XMLName struct{} `xml:"urn:example:membership Event"`
		Seq     int      `xml:"Seq"`
	}
	if _, _, err := init.Notify(ctx, inter, event{Seq: 1}); err != nil {
		return err
	}
	covered := func(want int64) int {
		got := 0
		for _, n := range nodes {
			if n.app.n.Load() >= want {
				got++
			}
		}
		return got
	}
	w := 0
	for ; covered(1) < len(nodes) && w < 60; w++ {
		vc.Advance(pullEvery)
	}
	log.Printf("event 1 reached all %d nodes in %d pull windows", len(nodes), w)

	// Churn mid-interaction: four nodes leave, six join from the seed.
	for i := 1; i <= 4; i++ {
		addr := fmt.Sprintf("mem://node%02d", i)
		n := nodes[addr]
		n.Membership().Leave(ctx)
		n.Stop()
		bus.Unregister(addr)
		delete(nodes, addr)
	}
	for i := nStart; i < nStart+6; i++ {
		n, err := boot(i, []string{"mem://node00"})
		if err != nil {
			return err
		}
		if err := n.Disseminator().JoinInteraction(ctx, inter.Context, wsgossip.ProtocolPullGossip); err != nil {
			return err
		}
	}
	if _, _, err := init.Notify(ctx, inter, event{Seq: 2}); err != nil {
		return err
	}
	w = 0
	for ; w < 120; w++ {
		vc.Advance(pullEvery)
		done := 0
		for _, n := range nodes {
			// Joiners pull both events; survivors already hold event 1.
			if n.app.n.Load() >= 2 {
				done++
			}
		}
		if done == len(nodes) {
			break
		}
	}
	log.Printf("after -4/+6 churn, both events reached all %d live nodes (window %d); mean view %.1f",
		len(nodes), w, meanView())

	for _, n := range nodes {
		n.Stop()
	}
	log.Printf("no target list was ever configured: the overlay came entirely from membership gossip")
	return nil
}
