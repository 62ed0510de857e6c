// Quickstart: the paper's Figure 1 in one file, scaled to 32 services over
// the in-memory SOAP binding.
//
// A Coordinator hosts Activation/Registration and the subscription list; 30
// Disseminators (application code untouched, gossip handler in the stack)
// and one unchanged Consumer — each a wsgossip.Node — subscribe; an
// Initiator activates a gossip interaction and issues a single
// notification, which gossip spreads to everyone.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"encoding/xml"
	"fmt"
	"log"
	"math/rand"
	"os"

	"wsgossip"
	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
)

type greeting struct {
	XMLName xml.Name `xml:"urn:example:quickstart Greeting"`
	Text    string   `xml:"Text"`
}

// countingApp is a trivial application service: it counts deliveries.
type countingApp struct {
	name  string
	count int
}

func (a *countingApp) HandleSOAP(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var g greeting
	if err := req.Envelope.DecodeBody(&g); err != nil {
		return nil, err
	}
	a.count++
	return nil, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	bus := soap.NewMemBus()

	// 1. The Coordinator role.
	coordinator := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(1)),
		// Fanout 5 puts the epidemic's expected coverage above 99%; the
		// default policy's fanout 3 stops at the ~94% fixed point.
		Params: func(n int) (int, int) {
			_, hops := wsgossip.DefaultParamPolicy(n)
			return 5, hops
		},
	})
	bus.Register("mem://coordinator", coordinator.Handler())

	// 2. Thirty Disseminators and one completely unchanged Consumer, each a
	//    Node: the Disseminator wraps an ordinary application service with
	//    the gossip middleware handler, the Consumer is the service alone.
	//    Start subscribes on the nodes' shared clock; Advance(0) fires it.
	vc := clock.NewVirtual()
	startNode := func(cfg wsgossip.NodeConfig) error {
		cfg.Caller, cfg.Clock, cfg.Coordinator = bus, vc, "mem://coordinator"
		node, err := wsgossip.NewNode(cfg)
		if err != nil {
			return err
		}
		bus.Register(cfg.Address, node.Handler())
		if err := node.Start(ctx); err != nil {
			return err
		}
		vc.Advance(0)
		return nil
	}
	const disseminators = 30
	apps := make([]*countingApp, 0, disseminators)
	for i := 0; i < disseminators; i++ {
		addr := fmt.Sprintf("mem://service%02d", i)
		app := &countingApp{name: addr}
		// The Disseminator draws from Seed+1.
		if err := startNode(wsgossip.NodeConfig{Address: addr, App: app, Seed: int64(i) + 1}); err != nil {
			return err
		}
		apps = append(apps, app)
	}
	consumerApp := &countingApp{name: "mem://consumer"}
	if err := startNode(wsgossip.NodeConfig{Address: "mem://consumer", Role: wsgossip.RoleConsumer, App: consumerApp}); err != nil {
		return err
	}

	// 3. The Initiator: the only role whose application code changes.
	initiator, err := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
		Address:    "mem://initiator",
		Caller:     bus,
		Activation: "mem://coordinator",
	})
	if err != nil {
		return err
	}
	interaction, err := initiator.StartInteraction(ctx)
	if err != nil {
		return err
	}
	log.Printf("interaction %s activated: fanout=%d hops=%d",
		interaction.Context.Identifier, interaction.Params.Fanout, interaction.Params.Hops)

	msgID, sent, err := initiator.Notify(ctx, interaction, greeting{Text: "hello, gossiping services"})
	if err != nil {
		return err
	}
	log.Printf("issued a single notification %s to %d initial targets", msgID, sent)

	// The in-memory bus is synchronous: dissemination has completed.
	reached := 0
	for _, app := range apps {
		if app.count > 0 {
			reached++
		}
	}
	log.Printf("disseminators reached: %d/%d (each delivered exactly once to its app)", reached, disseminators)
	log.Printf("unchanged consumer received %d copy/copies", consumerApp.count)
	return nil
}
