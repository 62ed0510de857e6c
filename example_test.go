package wsgossip_test

import (
	"context"
	"encoding/xml"
	"fmt"
	"math/rand"

	"wsgossip"
	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
)

type exampleEvent struct {
	XMLName xml.Name `xml:"urn:example Event"`
	Text    string   `xml:"Text"`
}

type exampleApp struct {
	name string
}

func (a *exampleApp) HandleSOAP(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var ev exampleEvent
	if err := req.Envelope.DecodeBody(&ev); err != nil {
		return nil, err
	}
	fmt.Printf("%s received %q\n", a.name, ev.Text)
	return nil, nil
}

// Example shows the paper's Figure 1 in miniature: a Coordinator, one
// Disseminator and one unchanged Consumer — each a Node — and an Initiator
// that issues a single notification.
func Example() {
	ctx := context.Background()
	bus := soap.NewMemBus()
	vc := clock.NewVirtual()

	// Hops 0 keeps the example deterministic: the initiator reaches both
	// subscribers directly and nobody re-forwards (the unchanged consumer
	// has no duplicate suppression, so gossip redundancy would print
	// duplicate lines here).
	coordinator := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(1)),
		Params:  func(int) (int, int) { return 1, 0 },
	})
	bus.Register("mem://coordinator", coordinator.Handler())

	for _, cfg := range []wsgossip.NodeConfig{
		{Address: "mem://service", App: &exampleApp{name: "service"}},
		{Address: "mem://viewer", Role: wsgossip.RoleConsumer, App: &exampleApp{name: "viewer"}},
	} {
		cfg.Caller, cfg.Clock, cfg.Coordinator = bus, vc, "mem://coordinator"
		node, err := wsgossip.NewNode(cfg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		bus.Register(cfg.Address, node.Handler())
		if err := node.Start(ctx); err != nil {
			fmt.Println("error:", err)
			return
		}
		defer node.Stop()
	}
	vc.Advance(0) // Start subscribes on the node's clock

	initiator, err := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
		Address:    "mem://feed",
		Caller:     bus,
		Activation: "mem://coordinator",
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	interaction, err := initiator.StartInteraction(ctx)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if _, _, err := initiator.Notify(ctx, interaction, exampleEvent{Text: "hello"}); err != nil {
		fmt.Println("error:", err)
		return
	}
	// Unordered output:
	// service received "hello"
	// viewer received "hello"
}

// ExampleRoundsForCoverage sizes a hop budget from the analytic model, the
// way a Coordinator's parameter policy does.
func ExampleRoundsForCoverage() {
	rounds, _ := wsgossip.RoundsForCoverage(1000, 6, 0.99, 100)
	fmt.Printf("f=6 reaches 99%% in %d rounds\n", rounds)
	// Output:
	// f=6 reaches 99% in 6 rounds
}
