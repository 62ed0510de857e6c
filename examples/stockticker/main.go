// Stockticker: the paper's motivating scenario (Section 1) — market data
// flowing among many interconnected trading services. A synthetic Zipf-
// popular quote feed is disseminated through WS-Gossip to 64 subscribed
// services; the example reports per-service delivery and the traffic cost
// against what a centralized notifier would pay.
//
//	go run ./examples/stockticker
package main

import (
	"context"
	"encoding/xml"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"sync"

	"wsgossip"
	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
	"wsgossip/internal/stockfeed"
)

type quoteBody struct {
	XMLName xml.Name `xml:"urn:example:stock Quote"`
	Symbol  string   `xml:"Symbol"`
	Seq     uint64   `xml:"Seq"`
	Price   float64  `xml:"Price"`
}

// tickerApp tracks the quotes a service received, by symbol.
type tickerApp struct {
	mu       sync.Mutex
	received int
	symbols  map[string]int
}

func newTickerApp() *tickerApp {
	return &tickerApp{symbols: make(map[string]int)}
}

func (a *tickerApp) HandleSOAP(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var q quoteBody
	if err := req.Envelope.DecodeBody(&q); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.received++
	a.symbols[q.Symbol]++
	return nil, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stockticker:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		services = 64
		quotes   = 200
	)
	ctx := context.Background()
	bus := soap.NewMemBus()

	coordinator := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(11)),
		// Size hops for near-complete coverage at this fanout/population.
		Params: func(n int) (int, int) {
			if n < 2 {
				return 1, 1
			}
			fanout := 5
			hops, err := wsgossip.RoundsForCoverage(n, fanout, 0.99, 64)
			if err != nil || hops > 64 {
				hops = 12
			}
			return fanout, hops + 2
		},
	})
	bus.Register("mem://coordinator", coordinator.Handler())

	// Each trading service is a Node on one virtual clock; Start subscribes
	// on that clock, Advance(0) fires the subscription in service order.
	vc := clock.NewVirtual()
	apps := make([]*tickerApp, services)
	dissems := make([]*wsgossip.Disseminator, services)
	for i := 0; i < services; i++ {
		addr := fmt.Sprintf("mem://trader%02d", i)
		apps[i] = newTickerApp()
		node, err := wsgossip.NewNode(wsgossip.NodeConfig{
			Address:     addr,
			Caller:      bus,
			App:         apps[i],
			Clock:       vc,
			Seed:        99 + int64(i), // the Disseminator draws Seed+1
			Coordinator: "mem://coordinator",
		})
		if err != nil {
			return err
		}
		dissems[i] = node.Disseminator()
		bus.Register(addr, node.Handler())
		if err := node.Start(ctx); err != nil {
			return err
		}
		vc.Advance(0)
	}

	// The market feed is the Initiator.
	initiator, err := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
		Address:    "mem://feed",
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
	log.Printf("feed interaction: fanout=%d hops=%d", interaction.Params.Fanout, interaction.Params.Hops)

	feed, err := stockfeed.New(stockfeed.DefaultConfig(7))
	if err != nil {
		return err
	}
	for i := 0; i < quotes; i++ {
		q := feed.Next()
		if _, _, err := initiator.Notify(ctx, interaction, quoteBody{
			Symbol: q.Symbol, Seq: q.Seq, Price: q.Price,
		}); err != nil {
			return err
		}
	}

	// Report delivery.
	full, total := 0, 0
	for _, app := range apps {
		app.mu.Lock()
		n := app.received
		app.mu.Unlock()
		total += n
		if n == quotes {
			full++
		}
	}
	log.Printf("disseminated %d quotes to %d services", quotes, services)
	log.Printf("services with complete feed: %d/%d (mean delivery %.1f%%)",
		full, services, 100*float64(total)/float64(quotes*services))

	// Traffic accounting: gossip forwards vs the N sends/quote a broker pays.
	var forwards int64
	for _, d := range dissems {
		forwards += d.Stats().Forwarded
	}
	log.Printf("gossip forwards: %d total (%.1f per quote; a centralized broker sends %d per quote)",
		forwards, float64(forwards)/float64(quotes), services)

	// Hot symbols, per the Zipf popularity of the synthetic market.
	hot := make(map[string]int)
	for _, app := range apps {
		app.mu.Lock()
		for s, c := range app.symbols {
			hot[s] += c
		}
		app.mu.Unlock()
	}
	type kv struct {
		sym string
		n   int
	}
	var ranked []kv
	for s, c := range hot {
		ranked = append(ranked, kv{s, c})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].n > ranked[j].n })
	top := ranked
	if len(top) > 3 {
		top = top[:3]
	}
	for i, e := range top {
		log.Printf("hot symbol #%d: %s (%d deliveries)", i+1, e.sym, e.n)
	}
	return nil
}
