package wsgossip_test

import (
	"context"
	"encoding/xml"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wsgossip"
	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
)

type apiPayload struct {
	XMLName xml.Name `xml:"urn:apitest Event"`
	Value   int      `xml:"Value"`
}

type apiApp struct {
	mu     sync.Mutex
	values []int
}

func (a *apiApp) HandleSOAP(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var p apiPayload
	if err := req.Envelope.DecodeBody(&p); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.values = append(a.values, p.Value)
	return nil, nil
}

func (a *apiApp) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.values)
}

// startAPINode builds a node on bus and vc, serves it and starts it. Start's
// coordinator subscription is a zero-delay timer: Advance(0) fires it now, so
// nodes subscribe in the order they are started.
func startAPINode(t *testing.T, bus *soap.MemBus, vc *clock.Virtual, cfg wsgossip.NodeConfig) *wsgossip.Node {
	t.Helper()
	cfg.Caller, cfg.Clock = bus, vc
	node, err := wsgossip.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bus.Register(cfg.Address, node.Handler())
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Stop)
	vc.Advance(0)
	return node
}

// TestPublicAPIEndToEnd drives a complete WS-Gossip deployment exclusively
// through the public wsgossip package: the Coordinator and the Initiator,
// and every subscriber a Node.
func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	bus := soap.NewMemBus()
	vc := clock.NewVirtual()

	coordinator := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(3)),
		Params: func(n int) (int, int) {
			_, hops := wsgossip.DefaultParamPolicy(n)
			return 5, hops
		},
	})
	bus.Register("mem://coordinator", coordinator.Handler())

	const services = 24
	apps := make([]*apiApp, services)
	for i := 0; i < services; i++ {
		apps[i] = &apiApp{}
		startAPINode(t, bus, vc, wsgossip.NodeConfig{
			Address: fmt.Sprintf("mem://svc%02d", i), App: apps[i],
			Seed:        int64(i) + 9, // the Disseminator draws Seed+1
			Coordinator: "mem://coordinator",
		})
	}
	consumerApp := &apiApp{}
	startAPINode(t, bus, vc, wsgossip.NodeConfig{
		Address: "mem://consumer", Role: wsgossip.RoleConsumer, App: consumerApp,
		Coordinator: "mem://coordinator",
	})
	if got := len(coordinator.Subscribers()); got != services+1 {
		t.Fatalf("subscribers = %d", got)
	}

	initiator, err := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
		Address: "mem://init", Caller: bus, Activation: "mem://coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	interaction, err := initiator.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const events = 5
	for e := 0; e < events; e++ {
		if _, _, err := initiator.Notify(ctx, interaction, apiPayload{Value: e}); err != nil {
			t.Fatal(err)
		}
	}
	full := 0
	for _, app := range apps {
		if app.count() == events {
			full++
		}
	}
	if full < services-2 {
		t.Fatalf("only %d/%d services received the complete stream", full, services)
	}
	if consumerApp.count() < events {
		t.Fatalf("consumer received %d/%d", consumerApp.count(), events)
	}
}

// TestPublicAPIAggregation checks every aggregate function a NodeConfig
// query can name: 16 participant Nodes contribute 1..16, a querier Node
// keeps all five quantities fresh, and each frozen estimate must match the
// ground truth within 1%.
func TestPublicAPIAggregation(t *testing.T) {
	bus := soap.NewMemBus()
	vc := clock.NewVirtual()
	coordinator := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(21)),
	})
	bus.Register("mem://coordinator", coordinator.Handler())

	const (
		services = 16
		period   = 50 * time.Millisecond
		window   = 20 * period
	)
	for i := 0; i < services; i++ {
		v := float64(i + 1)
		startAPINode(t, bus, vc, wsgossip.NodeConfig{
			Address:        fmt.Sprintf("mem://agg%02d", i),
			Seed:           int64(i) + 30,
			Coordinator:    "mem://coordinator",
			Value:          func() float64 { return v },
			AggregateEvery: period,
		})
	}
	// The querier holds no value, so count and sum cover the services only.
	querier := startAPINode(t, bus, vc, wsgossip.NodeConfig{
		Address:     "mem://querier",
		Seed:        99,
		Coordinator: "mem://coordinator",
		Queries: []wsgossip.ContinuousQuery{
			{Name: "n", Func: wsgossip.FuncCount},
			{Name: "total", Func: wsgossip.FuncSum},
			{Name: "mean", Func: wsgossip.FuncAvg},
			{Name: "low", Func: wsgossip.FuncMin},
			{Name: "high", Func: wsgossip.FuncMax},
		},
		QueryWindow:    window,
		AggregateEvery: period,
	})

	truth := map[string]float64{"n": services, "total": services * (services + 1) / 2,
		"mean": (services + 1) / 2.0, "low": 1, "high": services}
	vc.Advance(2*window + period) // epoch 1 has closed and frozen
	ests := querier.Health().Cluster.Queries
	if len(ests) != len(truth) {
		t.Fatalf("%d query estimates, want %d", len(ests), len(truth))
	}
	for _, est := range ests {
		want := truth[est.Query]
		if !est.Defined || est.FrozenEpoch < 1 {
			t.Fatalf("%s: no frozen estimate after two windows: %+v", est.Query, est)
		}
		if diff := est.Estimate - want; diff > want*0.01 || diff < -want*0.01 {
			t.Fatalf("%s: epoch %d estimate %.4f vs truth %.4f beyond 1%%", est.Query, est.FrozenEpoch, est.Estimate, want)
		}
	}
}

// TestPublicAPIRunner keeps a cluster average fresh with no test-driven
// ticks: 12 participant Nodes contribute a value, a querier Node runs a
// continuous query, and every push-sum exchange fires from the nodes' own
// jittered rounds on one virtual clock — the test only advances time.
func TestPublicAPIRunner(t *testing.T) {
	bus := soap.NewMemBus()
	vc := clock.NewVirtual()
	coordinator := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(77)),
	})
	bus.Register("mem://coordinator", coordinator.Handler())

	const (
		services = 12
		period   = 50 * time.Millisecond
		window   = 20 * period
	)
	sum := 0.0
	for i := 0; i < services; i++ {
		v := float64(i + 1)
		sum += v
		startAPINode(t, bus, vc, wsgossip.NodeConfig{
			Address:        fmt.Sprintf("mem://run%02d", i),
			Seed:           int64(i+1) * 8,
			Coordinator:    "mem://coordinator",
			JitterFrac:     0.2,
			Value:          func() float64 { return v },
			AggregateEvery: period,
		})
	}
	querier := startAPINode(t, bus, vc, wsgossip.NodeConfig{
		Address:        "mem://querier",
		Seed:           1000,
		Coordinator:    "mem://coordinator",
		JitterFrac:     0.2,
		AggregateEvery: period,
		Queries:        []wsgossip.ContinuousQuery{{Name: "load", Func: wsgossip.FuncAvg}},
		QueryWindow:    window,
	})

	for _, est := range querier.Health().Cluster.Queries {
		if est.Defined {
			t.Fatalf("estimate before any round fired: %+v", est)
		}
	}
	vc.Advance(2*window + period) // epoch 1 has closed and frozen
	est := querier.Health().Cluster.Queries[0]
	if !est.Defined || est.FrozenEpoch < 1 {
		t.Fatalf("no frozen estimate after two windows: %+v", est)
	}
	truth := sum / services
	if diff := est.Estimate - truth; diff > truth*0.01 || diff < -truth*0.01 {
		t.Fatalf("epoch %d estimate %.4f vs truth %.4f beyond 1%%", est.FrozenEpoch, est.Estimate, truth)
	}
}

func TestEpidemicHelpers(t *testing.T) {
	r, err := wsgossip.RoundsForCoverage(1000, 4, 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r < 4 || r > 30 {
		t.Fatalf("rounds = %d", r)
	}
	f, h := wsgossip.DefaultParamPolicy(256)
	if f != 3 || h != 10 {
		t.Fatalf("policy = (%d, %d)", f, h)
	}
}

// publicSurface is the root package's exported top-level identifiers,
// sorted. An identifier belongs here only if it is a paper role (Coordinator,
// Initiator, their configs, Interaction), Node or its configuration, a type
// or value a NodeConfig field takes, a type a Node accessor returns, or
// something a non-test caller in examples/ or cmd/ uses. Anything else is
// reached through internal/ by the code that needs it.
var publicSurface = []string{
	"AddressSeed",
	"AggregateFunc",
	"ContinuousQuery",
	"Coordinator",
	"CoordinatorConfig",
	"DefaultParamPolicy",
	"DeliveryConfig",
	"DeliveryPlane",
	"Disseminator",
	"FuncAvg",
	"FuncCount",
	"FuncMax",
	"FuncMin",
	"FuncSum",
	"Initiator",
	"InitiatorConfig",
	"Interaction",
	"MembershipService",
	"NewCoordinator",
	"NewInitiator",
	"NewNode",
	"Node",
	"NodeConfig",
	"NodeMembership",
	"PeerView",
	"Prober",
	"ProtocolPullGossip",
	"RoleConsumer",
	"RoleDisseminator",
	"RoundsForCoverage",
}

// TestPublicSurface pins the root package's exported identifiers: adding or
// removing one is a deliberate edit of publicSurface.
func TestPublicSurface(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["wsgossip"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								got = append(got, name.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, publicSurface) {
		t.Fatalf("exported identifiers changed:\n got  %v\n want %v", got, publicSurface)
	}
}
