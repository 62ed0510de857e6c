// Package wsgossip is the public API of the WS-Gossip middleware, a
// reproduction of "WS-Gossip: Middleware for Scalable Service Coordination"
// (Campos & Pereira, Middleware '08 Companion).
//
// WS-Gossip leverages gossip (epidemic) protocols as a high-level
// structuring paradigm for coordinating very large numbers of web services.
// It is layered on WS-Coordination: an Initiator activates a gossip
// coordination context and issues a single notification; Disseminators —
// whose application code is untouched — run a gossip handler in their
// middleware stack that registers with the coordination activity on first
// contact and re-routes copies of the notification to peers selected by the
// Coordinator; Consumers are completely unchanged.
//
// The paper's Figure 1 is four roles. The Coordinator and the Initiator are
// built directly; a Disseminator or a Consumer is a Node, and NewNode is the
// one way to build one:
//
//	coordinator := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{Address: "mem://coordinator"})
//	bus.Register("mem://coordinator", coordinator.Handler())
//
//	node, _ := wsgossip.NewNode(wsgossip.NodeConfig{
//	    Address: "mem://app1", Caller: bus, App: myService,
//	    Coordinator: "mem://coordinator", // Start subscribes there
//	})
//	bus.Register("mem://app1", node.Handler())
//	node.Start(ctx)
//	defer node.Stop()
//	// Role: wsgossip.RoleConsumer wraps an unchanged service instead.
//
//	initiator, _ := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
//	    Address: "mem://app0", Caller: bus, Activation: "mem://coordinator",
//	})
//	interaction, _ := initiator.StartInteraction(ctx)
//	initiator.Notify(ctx, interaction, myBody{})
//
// A Node's configuration carries policy values only; NewNode owns the wiring
// between the parts a value switches on — a live membership view, a
// failure-aware delivery plane with indirect probing, an admission gate,
// push-sum aggregation and continuous cluster queries, self-clocked rounds —
// all on one clock, one registry and one seed:
//
//	node, _ := wsgossip.NewNode(wsgossip.NodeConfig{
//	    Address: "mem://app1", Caller: bus, App: myService,
//	    Coordinator: "mem://coordinator",
//	    RepairEvery: 2 * time.Second,
//	    Membership:  &wsgossip.NodeMembership{Seeds: seeds, Every: time.Second,
//	        SuspectAfter: 5 * time.Second, RemoveAfter: 10 * time.Second},
//	    Delivery: &wsgossip.DeliveryConfig{}, ProbeK: 3, AdmitRate: 200,
//	    Value: load, AggregateEvery: time.Second,
//	})
//
// Bindings: soap.MemBus for in-process deployments, soap.HTTPServer and
// soap.HTTPClient for SOAP 1.2 over HTTP. The gossip engine, the simulated
// network, and the experiment harness live under internal/ and are exercised
// by cmd/wsgossip-bench.
//
// The exported identifiers are the paper's Coordinator and Initiator, Node
// and its configuration, the types a NodeConfig field or a Node accessor
// names, and the few helpers the examples and the binary call;
// TestPublicSurface pins the list.
package wsgossip

import (
	"wsgossip/internal/aggregate"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/epidemic"
	"wsgossip/internal/membership"
	"wsgossip/internal/probe"
)

// A Node's role (NodeConfig.Role).
const (
	// RoleDisseminator is a subscriber with a compliant middleware stack.
	RoleDisseminator = core.RoleDisseminator
	// RoleConsumer is an unchanged subscriber.
	RoleConsumer = core.RoleConsumer
)

// ProtocolPullGossip is the WS-PullGossip coordination protocol URI, for
// Initiator.StartProtocolInteraction and Disseminator.JoinInteraction.
const ProtocolPullGossip = core.ProtocolPullGossip

// The aggregate functions a ContinuousQuery can ask for.
const (
	FuncCount = aggregate.FuncCount
	FuncSum   = aggregate.FuncSum
	FuncAvg   = aggregate.FuncAvg
	FuncMin   = aggregate.FuncMin
	FuncMax   = aggregate.FuncMax
)

// The paper's roles that are not Nodes.
type (
	// Coordinator hosts Activation, Registration, and the subscription list.
	Coordinator = core.Coordinator
	// CoordinatorConfig configures a Coordinator.
	CoordinatorConfig = core.CoordinatorConfig
	// Initiator starts gossip interactions and issues notifications.
	Initiator = core.Initiator
	// InitiatorConfig configures an Initiator.
	InitiatorConfig = core.InitiatorConfig
	// Interaction is an activated gossip dissemination.
	Interaction = core.Interaction
)

// NewCoordinator returns a WS-Gossip Coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator { return core.NewCoordinator(cfg) }

// NewInitiator returns an Initiator.
func NewInitiator(cfg InitiatorConfig) (*Initiator, error) { return core.NewInitiator(cfg) }

// The types a NodeConfig field names.
type (
	// DeliveryConfig holds the delivery plane's budgets (NodeConfig.Delivery).
	DeliveryConfig = delivery.Config
	// ContinuousQuery declares one cluster quantity a querier node keeps
	// fresh: a metric name plus the aggregate function over it
	// (NodeConfig.Queries).
	ContinuousQuery = aggregate.ContinuousQuery
	// AggregateFunc identifies an aggregate function (FuncCount, FuncSum,
	// FuncAvg, FuncMin, FuncMax).
	AggregateFunc = aggregate.Func
)

// The parts a Node's accessors return.
type (
	// Disseminator is a node's gossip layer (Node.Disseminator).
	Disseminator = core.Disseminator
	// MembershipService is a node's live peer view (Node.Membership).
	MembershipService = membership.Service
	// DeliveryPlane is a node's failure-aware outbound plane (Node.Plane).
	DeliveryPlane = delivery.Plane
	// Prober confirms a suspected peer through indirect paths (Node.Prober).
	Prober = probe.Prober
	// PeerView supplies gossip fan-out targets at sample time
	// (Node.PeerView); an InitiatorConfig.Peers of one samples the live
	// overlay instead of the coordinator's frozen target lists.
	PeerView = core.PeerView
)

// DefaultParamPolicy is fanout 3, hops ceil(log2 n)+2. Push alone then
// reaches an expected 0.950, 0.943 and 0.941 of n = 16, 64 and 1000
// subscribers (epidemic.ExpectedCoverage), and never more than the
// infect-and-die ceiling of about 0.940 at large n, whatever the hops; repair
// or pull rounds fetch the rest. A CoordinatorConfig.Params policy can start
// from it.
func DefaultParamPolicy(subscribers int) (fanout, hops int) {
	return core.DefaultParamPolicy(subscribers)
}

// RoundsForCoverage returns the number of gossip rounds needed for the
// target expected coverage at fanout f over n nodes (capped at maxRounds),
// from the analytic epidemic model — the hop budget a CoordinatorConfig.Params
// policy hands out.
func RoundsForCoverage(n, f int, target float64, maxRounds int) (int, error) {
	return epidemic.RoundsForCoverage(n, f, target, maxRounds)
}
