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
// The four roles of the paper's Figure 1:
//
//	coordinator := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{Address: "mem://coordinator"})
//	initiator, _ := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
//	    Address: "mem://app0b", Caller: bus, Activation: "mem://coordinator",
//	})
//	disseminator, _ := wsgossip.NewDisseminator(wsgossip.DisseminatorConfig{
//	    Address: "mem://app1", Caller: bus, App: myService,
//	})
//	consumer := wsgossip.NewConsumer(myUnchangedService)
//
// A full node — the Disseminator plus a live membership view, a
// failure-aware delivery plane with indirect probing, an admission gate,
// push-sum aggregation and self-clocked rounds, all on one clock, one
// registry and one seed — is one call; NewNode owns the wiring between the
// parts, the configuration only their policy values:
//
//	node, _ := wsgossip.NewNode(wsgossip.NodeConfig{
//	    Address: "mem://app1", Caller: bus, App: myService,
//	    Coordinator: "mem://coordinator",
//	    RepairEvery: 2 * time.Second,
//	    Membership:  &wsgossip.NodeMembership{Seeds: seeds, Every: time.Second,
//	        SuspectAfter: 5 * time.Second, RemoveAfter: 10 * time.Second},
//	    Delivery: &wsgossip.DeliveryConfig{}, ProbeK: 3, AdmitRate: 200,
//	})
//	bus.Register("mem://app1", node.Handler())
//	node.Start(ctx)
//	defer node.Stop()
//
// Bindings: soap.MemBus for in-process deployments, soap.HTTPServer and
// soap.HTTPClient for SOAP 1.2 over HTTP. The gossip engine, the simulated
// network, and the experiment harness live under internal/ and are exercised
// by cmd/wsgossip-bench.
package wsgossip

import (
	"context"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/epidemic"
	"wsgossip/internal/faults"
	"wsgossip/internal/membership"
	"wsgossip/internal/probe"
	"wsgossip/internal/soap"
)

// Role and protocol identifiers re-exported from the framework core.
const (
	// CoordinationTypeGossip is the WS-Gossip coordination type URI.
	CoordinationTypeGossip = core.CoordinationTypeGossip
	// ProtocolPushGossip is the WS-PushGossip coordination protocol URI.
	ProtocolPushGossip = core.ProtocolPushGossip
	// ProtocolPullGossip is the WS-PullGossip coordination protocol URI.
	ProtocolPullGossip = core.ProtocolPullGossip
	// ProtocolAggregate is the gossip aggregation coordination protocol URI.
	ProtocolAggregate = core.ProtocolAggregate
	// ActionNotify is the disseminated operation's WS-Addressing action.
	ActionNotify = core.ActionNotify
	// RoleDisseminator marks a subscriber with a compliant middleware stack.
	RoleDisseminator = core.RoleDisseminator
	// RoleConsumer marks an unchanged subscriber.
	RoleConsumer = core.RoleConsumer
)

// Aggregate functions a Querier can ask for.
const (
	FuncCount = aggregate.FuncCount
	FuncSum   = aggregate.FuncSum
	FuncAvg   = aggregate.FuncAvg
	FuncMin   = aggregate.FuncMin
	FuncMax   = aggregate.FuncMax
)

// Core role types.
type (
	// Coordinator hosts Activation, Registration, and the subscription list.
	Coordinator = core.Coordinator
	// CoordinatorConfig configures a Coordinator.
	CoordinatorConfig = core.CoordinatorConfig
	// CoordinatorStats counts coordinator activity.
	CoordinatorStats = core.CoordinatorStats
	// ParamPolicy maps subscriber count to (fanout, hops).
	ParamPolicy = core.ParamPolicy
	// Initiator starts gossip interactions and issues notifications.
	Initiator = core.Initiator
	// InitiatorConfig configures an Initiator.
	InitiatorConfig = core.InitiatorConfig
	// Interaction is an activated gossip dissemination.
	Interaction = core.Interaction
	// Disseminator wraps an application service with the gossip layer.
	Disseminator = core.Disseminator
	// DisseminatorConfig configures a Disseminator.
	DisseminatorConfig = core.DisseminatorConfig
	// DisseminatorStats counts gossip-layer activity.
	DisseminatorStats = core.DisseminatorStats
	// Consumer is the unchanged subscriber role.
	Consumer = core.Consumer
	// Subscription is one subscriber record at the Coordinator.
	Subscription = core.Subscription
	// GossipHeader is the per-notification gossip SOAP header.
	GossipHeader = core.GossipHeader
	// GossipParameters is the registration-response parameter extension.
	GossipParameters = core.GossipParameters
	// AggregateParameters is the aggregation registration extension.
	AggregateParameters = core.AggregateParameters
	// ProtocolRegistry maps protocol URIs to registration extensions.
	ProtocolRegistry = core.ProtocolRegistry
	// Runner owns a node's self-clocking protocol rounds — pull,
	// anti-entropy repair, deferred lazy-push announcements, push-sum
	// exchanges, membership view exchanges — on a pluggable clock
	// (internal/clock): the wall clock in production, a deterministic
	// virtual clock in tests and simulations. With
	// RunnerConfig.QuiescentMax set the pull/repair/aggregate rounds back
	// off exponentially while the node is idle and snap back on traffic.
	Runner = core.Runner
	// RunnerConfig configures a Runner.
	RunnerConfig = core.RunnerConfig
	// RunnerLoop is one custom periodic round a Runner can own.
	RunnerLoop = core.Loop
	// PeerView supplies gossip fan-out targets at sample time. Install one
	// (DisseminatorConfig.Peers, AggregateServiceConfig.Peers,
	// InitiatorConfig.Peers) to sample the live overlay instead of the
	// coordinator's frozen target lists; MembershipService implements it.
	PeerView = core.PeerView
)

// Live membership layer (internal/membership): a gossip-maintained peer
// view with heartbeat failure detection, usable as the PeerView behind
// every fan-out.
type (
	// MembershipService is one node's membership protocol instance.
	MembershipService = membership.Service
	// MembershipConfig configures a MembershipService.
	MembershipConfig = membership.Config
	// MembershipSOAPEndpoint carries membership exchanges over the node's
	// SOAP binding so the view shares the fabric with the gossip services.
	MembershipSOAPEndpoint = membership.SOAPEndpoint
	// Member is one entry in a membership view.
	Member = membership.Member
)

// NewMembershipService returns a membership service.
func NewMembershipService(cfg MembershipConfig) (*MembershipService, error) {
	return membership.New(cfg)
}

// NewMembershipSOAPEndpoint returns a SOAP-carried membership endpoint for
// addr sending through caller.
func NewMembershipSOAPEndpoint(addr string, caller soap.Caller) *MembershipSOAPEndpoint {
	return membership.NewSOAPEndpoint(addr, caller)
}

// NewRunner returns a self-clocking round engine for a node's periodic
// gossip loops.
func NewRunner(cfg RunnerConfig) (*Runner, error) { return core.NewRunner(cfg) }

// Failure-aware delivery layer (internal/delivery): a plane of per-peer
// outbound queues with retry/backoff and circuit breaking that slots
// between any role and its binding, plus a token-bucket admission gate
// for the inbound path. Wrap the node's Caller in a DeliveryPlane and
// every fan-out inherits the failure handling; wrap its dispatcher in an
// AdmissionGate middleware and overload is shed with retry-after hints
// the senders' planes honor.
type (
	// DeliveryPlane is the failure-aware outbound plane. It implements the
	// same Caller contract as the bindings, so it is installed by wrapping:
	// DisseminatorConfig.Caller = plane. Use its FilterView to make peer
	// sampling skip open-circuit targets.
	DeliveryPlane = delivery.Plane
	// DeliveryConfig configures a DeliveryPlane.
	DeliveryConfig = delivery.Config
	// DeliveryPeerState is one peer's queue/breaker snapshot.
	DeliveryPeerState = delivery.PeerState
	// DeliveryStats aggregates a plane's live state across peers.
	DeliveryStats = delivery.Stats
	// AdmissionGate is the inbound token-bucket overload gate.
	AdmissionGate = delivery.Gate
	// AdmissionGateConfig configures an AdmissionGate.
	AdmissionGateConfig = delivery.GateConfig
)

// Delivery-plane fast-failure sentinels: a Send returning one of these
// means the plane refused responsibility and epidemic redundancy should
// route around the peer.
var (
	// ErrDeliveryQueueFull reports a peer whose bounded queue is at capacity.
	ErrDeliveryQueueFull = delivery.ErrQueueFull
	// ErrDeliveryCircuitOpen reports a peer whose circuit is open.
	ErrDeliveryCircuitOpen = delivery.ErrCircuitOpen
	// ErrDeliveryBudgetExhausted reports a message that spent its attempt
	// budget without landing.
	ErrDeliveryBudgetExhausted = delivery.ErrBudgetExhausted
)

// NewDeliveryPlane returns a failure-aware outbound delivery plane over
// cfg.Caller.
func NewDeliveryPlane(cfg DeliveryConfig) *DeliveryPlane { return delivery.NewPlane(cfg) }

// NewAdmissionGate returns an inbound admission gate; install it with
// soap.Chain(handler, gate.Middleware()).
func NewAdmissionGate(cfg AdmissionGateConfig) *AdmissionGate { return delivery.NewGate(cfg) }

// Asymmetric-failure tolerance (internal/probe, internal/faults). A
// Prober adjudicates opened circuits before they become suspicions: it
// asks K peers to reach the suspect indirectly (SWIM-style ping-req), and
// a positive indirect ack averts the suspicion, marking the link
// asymmetric-degraded instead of the peer dead. Wire it between a
// DeliveryPlane and a MembershipService: DeliveryConfig.OnPeerDown =
// prober.Confirm, ProberConfig.OnDown = membership.Suspect,
// DeliveryConfig.OnPeerUp = prober.ClearDegraded. A FaultTable and a
// FaultPlan inject the directional link faults (one-way cuts,
// connection-refused links, NAT'd nodes, per-link loss and delay) that
// make such probers necessary, replayable as a timed script.
type (
	// Prober confirms suspected peers through indirect paths.
	Prober = probe.Prober
	// ProberConfig configures a Prober.
	ProberConfig = probe.Config
	// ProberStats is a point-in-time snapshot of a Prober's verdicts.
	ProberStats = probe.Stats
	// FaultTable is a directional link-fault rule set consulted per send.
	FaultTable = faults.Table
	// FaultPlan is a declarative timeline of fault events.
	FaultPlan = faults.Plan
	// FaultApplier binds a FaultPlan to the fabric it drives.
	FaultApplier = faults.Applier
)

// NewProber returns an indirect-reachability prober; register its SOAP
// actions on the node's dispatcher with Prober.RegisterActions.
func NewProber(cfg ProberConfig) *Prober { return probe.New(cfg) }

// NewFaultTable returns an empty fault table.
func NewFaultTable() *FaultTable { return faults.NewTable() }

// ParseFaultPlan reads a fault plan from its textual form (see
// internal/faults.ParsePlan for the grammar).
func ParseFaultPlan(src string) (*FaultPlan, error) { return faults.ParsePlan(src) }

// Aggregation subsystem types (internal/aggregate).
type (
	// AggregateFunc identifies the aggregate function an interaction
	// computes (FuncCount, FuncSum, FuncAvg, FuncMin, FuncMax).
	AggregateFunc = aggregate.Func
	// AggregateService is the aggregation participant role.
	AggregateService = aggregate.Service
	// AggregateServiceConfig configures an AggregateService.
	AggregateServiceConfig = aggregate.ServiceConfig
	// AggregateServiceStats counts aggregation activity at one node.
	AggregateServiceStats = aggregate.ServiceStats
	// Querier activates aggregation interactions and collects converged
	// estimates.
	Querier = aggregate.Querier
	// QuerierConfig configures a Querier.
	QuerierConfig = aggregate.QuerierConfig
	// AggregationTask is one activated aggregation interaction.
	AggregationTask = aggregate.Task
	// AggregateQueryResult is a peer's answer to an estimate query.
	AggregateQueryResult = aggregate.QueryResult
	// ContinuousQuery declares one cluster quantity an AggregateWindow
	// keeps fresh (a metric name plus the aggregate function over it).
	ContinuousQuery = aggregate.ContinuousQuery
	// AggregateWindow is the continuous-query controller: it restarts
	// push-sum every window on the shared clock so estimates track churn.
	AggregateWindow = aggregate.Window
	// AggregateWindowConfig configures an AggregateWindow.
	AggregateWindowConfig = aggregate.WindowConfig
	// ClusterEstimate is one continuous query's health view: the last
	// closed epoch's stable estimate plus the still-mixing live one.
	ClusterEstimate = aggregate.ClusterEstimate
)

// NewAggregateService returns an aggregation participant.
func NewAggregateService(cfg AggregateServiceConfig) (*AggregateService, error) {
	return aggregate.NewService(cfg)
}

// NewQuerier returns an aggregation Querier.
func NewQuerier(cfg QuerierConfig) (*Querier, error) { return aggregate.NewQuerier(cfg) }

// NewAggregateWindow returns a continuous-query controller driving the
// configured queries as epoch-windowed aggregations.
func NewAggregateWindow(cfg AggregateWindowConfig) (*AggregateWindow, error) {
	return aggregate.NewWindow(cfg)
}

// NewCoordinator returns a WS-Gossip Coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator { return core.NewCoordinator(cfg) }

// NewInitiator returns an Initiator.
func NewInitiator(cfg InitiatorConfig) (*Initiator, error) { return core.NewInitiator(cfg) }

// NewDisseminator returns a Disseminator.
func NewDisseminator(cfg DisseminatorConfig) (*Disseminator, error) {
	return core.NewDisseminator(cfg)
}

// NewConsumer wraps an unchanged application service as a Consumer.
func NewConsumer(app soap.Handler) *Consumer { return core.NewConsumer(app) }

// Subscribe registers endpoint with the Coordinator at coordinator, in the
// given role (RoleDisseminator or RoleConsumer). protocols lists the
// coordination protocol URIs the endpoint's stack serves (e.g.
// ProtocolAggregate); none means every protocol.
func Subscribe(ctx context.Context, caller soap.Caller, coordinator, endpoint, role string, protocols ...string) error {
	return core.SubscribeClient(ctx, caller, coordinator, endpoint, role, protocols...)
}

// DefaultParamPolicy is the standard epidemic sizing: fanout 3, hops
// ceil(log2 n)+2.
func DefaultParamPolicy(subscribers int) (fanout, hops int) {
	return core.DefaultParamPolicy(subscribers)
}

// RoundsForCoverage returns the number of gossip rounds needed for the
// target expected coverage at fanout f over n nodes (capped at maxRounds),
// from the analytic epidemic model.
func RoundsForCoverage(n, f int, target float64, maxRounds int) (int, error) {
	return epidemic.RoundsForCoverage(n, f, target, maxRounds)
}

// ExpectedCoverage returns the analytic expected delivery fraction for
// infect-and-die push gossip with fanout f after r rounds over n nodes.
func ExpectedCoverage(n, f, r int) (float64, error) {
	return epidemic.ExpectedCoverage(n, f, r)
}

// PushSumRoundsToEpsilon returns the analytic number of push-sum exchange
// rounds for aggregation estimates to decay to relative accuracy eps over n
// nodes at fanout f.
func PushSumRoundsToEpsilon(n, f int, eps float64) (int, error) {
	return epidemic.PushSumRoundsToEpsilon(n, f, eps)
}

// PushSumContraction returns the expected per-round contraction factor of
// the push-sum potential for n nodes at fanout f.
func PushSumContraction(n, f int) (float64, error) {
	return epidemic.PushSumContraction(n, f)
}
