package wsgossip

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"strings"
	"sync"
	"time"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/membership"
	"wsgossip/internal/metrics"
	"wsgossip/internal/obs"
	"wsgossip/internal/probe"
	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
)

// NodeConfig is everything a deployment decides about one node: its
// address, its binding, its clock, its registry, its seed, and the policy
// values (intervals, budgets, rates) of the layers it wants. How those
// layers are wired to each other is not configurable — that is NewNode.
//
// A zero interval leaves that round to the caller (the Tick methods of the
// parts are reachable through the accessors); Start schedules the rest. The
// aggregation participant has no accessor, so a node with a Value or Queries
// requires AggregateEvery.
type NodeConfig struct {
	// Address is the node's endpoint address. Required.
	Address string
	// Role is RoleDisseminator (also the zero value) for the full stack, or
	// RoleConsumer for an unchanged subscriber: the application handler
	// plus the coordinator subscription, nothing else.
	Role string
	// Caller is the raw binding (soap.MemBus, soap.HTTPClient, a test
	// bus). Required. Membership exchanges and indirect probes use it as
	// is; everything else rides the delivery plane when Delivery is set.
	Caller soap.Caller
	// App receives each unique notification exactly once; nil relays only.
	App soap.Handler
	// Clock is the one clock every component of the node schedules and
	// reads time on. Nil is a single clock.NewWall(), so continuous-query
	// epochs agree across machines.
	Clock clock.Clock
	// Metrics is the one registry every component resolves its series
	// from. Nil is a fresh registry, returned by Registry.
	Metrics *metrics.Registry
	// Seed seeds the node's RNG streams; 0 derives it from Address (see
	// AddressSeed). The components draw from Seed+0 … Seed+5: round
	// schedule, disseminator, aggregation, membership, delivery plane,
	// prober. Space the seeds of co-simulated nodes at least 6 apart.
	Seed int64

	// Coordinator is the Coordinator's address: Start subscribes the node
	// there (retrying in the background for 30 s) and continuous queries
	// activate there. Empty skips the subscription.
	Coordinator string
	// PullEvery, RepairEvery and AnnounceEvery are the dissemination round
	// intervals; 0 disables each.
	PullEvery, RepairEvery, AnnounceEvery time.Duration
	// JitterFrac is the per-round jitter as a fraction of each period, in
	// [0, 1).
	JitterFrac float64
	// QuiescentMax, when > 0, backs idle pull/repair/aggregate rounds off
	// toward this period (their Loop.MaxPeriod); it must exceed each of
	// their intervals. Announce and membership rounds keep their pace.
	QuiescentMax time.Duration

	// Membership, when set, runs a live peer view that every fan-out —
	// dissemination and push-sum alike — samples instead of the
	// coordinator's frozen target lists.
	Membership *NodeMembership
	// Delivery, when set, routes notify, pull, repair and push-sum traffic
	// through a delivery plane with these budgets (zero fields take the
	// DeliveryConfig defaults). Caller, Clock, RNG, Metrics, OnPeerDown and
	// OnPeerUp are the Node's to wire and must be left unset.
	Delivery *DeliveryConfig
	// ProbeK, when non-zero with both Membership and Delivery set, has an
	// opened circuit adjudicated by that many indirect helpers before the
	// peer is suspected; negative asks every helper.
	ProbeK int
	// ProbeTimeout is the indirect-probe round deadline, 0 = 2 s.
	ProbeTimeout time.Duration
	// AdmitRate, when > 0, sheds inbound requests beyond this many per
	// second with a retry-after fault; membership traffic is exempt.
	AdmitRate float64
	// AdmitBurst is the admission bucket depth, 0 = max(1, AdmitRate).
	AdmitBurst int

	// Value, when set, makes the node an aggregation participant
	// contributing this local measurement.
	Value func() float64
	// AggregateEvery is the push-sum exchange interval; required with a
	// Value or Queries.
	AggregateEvery time.Duration
	// Queries, when non-empty, makes the node the querier that keeps these
	// cluster quantities fresh, restarting each every QueryWindow.
	Queries []ContinuousQuery
	// QueryWindow is the continuous-query epoch length.
	QueryWindow time.Duration
}

// NodeMembership is the live-view part of a NodeConfig.
type NodeMembership struct {
	// Seeds are the addresses Start joins through. A node with none (or
	// only its own) waits to be discovered.
	Seeds []string
	// Every is the view-exchange interval; Start retries the join at this
	// pace until a seed answers. 0 leaves exchanges to the caller.
	Every time.Duration
	// SuspectAfter and RemoveAfter are the heartbeat-stall thresholds
	// (MembershipConfig).
	SuspectAfter, RemoveAfter time.Duration
}

// What no deployment varies: how long Start's background join and subscribe
// keep trying, the subscribe pace (the join retries at the membership
// exchange interval), and how many peers a view exchange is pushed to.
const (
	bootstrapRetryFor   = 30 * time.Second
	subscribeRetryEvery = time.Second
	membershipFanout    = 3
)

// Node is one assembled WS-Gossip node — the composition root. NewNode
// builds the whole stack from a NodeConfig and owns every edge between its
// parts:
//
//	raw Caller ── membership exchanges, indirect probes (must see the real link)
//	     └─ delivery plane ── notify, pull, repair, push-sum shares
//	plane circuit opens  → prober.Confirm → (no indirect path) → membership.Suspect
//	                       (no prober: straight to Suspect)
//	plane circuit closes → prober.ClearDegraded
//	plane.FilterView(membership) = the peer view of Disseminator AND aggregation
//	dispatcher ← admission gate (membership actions exempt) ← panic recovery
//	Runner: pull, repair, announce, aggregate, membership rounds on the one clock
//
// Serve Handler on the binding, then Start; Stop tears it all down. The
// node narrates its wiring decisions and failure-detector verdicts (circuit
// opened, suspicion averted, subscribed, …) at Debug through slog.Default,
// with node and role attributes.
type Node struct {
	cfg  NodeConfig
	clk  clock.Clock
	reg  *metrics.Registry
	role string
	log  *slog.Logger

	dispatcher *soap.Dispatcher
	handler    soap.Handler
	dissem     *core.Disseminator
	msvc       *membership.Service
	plane      *delivery.Plane
	prober     *probe.Prober
	view       PeerView
	runner     *core.Runner
	window     *aggregate.Window
	protocols  []string
	seeds      []string

	mu       sync.Mutex
	stopped  bool
	cancel   context.CancelFunc // non-nil once started
	retries  []func() bool      // per bootstrap step: stops its pending timer
	inflight sync.WaitGroup     // bootstrap attempts in progress
}

// AddressSeed is the seed a Node derives from its address when
// NodeConfig.Seed is 0, so peers started with identical settings still
// desynchronize their round schedules.
func AddressSeed(addr string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	return int64(h.Sum64())
}

// NewNode assembles a node. Nothing is scheduled and nothing is sent until
// Start.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Address == "" || cfg.Caller == nil {
		return nil, errors.New("wsgossip: node config requires an address and a caller")
	}
	n := &Node{cfg: cfg, clk: cfg.Clock, reg: cfg.Metrics, role: cfg.Role}
	if n.clk == nil {
		n.clk = clock.NewWall()
	}
	if n.reg == nil {
		n.reg = metrics.NewRegistry()
	}
	if n.role == "" {
		n.role = RoleDisseminator
	}
	n.log = slog.Default().With("node", cfg.Address, "role", n.role)
	switch n.role {
	case RoleDisseminator:
	case RoleConsumer:
		n.handler = soap.Chain(core.NewConsumer(cfg.App).Handler(), soap.RecoverMiddleware(n.reg))
		n.protocols = []string{core.ProtocolPushGossip}
		return n, nil
	default:
		return nil, fmt.Errorf("wsgossip: node role %q (want %s or %s)", n.role, RoleDisseminator, RoleConsumer)
	}
	// An advertised participant that never exchanges parks every share it
	// absorbs, and nothing outside the Node could tick it.
	if (cfg.Value != nil || len(cfg.Queries) > 0) && cfg.AggregateEvery <= 0 {
		return nil, errors.New("wsgossip: an aggregation node (Value or Queries) requires a positive AggregateEvery")
	}
	if cfg.QuiescentMax < 0 {
		return nil, fmt.Errorf("wsgossip: negative QuiescentMax %v", cfg.QuiescentMax)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = AddressSeed(cfg.Address)
	}
	rng := func(offset int64) *rand.Rand { return rand.New(rand.NewSource(seed + offset)) }
	n.dispatcher = soap.NewDispatcher()

	// The live view: exchanges ride this node's SOAP endpoint on the RAW
	// caller — the heartbeat protocol is itself the failure detector and
	// must observe the real link, not a retried view of it.
	if m := cfg.Membership; m != nil {
		ep := membership.NewSOAPEndpoint(cfg.Address, cfg.Caller)
		msvc, err := membership.New(membership.Config{
			Endpoint:     ep,
			Clock:        n.clk,
			RNG:          rng(3),
			Fanout:       membershipFanout,
			SuspectAfter: m.SuspectAfter,
			RemoveAfter:  m.RemoveAfter,
			Metrics:      n.reg,
		})
		if err != nil {
			return nil, err
		}
		mux := transport.NewMux()
		msvc.Register(mux)
		mux.Bind(ep)
		ep.RegisterActions(n.dispatcher)
		n.msvc, n.view = msvc, msvc
		for _, s := range m.Seeds {
			if s != "" && s != cfg.Address {
				n.seeds = append(n.seeds, s)
			}
		}
	}

	// The delivery plane wraps the data plane only. An opening circuit
	// feeds the failure detector: through K indirect helpers first when a
	// prober is configured (a positive indirect ack means the fault is our
	// link alone — averted, link marked degraded), straight to Suspect
	// otherwise. Probes ride the raw caller for the same reason membership
	// does. Sampling skips open-circuit peers until their half-open probe.
	caller := cfg.Caller
	if cfg.Delivery != nil {
		pc := *cfg.Delivery
		if pc.Caller != nil || pc.Clock != nil || pc.RNG != nil || pc.Metrics != nil || pc.OnPeerDown != nil || pc.OnPeerUp != nil {
			return nil, errors.New("wsgossip: NodeConfig.Delivery must leave Caller, Clock, RNG, Metrics, OnPeerDown and OnPeerUp to the Node")
		}
		pc.Caller, pc.Clock, pc.RNG, pc.Metrics = cfg.Caller, n.clk, rng(4), n.reg
		pc.OnPeerDown = func(peer string) {
			n.log.Debug("delivery: circuit opened", "peer", peer)
			if n.msvc != nil {
				n.msvc.Suspect(peer)
			}
		}
		if n.msvc != nil && cfg.ProbeK != 0 {
			n.prober = probe.New(probe.Config{
				Self:    cfg.Address,
				Caller:  cfg.Caller,
				Clock:   n.clk,
				Peers:   n.msvc,
				K:       cfg.ProbeK,
				Timeout: cfg.ProbeTimeout,
				RNG:     rng(5),
				Metrics: n.reg,
				OnDown: func(peer string) {
					n.log.Debug("probe: no indirect path; confirming down", "peer", peer)
					n.msvc.Suspect(peer)
				},
				OnAverted: func(peer string) {
					n.log.Debug("probe: alive via indirect path; suspicion averted, link degraded", "peer", peer)
				},
			})
			n.prober.RegisterActions(n.dispatcher)
			pc.OnPeerDown = func(peer string) {
				n.log.Debug("delivery: circuit opened; adjudicating indirectly", "peer", peer)
				n.prober.Confirm(peer)
			}
			pc.OnPeerUp = n.prober.ClearDegraded
			n.log.Debug("indirect probing on", "k", cfg.ProbeK)
		}
		n.plane = delivery.NewPlane(pc)
		caller = n.plane
		if n.msvc != nil {
			n.view = n.plane.FilterView(n.msvc)
		}
		n.log.Debug("delivery plane on: per-peer queues, retries, circuit breaking")
	}

	d, err := core.NewDisseminator(core.DisseminatorConfig{
		Address: cfg.Address,
		Caller:  caller,
		App:     cfg.App,
		RNG:     rng(1),
		Peers:   n.view,
		Metrics: n.reg,
		Clock:   n.clk,
	})
	if err != nil {
		return nil, err
	}
	d.RegisterActions(n.dispatcher)
	n.dissem = d

	// Advertise exactly the protocols this stack serves: a node without a
	// value or a query must not be handed out as an aggregation target
	// (push-sum mass sent to it would vanish).
	n.protocols = []string{core.ProtocolPushGossip, core.ProtocolPullGossip}
	// The aggregation participant: what its loop ticks, and the traffic
	// counter and wake hook adaptive pacing uses.
	var aggTick func(context.Context)
	var participant interface {
		ActivityCount() uint64
		OnActivity(func())
	}
	switch {
	case len(cfg.Queries) > 0:
		// The querier activates each query once and re-seeds the anchor
		// weight every window; participants need no configuration — the
		// start flood tells them window and metric, and the shared clock
		// gives every node the same epoch index.
		q, err := aggregate.NewQuerier(aggregate.QuerierConfig{
			Address:    cfg.Address,
			Caller:     caller,
			Activation: cfg.Coordinator,
			Value:      cfg.Value,
			RNG:        rng(2),
			Metrics:    n.reg,
			Clock:      n.clk,
			Peers:      n.view,
		})
		if err != nil {
			return nil, err
		}
		q.RegisterActions(n.dispatcher)
		n.window, err = aggregate.NewWindow(aggregate.WindowConfig{Querier: q, Window: cfg.QueryWindow, Queries: cfg.Queries})
		if err != nil {
			return nil, err
		}
		aggTick, participant = n.window.Tick, q
		names := make([]string, len(cfg.Queries))
		for i, cq := range cfg.Queries {
			names[i] = string(cq.Func) + ":" + cq.Name
		}
		n.log.Debug("continuous cluster queries", "queries", strings.Join(names, ","), "window", cfg.QueryWindow, "every", cfg.AggregateEvery)
	case cfg.Value != nil:
		svc, err := aggregate.NewService(aggregate.ServiceConfig{
			Address: cfg.Address,
			Caller:  caller,
			Value:   cfg.Value,
			RNG:     rng(2),
			Metrics: n.reg,
			Clock:   n.clk,
			Peers:   n.view,
		})
		if err != nil {
			return nil, err
		}
		svc.RegisterActions(n.dispatcher)
		aggTick, participant = svc.Tick, svc
	}
	if participant != nil {
		n.protocols = append(n.protocols, core.ProtocolAggregate)
	}

	// A panicking handler answers with a Receiver fault, counted, instead of
	// unwinding into the binding. Inbound overload shedding sits inside it.
	// Membership is exempt: shedding the failure detector under load would
	// read as node death.
	recoverer := soap.RecoverMiddleware(n.reg)
	n.handler = soap.Chain(n.dispatcher, recoverer)
	if cfg.AdmitRate > 0 {
		gate := delivery.NewGate(delivery.GateConfig{
			Clock:   n.clk,
			Rate:    cfg.AdmitRate,
			Burst:   cfg.AdmitBurst,
			Metrics: n.reg,
			Exempt: func(action string) bool {
				return action == membership.ActionExchange || action == membership.ActionLeave
			},
		})
		n.handler = soap.Chain(n.dispatcher, recoverer, gate.Middleware())
		n.log.Debug("admission gate on", "rate", cfg.AdmitRate)
	}

	// The rounds, in the order the Runner draws their initial phases. Pull,
	// repair and aggregate back off while idle; announce never does (deferred
	// IHAVEs must flush promptly or lazy-push spread stalls here), nor does
	// membership (its exchanges carry the heartbeats failure detection reads).
	loop := func(name string, period time.Duration, tick func(context.Context)) core.Loop {
		return core.Loop{Name: name, Period: period, Jitter: time.Duration(cfg.JitterFrac * float64(period)), Tick: tick}
	}
	adaptive := func(l core.Loop, activity func() uint64) core.Loop {
		if cfg.QuiescentMax > 0 {
			l.MaxPeriod, l.Activity = cfg.QuiescentMax, activity
		}
		return l
	}
	var loops []core.Loop
	if cfg.PullEvery > 0 {
		loops = append(loops, adaptive(loop("pull", cfg.PullEvery, d.TickPull), d.ActivityCount))
	}
	if cfg.RepairEvery > 0 {
		loops = append(loops, adaptive(loop("repair", cfg.RepairEvery, d.TickRepair), d.ActivityCount))
	}
	if cfg.AnnounceEvery > 0 {
		loops = append(loops, loop("announce", cfg.AnnounceEvery, d.TickAnnounce))
	}
	if participant != nil {
		loops = append(loops, adaptive(loop("aggregate", cfg.AggregateEvery, aggTick), participant.ActivityCount))
	}
	if n.msvc != nil && cfg.Membership.Every > 0 {
		loops = append(loops, loop("membership", cfg.Membership.Every, n.msvc.Tick))
	}
	if len(loops) > 0 {
		if n.runner, err = core.NewRunner(core.RunnerConfig{Clock: n.clk, RNG: rng(0), Metrics: n.reg, Loops: loops}); err != nil {
			return nil, err
		}
		// Traffic snaps backed-off rounds to base pace at once; Wake is a
		// no-op until Start.
		if cfg.QuiescentMax > 0 {
			d.OnActivity(n.runner.Wake)
			if participant != nil {
				participant.OnActivity(n.runner.Wake)
			}
		}
	}
	return n, nil
}

// Handler is what the node's binding serves: the dispatcher carrying every
// part's actions, behind the admission gate when one is configured, with a
// handler panic answered as a Receiver fault (soap_handler_panics_total).
func (n *Node) Handler() soap.Handler { return n.handler }

// Dispatcher is the node's action table, for colocating further services
// on its endpoint; nil for a consumer.
func (n *Node) Dispatcher() *soap.Dispatcher { return n.dispatcher }

// Registry is the one registry all of the node's series live in.
func (n *Node) Registry() *metrics.Registry { return n.reg }

// Disseminator is the node's gossip layer; nil for a consumer.
func (n *Node) Disseminator() *Disseminator { return n.dissem }

// Membership is the node's live view; nil without NodeConfig.Membership.
func (n *Node) Membership() *MembershipService { return n.msvc }

// Plane is the node's delivery plane; nil without NodeConfig.Delivery.
func (n *Node) Plane() *DeliveryPlane { return n.plane }

// Prober is the node's indirect prober; nil unless membership, delivery
// and ProbeK are all configured.
func (n *Node) Prober() *Prober { return n.prober }

// PeerView is the view the Disseminator and the aggregation participant
// both sample: the membership view minus open-circuit peers. Nil without
// membership.
func (n *Node) PeerView() PeerView { return n.view }

// Health is the node's /healthz document.
func (n *Node) Health() obs.Health {
	h := obs.Health{Node: n.cfg.Address, Role: n.role}
	if n.dissem != nil {
		h.Activities = n.dissem.ActivityCount()
	}
	if n.msvc != nil {
		h.Peers = n.msvc.Alive()
	}
	if n.runner != nil {
		h.Loops = obs.LoopsFrom(n.runner.LoopStates())
	}
	h.Delivery = obs.DeliveryFrom(n.plane)
	h.Probe = obs.ProbeFrom(n.prober)
	h.Cluster = obs.ClusterFrom(n.window)
	return h
}

// Start launches the node's rounds, joins the membership overlay through
// the seeds and subscribes at the coordinator. It sends nothing itself and
// never waits on the network: join and subscribe are zero-delay timers on
// the node's clock (so the binding can be served right after Start returns,
// and a virtual clock fires them in its first Advance), each retried
// (tolerating any start order) until it succeeds, 30 s pass, or the node
// stops. Cancelling ctx stops rounds and retries as Stop does; Stop must
// still be called to release the delivery plane.
func (n *Node) Start(ctx context.Context) error {
	n.mu.Lock()
	if n.cancel != nil || n.stopped {
		n.mu.Unlock()
		return errors.New("wsgossip: node already started or stopped")
	}
	ctx, n.cancel = context.WithCancel(ctx)
	n.mu.Unlock()
	if n.runner != nil {
		if n.cfg.AnnounceEvery > 0 {
			// IHAVEs now ride the announce loop instead of the receive path.
			n.dissem.DeferAnnouncements()
		}
		if err := n.runner.Start(ctx); err != nil {
			return err
		}
		n.log.Debug("self-clocking rounds", "loops", strings.Join(n.runner.Loops(), ","), "jitter", n.cfg.JitterFrac)
		if n.cfg.QuiescentMax > 0 {
			n.log.Debug("adaptive pacing: idle rounds back off", "max", n.cfg.QuiescentMax)
		}
	}
	if len(n.seeds) > 0 {
		// Join inserts the seeds at heartbeat 0, so "joined" means some
		// member's heartbeat has advanced — only a received exchange does
		// that.
		every := n.cfg.Membership.Every
		n.bootstrap(ctx, every, func(ctx context.Context) bool {
			if !n.joined() {
				n.msvc.Join(ctx, n.seeds)
			}
			if !n.joined() {
				return false
			}
			n.log.Debug("membership joined", "seeds", len(n.seeds), "every", every)
			return true
		}, "membership join got no seed reply; relying on periodic exchanges")
	}
	if n.cfg.Coordinator != "" {
		n.bootstrap(ctx, subscribeRetryEvery, func(ctx context.Context) bool {
			err := core.SubscribeClient(ctx, n.cfg.Caller, n.cfg.Coordinator, n.cfg.Address, n.role, n.protocols...)
			if err != nil {
				n.log.Debug("subscribe retry", "err", err)
				return false
			}
			n.log.Debug("subscribed", "coordinator", n.cfg.Coordinator)
			return true
		}, "subscription failed permanently")
	}
	return nil
}

func (n *Node) joined() bool {
	for _, m := range n.msvc.Members() {
		if m.Heartbeat > 0 {
			return true
		}
	}
	return false
}

// bootstrap runs attempt after a zero delay and then every period on the
// node's clock — as timer callbacks, so a virtual clock fires them
// deterministically inside Advance — until it reports success,
// bootstrapRetryFor has passed (gaveUp is logged), ctx is cancelled, or the
// node stops. Each attempt's context is bounded by bootstrapRetryFor. A zero
// period attempts once.
func (n *Node) bootstrap(ctx context.Context, period time.Duration, attempt func(context.Context) bool, gaveUp string) {
	deadline := n.clk.Now() + bootstrapRetryFor
	var slot int
	var step func()
	step = func() {
		n.mu.Lock()
		n.retries[slot] = nil
		if n.stopped || ctx.Err() != nil {
			n.mu.Unlock()
			return
		}
		n.inflight.Add(1)
		n.mu.Unlock()
		defer n.inflight.Done()
		actx, cancel := context.WithTimeout(ctx, bootstrapRetryFor)
		ok := attempt(actx)
		cancel()
		if ok || period <= 0 {
			return
		}
		if n.clk.Now() >= deadline {
			n.log.Debug(gaveUp)
			return
		}
		n.mu.Lock()
		if !n.stopped {
			n.retries[slot] = n.clk.AfterFunc(period, step)
		}
		n.mu.Unlock()
	}
	n.mu.Lock()
	slot = len(n.retries)
	if !n.stopped {
		n.retries = append(n.retries, n.clk.AfterFunc(0, step))
	}
	n.mu.Unlock()
}

// Stop cancels the bootstrap retries, stops the rounds, closes the prober (an
// open confirmation round is abandoned, not resolved), waits for whatever
// was in flight, and only then closes the delivery plane (a round must not
// find its caller closed under it). It is idempotent, and safe on a node
// that was never started.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	cancel := n.cancel
	for _, stop := range n.retries {
		if stop != nil {
			stop()
		}
	}
	n.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if n.runner != nil {
		n.runner.Stop()
	}
	if n.prober != nil {
		n.prober.Close()
	}
	n.inflight.Wait()
	if n.plane != nil {
		n.plane.Close()
	}
}
