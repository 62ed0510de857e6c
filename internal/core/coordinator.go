package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
	"wsgossip/internal/wscoord"
)

// Subscription is one subscriber known to the Coordinator.
type Subscription struct {
	// Endpoint is the subscriber's notification address.
	Endpoint string
	// Role is RoleDisseminator or RoleConsumer.
	Role string
	// Protocols lists the coordination protocol URIs the subscriber's
	// stack serves. Empty means every protocol (legacy subscribers).
	// Target assignment for a protocol only draws from subscribers that
	// serve it.
	Protocols []string
}

// serves reports whether the subscription is an eligible target for the
// given protocol URI.
func (s Subscription) serves(protocol string) bool {
	if len(s.Protocols) == 0 {
		return true
	}
	for _, p := range s.Protocols {
		if p == protocol {
			return true
		}
	}
	return false
}

// ParamPolicy maps the current subscriber count to gossip parameters. The
// paper's Coordinator "is thus capable of providing adequate parameter
// configurations" — this is that policy, pluggable per deployment.
type ParamPolicy func(subscribers int) (fanout, hops int)

// DefaultParamPolicy returns fanout 3 and hops ceil(log2 n)+2. That does not
// reach everyone: infect-and-die push at a constant fanout f converges to the
// final size z = 1 - e^(-f·z), about 0.940 of the group at f = 3 whatever the
// hop budget, and epidemic.ExpectedCoverage gives 0.950, 0.943 and 0.941 at
// n = 16, 64 and 1000. The other 5–6 % of the subscribers are left to repair
// and pull rounds.
func DefaultParamPolicy(subscribers int) (int, int) {
	if subscribers < 2 {
		return 1, 1
	}
	hops := int(math.Ceil(math.Log2(float64(subscribers)))) + 2
	return 3, hops
}

// CoordinatorStats counts coordinator activity for the load experiments.
type CoordinatorStats struct {
	Subscribes    int64
	Registrations int64
	Activations   int64
	Replications  int64
}

// coordCounters is the registry-backed form of CoordinatorStats plus the
// operational series (prunes, live activities) Stats never carried. Stats()
// reads these same counters, so the struct and the scraped metrics agree.
type coordCounters struct {
	subscribes     *metrics.Counter
	registrations  *metrics.Counter
	activations    *metrics.Counter
	replications   *metrics.Counter
	prunes         *metrics.Counter
	liveActivities *metrics.Gauge
}

func newCoordCounters(reg *metrics.Registry) coordCounters {
	return coordCounters{
		subscribes:     reg.Counter("coord_subscribes_total"),
		registrations:  reg.Counter("coord_registrations_total"),
		activations:    reg.Counter("coord_activations_total"),
		replications:   reg.Counter("coord_replications_total"),
		prunes:         reg.Counter("coord_prunes_total"),
		liveActivities: reg.Gauge("coord_live_activities"),
	}
}

// TargetStrategy selects how the Coordinator assigns gossip targets to
// registrants.
type TargetStrategy int

// Target assignment strategies.
const (
	// TargetBalanced (the default) hands out targets round-robin over the
	// subscription list so every subscriber's in-degree is near-uniform.
	// The Coordinator "knows the entire list of subscribers" (paper,
	// Section 3), and exploiting that removes the low-in-degree tail that
	// random assignment leaves behind.
	TargetBalanced TargetStrategy = iota
	// TargetRandom samples targets uniformly per registration (the classic
	// decentralized behaviour; kept for the assignment ablation).
	TargetRandom
)

// CoordinatorConfig configures a WS-Gossip Coordinator.
type CoordinatorConfig struct {
	// Address is the coordinator's endpoint address.
	Address string
	// Params decides (f, r) per registration; nil uses DefaultParamPolicy.
	Params ParamPolicy
	// TargetsPerRegistrant is how many peers a registration response
	// carries; 0 means twice the fanout, so each forwarding decision
	// samples fresh peers per message ("peers for each gossip round",
	// paper Section 3) instead of re-hitting a fixed neighbour set.
	TargetsPerRegistrant int
	// RNG drives target sampling; nil falls back to a fixed seed.
	RNG *rand.Rand
	// Strategy selects target assignment (default TargetBalanced).
	Strategy TargetStrategy
	// Style selects the dissemination style WS-PushGossip participants are
	// configured with (default push; lazy push trades payload traffic for
	// an extra announce/fetch round-trip).
	Style gossip.Style
	// Caller and Replicas configure a distributed coordinator: every
	// accepted subscription is replicated one-way to each replica address.
	Caller   soap.Caller
	Replicas []string
	// ReplicateActivities marks this coordinator as part of an
	// activity-replicating ensemble: it replicates every created activity
	// to its Replicas one-way, and it accepts activity imports from peers
	// (a coordinator without the flag answers ActionReplicateActivity with
	// a fault, so strangers cannot grow its activity table). Set it on
	// every member of the ensemble. That is what makes a replica a
	// failover successor: registrants that lose the primary
	// mid-interaction can re-register the same coordination context
	// against a replica (see DisseminatorConfig.Coordinators). Off by
	// default — the classic replication carries subscriptions only.
	ReplicateActivities bool
	// Now supplies the coordinator's time source (activity stamps, expiry);
	// nil uses the wall clock. Virtual-time deployments inject the shared
	// clock here.
	Now func() time.Time
	// ActivityTTL stamps a default expiry on activities created without an
	// explicit one, so a pruning loop (Tick) can shed abandoned
	// interactions. 0 keeps them eternal (the classic behaviour).
	ActivityTTL time.Duration
	// Metrics is the registry the coordinator resolves its counters from
	// (coord_subscribes_total, coord_registrations_total,
	// coord_activations_total, coord_replications_total, coord_prunes_total,
	// coord_live_activities); Stats() reads the same series. Nil uses a
	// private registry.
	Metrics *metrics.Registry
}

// assignState is the balanced-assignment rotation for one protocol: a
// shuffled permutation of that protocol's eligible subscribers plus a
// cursor. Keeping the state per protocol lets each protocol's in-degree
// stay near-uniform over its own eligible population.
type assignState struct {
	order  []string
	cursor int
}

// activity is one coordination activity the Coordinator serves: its
// context, and when it was created or imported (where its Expires window
// starts).
type activity struct {
	ctx     wscoord.CoordinationContext
	created time.Time
}

// expired reports whether the activity's Expires window has elapsed at now.
// An activity without Expires never expires.
func (a activity) expired(now time.Time) bool {
	if a.ctx.ExpiresMillis == 0 {
		return false
	}
	return !now.Before(a.created.Add(time.Duration(a.ctx.ExpiresMillis) * time.Millisecond))
}

// Coordinator is the WS-Gossip Coordinator role: WS-Coordination Activation
// and Registration services plus the subscription list.
type Coordinator struct {
	cfg CoordinatorConfig

	mu         sync.Mutex
	rng        *rand.Rand
	activities map[string]activity // context Identifier -> activity
	subs       []Subscription
	index      map[string]int          // endpoint -> position in subs
	assign     map[string]*assignState // protocol URI -> balanced rotation
	stats      coordCounters
}

// NewCoordinator returns a coordinator serving at cfg.Address.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Params == nil {
		cfg.Params = DefaultParamPolicy
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Coordinator{
		cfg:        cfg,
		rng:        rng,
		activities: make(map[string]activity),
		index:      make(map[string]int),
		assign:     make(map[string]*assignState),
		stats:      newCoordCounters(reg),
	}
}

// replicateTimeout bounds how long a single replication send may stall the
// request that caused it when a replica is unreachable: replication exists
// to survive coordinator failure, so a dead replica must not hold the live
// primary's request path for the caller's full timeout.
const replicateTimeout = 2 * time.Second

// replicate best-effort copies one record (a subscription or a created
// activity) to every replica coordinator. Sends are one-way, each bounded
// by replicateTimeout, and deliberately sequential on the request path:
// asynchronous replication would make the delivery order race the virtual
// clock in deterministic deployments, and an activity must reach the
// successors before the registrants who will fail over to them. The
// worst-case stall is replicateTimeout per dead replica, so keep replica
// lists short (one or two is the intended shape). Anti-entropy between
// coordinators would repair gaps in a long-lived deployment.
func (c *Coordinator) replicate(ctx context.Context, action string, body any) {
	if c.cfg.Caller == nil {
		return
	}
	for _, replica := range c.cfg.Replicas {
		env := soap.NewEnvelope()
		if err := env.SetAddressing(addressingFor(replica, action)); err != nil {
			continue
		}
		if err := env.SetBody(body); err != nil {
			continue
		}
		sctx, cancel := context.WithTimeout(ctx, replicateTimeout)
		_ = c.cfg.Caller.Send(sctx, replica, env)
		cancel()
	}
}

// Tick runs one coordinator housekeeping round (activity expiry pruning) —
// the loop shape core.Runner schedules, so a coordinator node's maintenance
// self-clocks exactly like the gossip rounds.
func (c *Coordinator) Tick(context.Context) {
	c.PruneExpired(c.cfg.Now())
}

// PruneExpired removes expired activities at the given instant and returns
// how many were removed.
func (c *Coordinator) PruneExpired(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for id, act := range c.activities {
		if act.expired(now) {
			delete(c.activities, id)
			removed++
		}
	}
	if removed > 0 {
		c.stats.prunes.Add(int64(removed))
	}
	c.stats.liveActivities.Set(int64(len(c.activities)))
	return removed
}

// LiveActivities returns the number of live (unpruned) coordination
// activities.
func (c *Coordinator) LiveActivities() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.activities)
}

// Address returns the coordinator endpoint address.
func (c *Coordinator) Address() string { return c.cfg.Address }

// Handler returns the coordinator's SOAP handler: Activation, Registration,
// Subscribe, and replica ingestion.
func (c *Coordinator) Handler() soap.Handler {
	d := soap.NewDispatcher()
	d.Register(wscoord.ActionCreate, soap.HandlerFunc(c.handleCreate))
	d.Register(wscoord.ActionRegister, soap.HandlerFunc(c.handleRegister))
	d.Register(ActionSubscribe, soap.HandlerFunc(c.handleSubscribe))
	d.Register(ActionReplicate, soap.HandlerFunc(c.handleReplicate))
	d.Register(ActionReplicateActivity, soap.HandlerFunc(c.handleReplicateActivity))
	return d
}

// Stats returns a copy of the activity counters — a view over the same
// registry series an operator scrapes.
func (c *Coordinator) Stats() CoordinatorStats {
	return CoordinatorStats{
		Subscribes:    c.stats.subscribes.Value(),
		Registrations: c.stats.registrations.Value(),
		Activations:   c.stats.activations.Value(),
		Replications:  c.stats.replications.Value(),
	}
}

// Subscribers returns a snapshot of the subscription list.
func (c *Coordinator) Subscribers() []Subscription {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Subscription, len(c.subs))
	copy(out, c.subs)
	return out
}

// SupportedProtocols returns the protocol URIs registrations are accepted
// for, sorted.
func (c *Coordinator) SupportedProtocols() []string {
	return slices.Sorted(maps.Keys(protocolExtensions))
}

// SubscribeLocal records a subscription without a SOAP round-trip (used by
// colocated deployments and tests; the SOAP path ends up here too).
// protocols lists the coordination protocols the subscriber serves; none
// means all.
func (c *Coordinator) SubscribeLocal(ctx context.Context, endpoint, role string, protocols ...string) error {
	if err := c.addSubscription(endpoint, role, protocols, true); err != nil {
		return err
	}
	c.replicate(ctx, ActionReplicate, ReplicateSubscription{Endpoint: endpoint, Role: role, Protocols: protocols})
	return nil
}

func (c *Coordinator) addSubscription(endpoint, role string, protocols []string, countIt bool) error {
	if endpoint == "" {
		return fmt.Errorf("core: subscribe with empty endpoint")
	}
	if role != RoleDisseminator && role != RoleConsumer {
		return fmt.Errorf("core: subscribe with unknown role %q", role)
	}
	for _, p := range protocols {
		if _, ok := protocolExtensions[p]; !ok {
			return fmt.Errorf("core: subscribe advertising unsupported protocol %q", p)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[endpoint]; ok {
		c.subs[i].Role = role
		c.subs[i].Protocols = append([]string(nil), protocols...)
		c.assign = make(map[string]*assignState)
		return nil
	}
	c.index[endpoint] = len(c.subs)
	c.subs = append(c.subs, Subscription{
		Endpoint:  endpoint,
		Role:      role,
		Protocols: append([]string(nil), protocols...),
	})
	if countIt {
		c.stats.subscribes.Inc()
	}
	return nil
}

// Unsubscribe removes an endpoint from the subscription list.
func (c *Coordinator) Unsubscribe(endpoint string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[endpoint]
	if !ok {
		return
	}
	last := len(c.subs) - 1
	c.subs[i] = c.subs[last]
	c.index[c.subs[i].Endpoint] = i
	c.subs = c.subs[:last]
	delete(c.index, endpoint)
	c.assign = make(map[string]*assignState)
}

func (c *Coordinator) handleSubscribe(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	var body SubscribeRequest
	if err := req.Envelope.DecodeBody(&body); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Subscribe: "+err.Error())
	}
	if err := c.addSubscription(body.Endpoint, body.Role, body.Protocols, true); err != nil {
		return nil, soap.NewFault(soap.CodeSender, err.Error())
	}
	c.replicate(ctx, ActionReplicate, ReplicateSubscription{Endpoint: body.Endpoint, Role: body.Role, Protocols: body.Protocols})
	resp := soap.NewEnvelope()
	if err := resp.SetAddressing(req.Addressing().Reply(ActionSubscribeResponse)); err != nil {
		return nil, err
	}
	if err := resp.SetBody(SubscribeResponse{Accepted: true}); err != nil {
		return nil, err
	}
	return resp, nil
}

// handleReplicateActivity imports an activity created at a peer coordinator
// so this replica can serve registrations for it after a failover. Only a
// coordinator opted into the replicating ensemble accepts imports —
// otherwise any sender could grow the activity table without bound.
func (c *Coordinator) handleReplicateActivity(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	if !c.cfg.ReplicateActivities {
		return nil, soap.NewFault(soap.CodeSender, "coordinator does not accept replicated activities")
	}
	var body ReplicateActivity
	if err := req.Envelope.DecodeBody(&body); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed ReplicateActivity: "+err.Error())
	}
	if err := body.Context.Validate(); err != nil {
		return nil, soap.NewFault(soap.CodeSender, err.Error())
	}
	act := activity{ctx: body.Context, created: c.cfg.Now()}
	c.mu.Lock()
	if _, ok := c.activities[act.ctx.Identifier]; !ok {
		c.activities[act.ctx.Identifier] = act
	}
	c.stats.liveActivities.Set(int64(len(c.activities)))
	c.mu.Unlock()
	c.stats.replications.Inc()
	return nil, nil
}

func (c *Coordinator) handleReplicate(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var body ReplicateSubscription
	if err := req.Envelope.DecodeBody(&body); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed ReplicateSubscription: "+err.Error())
	}
	if err := c.addSubscription(body.Endpoint, body.Role, body.Protocols, false); err != nil {
		return nil, soap.NewFault(soap.CodeSender, err.Error())
	}
	c.stats.replications.Inc()
	return nil, nil
}

// CreateActivity starts a gossip coordination activity (Activation service,
// in-process form) with the default expiry, ActivityTTL.
func (c *Coordinator) CreateActivity() wscoord.CoordinationContext {
	return c.createActivity(context.Background(), 0)
}

// createActivity stores a new gossip activity, stamped with expiresMillis or,
// when that is 0, with ActivityTTL, and replicates it to the ensemble
// (ReplicateActivities) before returning its context.
func (c *Coordinator) createActivity(ctx context.Context, expiresMillis uint64) wscoord.CoordinationContext {
	if expiresMillis == 0 {
		expiresMillis = uint64(c.cfg.ActivityTTL / time.Millisecond)
	}
	cctx := wscoord.CoordinationContext{
		Identifier:          string(wsa.NewMessageID()),
		ExpiresMillis:       expiresMillis,
		CoordinationType:    CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: c.cfg.Address},
	}
	act := activity{ctx: cctx, created: c.cfg.Now()}
	c.mu.Lock()
	c.activities[cctx.Identifier] = act
	c.stats.liveActivities.Set(int64(len(c.activities)))
	c.mu.Unlock()
	c.stats.activations.Inc()
	if c.cfg.ReplicateActivities {
		c.replicate(ctx, ActionReplicateActivity, ReplicateActivity{Context: cctx})
	}
	return cctx
}

// handleCreate is the Activation service: it accepts only the gossip
// coordination type.
func (c *Coordinator) handleCreate(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	var body wscoord.CreateCoordinationContext
	if err := req.Envelope.DecodeBody(&body); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed CreateCoordinationContext: "+err.Error())
	}
	if body.CoordinationType != CoordinationTypeGossip {
		return nil, soap.NewFault(soap.CodeSender,
			fmt.Sprintf("unsupported coordination type %q", body.CoordinationType))
	}
	cctx := c.createActivity(ctx, body.ExpiresMillis)
	resp := soap.NewEnvelope()
	if err := resp.SetAddressing(req.Addressing().Reply(wscoord.ActionCreateResponse)); err != nil {
		return nil, err
	}
	if err := resp.SetBody(wscoord.CreateCoordinationContextResponse{CoordinationContext: cctx}); err != nil {
		return nil, err
	}
	return resp, nil
}

// handleRegister is the Registration service: it answers a Register for a
// live activity and a protocol in protocolExtensions with that protocol's
// parameter block as an extra header.
func (c *Coordinator) handleRegister(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var body wscoord.Register
	if err := req.Envelope.DecodeBody(&body); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Register: "+err.Error())
	}
	cctx, err := wscoord.ContextFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, err.Error())
	}
	params, err := c.register(cctx.Identifier, body.ProtocolIdentifier, body.ParticipantProtocolService.Address)
	if err != nil {
		return nil, err
	}
	resp := soap.NewEnvelope()
	if err := resp.SetAddressing(req.Addressing().Reply(wscoord.ActionRegisterResponse)); err != nil {
		return nil, err
	}
	if err := resp.SetBody(wscoord.RegisterResponse{
		CoordinatorProtocolService: wscoord.ServiceRef{Address: c.cfg.Address},
	}); err != nil {
		return nil, err
	}
	if err := resp.AddHeader(params); err != nil {
		return nil, err
	}
	return resp, nil
}

// register admits service to activity id under protocol and returns the
// protocol's parameter block. An unknown activity, an expired one (which
// is forgotten here) and a protocol outside protocolExtensions are Sender
// faults.
func (c *Coordinator) register(id, protocol, service string) (any, error) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	act, ok := c.activities[id]
	if !ok {
		return nil, soap.NewFault(soap.CodeSender, fmt.Sprintf("%v: %s", wscoord.ErrUnknownActivity, id))
	}
	if act.expired(now) {
		delete(c.activities, id)
		c.stats.liveActivities.Set(int64(len(c.activities)))
		return nil, soap.NewFault(soap.CodeSender, fmt.Sprintf("%v: %s (expired)", wscoord.ErrUnknownActivity, id))
	}
	ext, ok := protocolExtensions[protocol]
	if !ok {
		return nil, unsupportedProtocolFault(protocol)
	}
	c.stats.registrations.Inc()
	return ext(c, service), nil
}

// assignLocked computes (fanout, hops) from the parameter policy and hands
// out the registrant's targets among the subscribers eligible for protocol.
func (c *Coordinator) assignLocked(protocol, registrant string) (fanout, hops int, targets []string) {
	eligible := c.eligibleLocked(protocol)
	fanout, hops = c.cfg.Params(len(eligible))
	want := c.cfg.TargetsPerRegistrant
	if want <= 0 {
		want = 2 * fanout
	}
	if c.cfg.Strategy == TargetRandom {
		targets = gossip.SamplePeers(c.rng, eligible, want, registrant)
	} else {
		targets = c.balancedTargetsLocked(protocol, eligible, want, registrant)
	}
	return fanout, hops, targets
}

// eligibleLocked lists the endpoints of subscribers serving protocol,
// sorted (deterministic base for both strategies).
func (c *Coordinator) eligibleLocked(protocol string) []string {
	out := make([]string, 0, len(c.subs))
	for _, s := range c.subs {
		if s.serves(protocol) {
			out = append(out, s.Endpoint)
		}
	}
	sort.Strings(out)
	return out
}

// balancedTargetsLocked hands out want targets by rotating a cursor over a
// shuffled permutation of the protocol's eligible subscribers, skipping the
// registrant. Across registrations every eligible subscriber is assigned as
// a target equally often (±1) — removing the low-in-degree tail that
// per-registration random sampling produces — while consecutive chunks of a
// random permutation keep the dissemination graph expander-like (contiguous
// chunks of the *sorted* list would form a ring whose diameter exhausts the
// hop budget).
func (c *Coordinator) balancedTargetsLocked(protocol string, eligible []string, want int, exclude string) []string {
	st := c.assign[protocol]
	if st == nil || len(st.order) != len(eligible) {
		st = &assignState{order: append([]string(nil), eligible...)}
		c.rng.Shuffle(len(st.order), func(i, j int) {
			st.order[i], st.order[j] = st.order[j], st.order[i]
		})
		c.assign[protocol] = st
	}
	avail := len(st.order)
	for _, a := range st.order {
		if a == exclude {
			avail--
			break
		}
	}
	if want > avail {
		want = avail
	}
	if want <= 0 || len(st.order) == 0 {
		return nil
	}
	out := make([]string, 0, want)
	scanned := 0
	i := st.cursor
	for len(out) < want && scanned < len(st.order)+want {
		a := st.order[i%len(st.order)]
		i++
		scanned++
		if a == exclude {
			continue
		}
		out = append(out, a)
	}
	st.cursor = i % len(st.order)
	return out
}
