package core

import (
	"context"
	"encoding/xml"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// DisseminatorStats counts the gossip layer's activity at one node.
type DisseminatorStats struct {
	// Received counts notifications that reached the gossip layer.
	Received int64
	// Delivered counts unique notifications handed to the application.
	Delivered int64
	// Duplicates counts suppressed re-receipts.
	Duplicates int64
	// Forwarded counts copies re-routed to peers.
	Forwarded int64
	// Registrations counts first-contact registrations with a Registration
	// service.
	Registrations int64
	// SendErrors counts failed forwards (tolerated by redundancy).
	SendErrors int64
	// Announced counts lazy-push IHAVE messages sent.
	Announced int64
	// Fetched counts lazy-push IWANT requests issued.
	Fetched int64
	// Served counts stored notifications served to fetchers.
	Served int64
	// DigestsSent counts anti-entropy digests issued by TickRepair.
	DigestsSent int64
	// Repaired counts notifications retransmitted in response to digests.
	Repaired int64
	// PullsSent counts WS-PullGossip digest requests issued by TickPull.
	PullsSent int64
	// PullServed counts notifications retransmitted in response to pull
	// requests.
	PullServed int64
	// Refused counts refusals sent: each answers a bare copy of a
	// notification of an interaction the node does not hold.
	Refused int64
	// Refusals counts refusals received.
	Refusals int64
}

// counters is the live, lock-free form of DisseminatorStats. Every field is
// a registry-resolved counter — the same atomic.Int64 underneath the old
// private atomics, so the fan-out hot path still bumps one atomic per send
// — and Stats() is now a view over the node's metric plane: the numbers an
// operator scrapes from /metrics and the numbers Stats reports cannot
// drift. The send and retransmit counters are children of per-protocol
// labeled families, pre-resolved here so the hot path never touches a map.
type counters struct {
	received      *metrics.Counter
	delivered     *metrics.Counter
	duplicates    *metrics.Counter
	forwarded     *metrics.Counter // gossip_sends_total{protocol="push"}
	registrations *metrics.Counter
	sendErrors    *metrics.Counter
	announced     *metrics.Counter // gossip_sends_total{protocol="lazypush"}
	fetched       *metrics.Counter
	served        *metrics.Counter // gossip_retransmits_total{protocol="lazypush"}
	digestsSent   *metrics.Counter // gossip_sends_total{protocol="repair"}
	repaired      *metrics.Counter // gossip_retransmits_total{protocol="repair"}
	pullsSent     *metrics.Counter // gossip_sends_total{protocol="pull"}
	pullServed    *metrics.Counter // gossip_retransmits_total{protocol="pull"}
	failovers     *metrics.Counter // registrations served by a successor coordinator
	annDropped    *metrics.Counter // deferred announcements beyond gossip.QueueCap
	refused       *metrics.Counter // gossip_refusals_total{side="sent"}
	refusals      *metrics.Counter // gossip_refusals_total{side="received"}
	fanoutSeconds *metrics.BucketHistogram
}

// newCounters resolves the gossip-layer series from reg.
func newCounters(reg *metrics.Registry) counters {
	sends := reg.CounterVec("gossip_sends_total", "protocol")
	retransmits := reg.CounterVec("gossip_retransmits_total", "protocol")
	refusals := reg.CounterVec("gossip_refusals_total", "side")
	return counters{
		received:      reg.Counter("gossip_received_total"),
		delivered:     reg.Counter("gossip_delivered_total"),
		duplicates:    reg.Counter("gossip_duplicates_total"),
		registrations: reg.Counter("gossip_registrations_total"),
		sendErrors:    reg.Counter("gossip_send_errors_total"),
		fetched:       reg.Counter("gossip_fetches_total"),
		failovers:     reg.Counter("gossip_failover_registrations_total"),
		annDropped:    reg.Counter("gossip_announce_dropped_total"),
		forwarded:     sends.With("push"),
		announced:     sends.With("lazypush"),
		pullsSent:     sends.With("pull"),
		digestsSent:   sends.With("repair"),
		served:        retransmits.With("lazypush"),
		pullServed:    retransmits.With("pull"),
		repaired:      retransmits.With("repair"),
		refused:       refusals.With("sent"),
		refusals:      refusals.With("received"),
		fanoutSeconds: reg.BucketHistogram("gossip_fanout_seconds", metrics.DefLatencyBuckets),
	}
}

func (c *counters) snapshot() DisseminatorStats {
	return DisseminatorStats{
		Received:      c.received.Value(),
		Delivered:     c.delivered.Value(),
		Duplicates:    c.duplicates.Value(),
		Forwarded:     c.forwarded.Value(),
		Registrations: c.registrations.Value(),
		SendErrors:    c.sendErrors.Value(),
		Announced:     c.announced.Value(),
		Fetched:       c.fetched.Value(),
		Served:        c.served.Value(),
		DigestsSent:   c.digestsSent.Value(),
		Repaired:      c.repaired.Value(),
		PullsSent:     c.pullsSent.Value(),
		PullServed:    c.pullServed.Value(),
		Refused:       c.refused.Value(),
		Refusals:      c.refusals.Value(),
	}
}

// DisseminatorConfig configures a Disseminator node.
type DisseminatorConfig struct {
	// Address is the node's endpoint address.
	Address string
	// Caller sends SOAP messages (forwards and registrations).
	Caller soap.Caller
	// App is the application service the gossip layer wraps. It receives
	// each unique notification exactly once. May be nil for pure relays.
	App soap.Handler
	// RNG drives peer selection; nil falls back to a fixed seed.
	RNG *rand.Rand
	// Peers, when set, is the live peer view consulted at sample time for
	// every fan-out (forward, announce, repair, pull) in place of the
	// frozen coordinator-assigned target lists; the static lists remain the
	// fallback while the view is empty (membership bootstrap). Nil keeps
	// the classic coordinator-fed behaviour.
	Peers PeerView
	// Coordinators lists successor Registration service addresses tried in
	// order when first-contact registration at the coordination context's
	// primary service fails — the coordinator-failover path. The successors
	// must know the activity (see CoordinatorConfig.ReplicateActivities).
	Coordinators []string
	// SeenCacheSize bounds the duplicate-suppression cache (0 = default).
	SeenCacheSize int
	// StoreSize bounds the retained notifications that serve lazy-push
	// fetches and answer repair and pull digests (0 = 1024).
	StoreSize int
	// Metrics is the registry the gossip layer resolves its counters from;
	// Stats() reads the same series. Nil uses a private registry, so the
	// layer is always instrumented. Sharing one registry between several
	// disseminators in a process merges their counts — give each node its
	// own registry when per-node numbers matter.
	Metrics *metrics.Registry
	// Clock supplies timestamps for the fan-out latency histogram; on a
	// virtual clock the histogram is deterministic. Nil uses wall time.
	Clock clock.Clock
}

// interactionState caches the parameters the Coordinator assigned for one
// gossip interaction, and the style they select, parsed once. id is the
// InteractionID the state is kept under: a received or served notification of
// the interaction takes its header's InteractionID from here instead of
// copying it out of the message.
//
// context is the interaction's CoordinationContext header block, kept once,
// and given the peers this node has handed a copy carrying it (see forward):
// a copy to one of them goes bare. A peer joins given when a copy with the
// context to it is a send the binding reported done, and leaves it when it
// refuses a bare copy (handleRefuse). The node's own successful sends are
// the only evidence: no message from a peer adds one, so a forged message
// can cost a peer the context at most until its next refusal. given holds at
// most maxGiven peers; a copy to any other carries the context. A state with
// no context block (one built by hand) forwards a copy's own context as
// received. given is guarded by the Disseminator's mu.
type interactionState struct {
	id      string
	params  GossipParameters
	style   gossip.Style
	context soap.Block
	given   map[string]struct{}
}

// maxGiven bounds an interaction's given peers.
const maxGiven = 1024

// newInteractionState parses the style of the interaction id, registered for
// protocol: WS-PullGossip is pull whatever the parameters say, and an unknown
// style is push.
func newInteractionState(id, protocol string, params GossipParameters) *interactionState {
	style, err := gossip.ParseStyle(params.Style)
	switch {
	case protocol == ProtocolPullGossip:
		style = gossip.StylePull
	case err != nil:
		style = gossip.StylePush
	}
	return &interactionState{id: id, params: params, style: style}
}

// bareLocked returns which of targets were handed the context, as a mask in
// target order: their copies go bare. Only the first 64 targets can be.
// Caller holds d.mu.
func (s *interactionState) bareLocked(targets []string) (mask uint64) {
	for i, t := range targets[:min(len(targets), 64)] {
		if _, ok := s.given[t]; ok {
			mask |= 1 << i
		}
	}
	return mask
}

// contextName is the name of the context block s writes on each copy, which
// a stored copy therefore leaves out; zero for a nil state or one without a
// context block, whose stored copies keep their own.
func (s *interactionState) contextName() xml.Name {
	if s == nil || s.context.Raw == nil {
		return xml.Name{}
	}
	return s.context.XMLName
}

// giveLocked records that peer was sent a copy carrying the context. Caller
// holds d.mu.
func (s *interactionState) giveLocked(peer string) {
	if s.given == nil {
		s.given = make(map[string]struct{})
	}
	if len(s.given) < maxGiven {
		s.given[peer] = struct{}{}
	}
}

// defaultStoreSize is the store's capacity when DisseminatorConfig.StoreSize
// is zero.
const defaultStoreSize = 1024

// Disseminator is the paper's Disseminator role: application code untouched,
// but the middleware stack carries an extra handler — the gossip layer —
// that intercepts notifications and re-routes them to selected destinations.
// It is a SOAP binding of gossip.Machine: the machine decides, and the
// Disseminator decodes, registers on first contact, draws targets, encodes
// and sends.
type Disseminator struct {
	cfg      DisseminatorConfig
	register *wscoord.RegistrationClient
	// wake, when set (Runner adaptive mode), runs on every gossip intake so
	// quiescence-backed-off rounds snap back to their base period.
	wake atomic.Pointer[func()]

	mu           sync.Mutex
	rng          *rand.Rand
	m            gossip.Machine[*stored]
	interactions map[string]*interactionState
	// live is the buffer a live view draws targets into (SelectTargets).
	live     []string
	deferAnn bool
	// keys are the interactions' keys, sorted, for the digest rounds; they
	// are sorted anew only when an interaction was added.
	keys []string
	// unspread holds the sums of notifications whose first receipt the node
	// delivered but could not spread, holding no interaction state, oldest
	// first and at most unspreadCap: a later copy that brings the state
	// spreads one of them once (intercept).
	unspread []uint64
	stats    counters
	now      func() time.Duration
}

// unspreadCap bounds Disseminator.unspread: past it the oldest entry is
// forgotten, and its notification stays unspread here.
const unspreadCap = 64

// NewDisseminator returns a disseminator node.
func NewDisseminator(cfg DisseminatorConfig) (*Disseminator, error) {
	if cfg.Address == "" || cfg.Caller == nil {
		return nil, fmt.Errorf("core: disseminator config requires address and caller")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	storeSize := cfg.StoreSize
	if storeSize <= 0 {
		storeSize = defaultStoreSize
	}
	return &Disseminator{
		cfg:          cfg,
		register:     wscoord.NewRegistrationClient(cfg.Caller, cfg.Address),
		rng:          rng,
		m:            gossip.NewMachine[*stored](cfg.SeenCacheSize, storeSize, 0),
		interactions: make(map[string]*interactionState),
		stats:        newCounters(reg),
		now:          clk.Now,
	}, nil
}

// Address returns the node's endpoint address.
func (d *Disseminator) Address() string { return d.cfg.Address }

// Stats returns a copy of the gossip-layer counters. Each counter is read
// atomically, but the fields are loaded independently: under concurrent
// updates the copy may be mutually inconsistent for an instant (e.g.
// Received already bumped while Delivered still lags).
func (d *Disseminator) Stats() DisseminatorStats {
	return d.stats.snapshot()
}

// ActivityCount is a monotonic counter of gossip traffic at this node:
// notifications taken in plus payloads and repairs served to peers. An
// adaptive Runner samples it each round — an unchanged count between two
// fires means the interval was quiescent and the round period may back off.
func (d *Disseminator) ActivityCount() uint64 {
	return uint64(d.stats.received.Value()) +
		uint64(d.stats.fetched.Value()) +
		uint64(d.stats.served.Value()) +
		uint64(d.stats.repaired.Value()) +
		uint64(d.stats.pullServed.Value())
}

// OnActivity registers fn to run whenever ActivityCount advances — the
// snap-back half of adaptive pacing: an adaptive Runner installs its Wake
// here so backed-off loops reschedule as soon as traffic returns instead of
// sleeping out a maximum-length quiescent period. One callback; nil clears.
func (d *Disseminator) OnActivity(fn func()) {
	if fn == nil {
		d.wake.Store(nil)
		return
	}
	d.wake.Store(&fn)
}

// bumpActivity runs the registered activity callback, if any. Call it after
// the corresponding counter increment and outside d.mu.
func (d *Disseminator) bumpActivity() {
	if fn := d.wake.Load(); fn != nil {
		(*fn)()
	}
}

// Handler returns the node's SOAP handler: the application service wrapped
// by the gossip layer middleware on the notify action.
func (d *Disseminator) Handler() soap.Handler {
	dispatcher := soap.NewDispatcher()
	d.RegisterActions(dispatcher)
	return dispatcher
}

// RegisterActions installs the gossip-layer actions on an existing
// dispatcher, for stacks that colocate further services (e.g. an
// aggregation participant) on one endpoint.
func (d *Disseminator) RegisterActions(dispatcher *soap.Dispatcher) {
	dispatcher.Register(ActionNotify, soap.HandlerFunc(d.intercept))
	dispatcher.Register(ActionIHave, soap.HandlerFunc(d.handleIHave))
	dispatcher.Register(ActionIWant, soap.HandlerFunc(d.handleIWant))
	dispatcher.Register(ActionDigest, soap.HandlerFunc(d.handleDigest))
	dispatcher.Register(ActionPullRequest, soap.HandlerFunc(d.handlePullRequest))
	dispatcher.Register(ActionRefuse, soap.HandlerFunc(d.handleRefuse))
}

// intercept is the gossip layer on the notify action: dedup, first-contact
// registration, local delivery to cfg.App, and re-routing as the machine
// decides. A bare copy of an interaction the node does not hold — its first
// copy lost, its registration failed, or the node restarted at the same
// address — is delivered and refused (refuse), first receipt or duplicate,
// and its sum kept in d.unspread: the first later copy that finds the
// interaction held, or brings its context, spreads it as a first receipt
// would have.
func (d *Disseminator) intercept(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	block, ok := req.Envelope.HeaderBlock(Namespace, "Gossip")
	if !ok {
		// Not a gossiped message: hand it to the application untouched.
		return d.deliver(ctx, req)
	}
	// The header is read in place — views over the request bytes, no
	// allocation — and the machine asked with the sum of the MessageID as it
	// lies there, and the interaction looked up with its ID there too. Most
	// receipts are duplicates and stop at that; a first receipt builds no
	// MessageID either: the store keeps a copy of the envelope, and a forward
	// writes the ID from the view. A header the byte-level reader declines is
	// decoded up front.
	interaction, n, from, err := readNotice(req.Envelope, block)
	if err != nil {
		return d.deliver(ctx, req) // malformed header: not gossip either
	}
	sum := gossip.IDSum(n.messageID)
	d.stats.received.Add(1)
	d.bumpActivity()
	d.mu.Lock()
	first, t := d.m.Receive(sum, false)
	state := d.interactions[string(interaction)]
	if first {
		d.retainLocked(sum, req.Envelope, state)
	}
	// A duplicate of a notification left unspread spreads now if the node
	// has since taken the interaction, or if this copy carries the context
	// to take it from: one attempt per notification, whatever it costs.
	late := !first && len(d.unspread) > 0 &&
		(state != nil || hasContext(req.Envelope)) && d.takeUnspreadLocked(sum)
	d.mu.Unlock()
	if !first {
		d.stats.duplicates.Add(1)
	}
	if !first && !late {
		if state == nil {
			d.refuse(ctx, req.Envelope, interaction, from)
		}
		// Counter mongering: a duplicate of a rumor still being mongered
		// bursts it again.
		d.spread(ctx, req.Envelope, n, state, t)
		return nil, nil
	}

	if state == nil {
		if state, err = d.registerInteraction(ctx, req.Envelope, string(interaction), n.protocol); err != nil {
			// Without parameters the node still consumes the message; it
			// just cannot forward. This degrades, not fails, matching the
			// epidemic model's tolerance for non-cooperating nodes.
			state = nil
		}
	}
	var appErr error
	if first {
		d.stats.delivered.Add(1)
		// Gossiped notifications are one-way: the application's response
		// is suppressed on the gossip path.
		_, appErr = d.deliver(ctx, req)
	}

	if state == nil {
		if first {
			d.mu.Lock()
			if len(d.unspread) == unspreadCap {
				d.unspread = append(d.unspread[:0], d.unspread[1:]...)
			}
			d.unspread = append(d.unspread, sum)
			d.mu.Unlock()
		}
		d.refuse(ctx, req.Envelope, interaction, from)
		return nil, appErr
	}
	d.mu.Lock()
	t = d.m.Spread(sum, state.style, n.hops, false)
	d.mu.Unlock()
	d.spread(ctx, req.Envelope, n, state, t)
	return nil, appErr
}

// takeUnspreadLocked removes sum from d.unspread and reports whether it was
// there. Caller holds d.mu.
func (d *Disseminator) takeUnspreadLocked(sum uint64) bool {
	i := slices.Index(d.unspread, sum)
	if i < 0 {
		return false
	}
	d.unspread = slices.Delete(d.unspread, i, i+1)
	return true
}

// hasContext reports whether env carries a coordination context header.
func hasContext(env *soap.Envelope) bool {
	_, ok := env.HeaderBlock(wscoord.Namespace, "CoordinationContext")
	return ok
}

// stored is one store slot: a retained notification, kept so fetches and
// digests can be served later, as a copy that is refilled in place when its
// entry is evicted. refs counts the serves reading the copy; the slot is
// refilled only while it is zero. Both refs and the refill are guarded by
// d.mu.
type stored struct {
	soap.Retained
	refs int
}

// retainLocked keeps a copy of env, the first receipt of the notification
// whose ID's sum is sum, of the interaction state holds (nil for one the
// node does not hold yet). The copy leaves out a context the state holds: a
// serve writes the state's (forward). The store outlives this delivery, whose
// inbound buffer the transport recycles once the handler returns, so the one
// retention point in the stack copies what a retransmission reads (see
// soap.Retained). Once the store is full the copy refills the slot of the
// entry it evicts, unless a serve is still reading that one, which is then
// left to the GC. A notification the store already holds — the seen cache
// may have forgotten it first — keeps its copy, and the evictee is another
// entry's. The copy, about a kilobyte, is made under d.mu: it is paid once
// per unique message, duplicates, the bulk of gossip traffic, never get
// here, and a refill must not overlap the serves that check refs.
func (d *Disseminator) retainLocked(sum uint64, env *soap.Envelope, state *interactionState) {
	if _, held := d.m.Get(sum); held {
		return
	}
	slot, ok := d.m.Evictee()
	if !ok || slot.refs > 0 {
		slot = new(stored)
	}
	slot.Retain(env, state.contextName())
	d.m.Hold(sum, slot)
}

func (d *Disseminator) deliver(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	if d.cfg.App == nil {
		return nil, nil
	}
	return d.cfg.App.HandleSOAP(ctx, req)
}

// registerInteraction performs the paper's first-contact handshake: "If
// this is an unknown gossip interaction, it registers itself with the
// Registration service, thus obtaining gossip targets to which it will
// forward the message."
func (d *Disseminator) registerInteraction(ctx context.Context, env *soap.Envelope, interaction, protocol string) (*interactionState, error) {
	cctx, err := wscoord.ContextFrom(env)
	if err != nil {
		return nil, fmt.Errorf("core: gossiped message without coordination context: %w", err)
	}
	if protocol == "" {
		protocol = ProtocolPushGossip
	}
	// Cache under the header's interaction ID — the key intercept looks
	// up — even if a sender's coordination-context identifier differs.
	return d.registerProtocol(ctx, cctx, protocol, interaction)
}

// registerProtocol performs the Register call for one (interaction,
// protocol) pair and caches the returned parameters under cacheKey, with the
// context's header block, the one copy every forward writes it from. When
// the context's primary Registration service is unreachable, the configured
// successor coordinators are tried in order (coordinator failover): the
// coordination context is re-aimed at each successor, which can serve the
// registration if the activity was replicated to it.
func (d *Disseminator) registerProtocol(ctx context.Context, cctx wscoord.CoordinationContext, protocol, cacheKey string) (*interactionState, error) {
	resp, err := d.register.Register(ctx, cctx, protocol, d.cfg.Address)
	for _, successor := range d.cfg.Coordinators {
		if err == nil {
			break
		}
		if successor == cctx.RegistrationService.Address {
			continue
		}
		retry := cctx
		retry.RegistrationService.Address = successor
		resp, err = d.register.Register(ctx, retry, protocol, d.cfg.Address)
		if err == nil {
			d.stats.failovers.Inc()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: register interaction %s: %w", cctx.Identifier, err)
	}
	params, err := GossipParametersFrom(resp)
	if err != nil {
		return nil, fmt.Errorf("core: registration response without parameters: %w", err)
	}
	state := newInteractionState(cacheKey, protocol, params)
	if block, err := wscoord.ContextBlock(cctx); err == nil {
		state.context = block
	}
	d.mu.Lock()
	d.interactions[cacheKey] = state
	d.mu.Unlock()
	d.stats.registrations.Add(1)
	return state, nil
}

// JoinInteraction proactively registers the disseminator with an
// interaction's Registration service for the given protocol. Pull-driven
// deployments use it: a pure puller never receives an eager first contact,
// so it joins explicitly and then draws the content through TickPull.
func (d *Disseminator) JoinInteraction(ctx context.Context, cctx wscoord.CoordinationContext, protocol string) error {
	d.mu.Lock()
	_, known := d.interactions[cctx.Identifier]
	d.mu.Unlock()
	if known {
		return nil
	}
	_, err := d.registerProtocol(ctx, cctx, protocol, cctx.Identifier)
	return err
}

// spread carries out the machine's decision t for a notification of the
// interaction state: an IHAVE naming it — queued for the next announce round
// while announcements are deferred (dropped and counted when the queue is
// full), else announced now as a round of one — or env's payload re-headed,
// at the hop budget t sets, to targets drawn from the live peer view when one
// is installed (and non-empty), else from the interaction's
// coordinator-assigned static list, into a buffer on the stack.
func (d *Disseminator) spread(ctx context.Context, env *soap.Envelope, n notice, state *interactionState, t gossip.Transfer) {
	switch {
	case state == nil || t.Send == gossip.SendNothing:
		return
	case t.Send == gossip.SendAnnounce:
		var r *gossip.Round
		d.mu.Lock()
		queued := d.m.Queue(t, n.messageID, n.hops, state.params.Fanout, state.id, state.params.Targets)
		if !d.deferAnn {
			r = d.m.AnnounceRound(d.drawLocked, false)
		}
		d.mu.Unlock()
		if !queued {
			d.stats.annDropped.Inc()
		}
		d.announce(ctx, r)
		return
	}
	var scratch [16]string
	d.mu.Lock()
	targets := SelectTargets(scratch[:], &d.live, d.cfg.Peers, d.rng, t.Peers(state.params.Fanout), d.cfg.Address, state.params.Targets)
	d.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	n.hops = t.Hops(n.hops)
	start := d.now()
	sent, failed := d.forward(ctx, env, state, n, false, targets)
	d.stats.forwarded.Add(int64(d.fanned(start, sent, failed)))
}

// forward is the one way a notification travels on: a copy of env re-headed
// for another transfer — a gossip header naming state's interaction and
// carrying n, the notify action and the notification's own MessageID, written
// from n's bytes — sent to targets through soap.Forward. direct marks a
// retransmission to one peer (soap.Rehead.Direct).
//
// The copy's coordination context is the state's: env's own is left out. A
// target in the state's given peers gets a bare copy, without the context
// and naming this node in the gossip header's From; every other target gets
// the context, and each such copy the binding reports sent adds the target
// to given. Targets are sent in order, each run of alike copies through one
// soap.Forward. A state without a context block (an unknown interaction's, or
// one built by hand) forwards env's context as it is. The gossip header is
// written into scratch on the stack; soap.Forward copies it where it goes.
func (d *Disseminator) forward(ctx context.Context, env *soap.Envelope, state *interactionState, n notice, direct bool, targets []string) (sent int, failed []string) {
	var scratch [512]byte
	rh := soap.Rehead{Name: gossipName, Action: ActionNotify, ID: n.messageID, Direct: direct}
	if state.context.Raw == nil {
		return soap.Forward(ctx, d.cfg.Caller, env, rh, appendGossipBlock(scratch[:0], state.id, n.hops, n.protocol, ""), targets)
	}
	rh.Lead.XMLName = state.context.XMLName
	d.mu.Lock()
	bare := state.bareLocked(targets)
	d.mu.Unlock()
	for len(targets) > 0 {
		k, isBare := 1, bare&1 != 0
		for k < len(targets) && (bare>>k&1 != 0) == isBare {
			k++
		}
		from, lead := "", state.context.Raw
		if isBare {
			from, lead = d.cfg.Address, nil
		}
		rh.Lead.Raw = lead
		s, f := soap.Forward(ctx, d.cfg.Caller, env, rh, appendGossipBlock(scratch[:0], state.id, n.hops, n.protocol, from), targets[:k])
		if !isBare && s > 0 {
			d.mu.Lock()
			for _, t := range targets[:k] {
				if !slices.Contains(f, t) {
					state.giveLocked(t)
				}
			}
			d.mu.Unlock()
		}
		sent, failed = sent+s, append(failed, f...)
		targets, bare = targets[k:], bare>>k
	}
	return sent, failed
}

// fanned accounts for one fan-out begun at start: its latency, and a send
// error per failed target. It returns sent.
func (d *Disseminator) fanned(start time.Duration, sent int, failed []string) int {
	d.stats.fanoutSeconds.Observe((d.now() - start).Seconds())
	if len(failed) > 0 {
		d.stats.sendErrors.Add(int64(len(failed)))
	}
	return sent
}
