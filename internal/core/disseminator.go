package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
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
	fanoutSeconds *metrics.BucketHistogram
}

// newCounters resolves the gossip-layer series from reg.
func newCounters(reg *metrics.Registry) counters {
	sends := reg.CounterVec("gossip_sends_total", "protocol")
	retransmits := reg.CounterVec("gossip_retransmits_total", "protocol")
	return counters{
		received:      reg.Counter("gossip_received_total"),
		delivered:     reg.Counter("gossip_delivered_total"),
		duplicates:    reg.Counter("gossip_duplicates_total"),
		registrations: reg.Counter("gossip_registrations_total"),
		sendErrors:    reg.Counter("gossip_send_errors_total"),
		fetched:       reg.Counter("gossip_fetches_total"),
		failovers:     reg.Counter("gossip_failover_registrations_total"),
		forwarded:     sends.With("push"),
		announced:     sends.With("lazypush"),
		pullsSent:     sends.With("pull"),
		digestsSent:   sends.With("repair"),
		served:        retransmits.With("lazypush"),
		pullServed:    retransmits.With("pull"),
		repaired:      retransmits.With("repair"),
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
	// StoreSize bounds the retained notification envelopes that serve
	// lazy-push fetches (0 = 1024).
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
	// Intern, when set, deduplicates the retained envelope clones that
	// serve lazy-push fetches: nodes sharing one Interner (a simulated
	// cluster) hold a single deep copy per (message, hop count) instead of
	// one per store. Stored envelopes are only ever read via Snapshot, so
	// sharing is safe. Nil keeps private per-store clones.
	Intern *soap.Interner
}

// interactionState caches the protocol and parameters the Coordinator
// assigned for one gossip interaction.
type interactionState struct {
	protocol string
	params   GossipParameters
}

// pull reports whether the interaction spreads through pull rounds only.
func (s *interactionState) pull() bool {
	return s.protocol == ProtocolPullGossip || s.params.Style == gossip.StylePull.String()
}

// Disseminator is the paper's Disseminator role: application code untouched,
// but the middleware stack carries an extra handler — the gossip layer —
// that intercepts notifications and re-routes them to selected destinations.
type Disseminator struct {
	cfg      DisseminatorConfig
	register *wscoord.RegistrationClient
	// wake, when set (Runner adaptive mode), runs on every gossip intake so
	// quiescence-backed-off rounds snap back to their base period.
	wake atomic.Pointer[func()]

	mu           sync.Mutex
	rng          *rand.Rand
	seen         *gossip.SeenSet
	interactions map[string]*interactionState
	store        *envelopeStore
	requested    map[string]struct{}
	deferAnn     bool
	pendingAnn   []pendingAnnounce
	stats        counters
	now          func() time.Duration
}

// pendingAnnounce is one lazy-push advertisement queued for the next
// announce round (deferred mode, see DeferAnnouncements).
type pendingAnnounce struct {
	gh    GossipHeader
	state *interactionState
}

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
	return &Disseminator{
		cfg:          cfg,
		register:     wscoord.NewRegistrationClient(cfg.Caller, cfg.Address),
		rng:          rng,
		seen:         gossip.NewSeenSet(cfg.SeenCacheSize),
		interactions: make(map[string]*interactionState),
		store:        newEnvelopeStore(cfg.StoreSize),
		requested:    make(map[string]struct{}),
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

// sampleTargetsLocked draws up to n fan-out targets for one interaction:
// from the live peer view when one is installed (and non-empty), else from
// the interaction's coordinator-assigned static list. Callers hold d.mu,
// which guards the rng.
func (d *Disseminator) sampleTargetsLocked(n int, static []string) []string {
	return SelectTargets(d.cfg.Peers, d.rng, n, d.cfg.Address, static)
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
	dispatcher.Register(ActionNotify, soap.HandlerFunc(d.handleNotify))
	dispatcher.Register(ActionIHave, soap.HandlerFunc(d.handleIHave))
	dispatcher.Register(ActionIWant, soap.HandlerFunc(d.handleIWant))
	dispatcher.Register(ActionDigest, soap.HandlerFunc(d.handleDigest))
	dispatcher.Register(ActionPullRequest, soap.HandlerFunc(d.handlePullRequest))
}

// Middleware returns the gossip layer as a reusable soap.Middleware, for
// stacks that compose their own handler chains.
func (d *Disseminator) Middleware() soap.Middleware {
	return func(next soap.Handler) soap.Handler {
		return soap.HandlerFunc(func(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
			return d.intercept(ctx, req, next)
		})
	}
}

func (d *Disseminator) handleNotify(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	return d.intercept(ctx, req, d.cfg.App)
}

// intercept implements the gossip layer: dedup, first-contact registration,
// local delivery, and hop-bounded re-routing.
func (d *Disseminator) intercept(ctx context.Context, req *soap.Request, app soap.Handler) (*soap.Envelope, error) {
	block, ok := req.Envelope.HeaderBlock(Namespace, "Gossip")
	if !ok {
		// Not a gossiped message: hand it to the application untouched.
		return d.deliver(ctx, req, app)
	}
	// Most receipts are duplicates, so the header is first read in place —
	// views over the request bytes, no allocation — and the seen-set asked
	// with the MessageID bytes; the header's strings are built (as copies:
	// the receive buffer is recycled after this delivery) only when that
	// misses. A header the byte-level reader declines, or whose MessageID is
	// escaped, is decoded up front as before. The seen-set locks itself, so
	// the duplicate check runs outside d.mu; the Add that admits a first
	// receipt stays under it, with the requested-set update it is atomic with.
	var gh GossipHeader
	fields, inPlace := scanGossipHeader(block.Raw)
	if inPlace = inPlace && fields.messageID.IsLiteral(); !inPlace {
		var err error
		if gh, err = decodeGossipHeader(block); err != nil {
			return d.deliver(ctx, req, app) // malformed header: not gossip either
		}
	}
	d.stats.received.Add(1)
	d.bumpActivity()
	if inPlace {
		if d.seen.TouchBytes(fields.messageID) {
			d.stats.duplicates.Add(1)
			return nil, nil
		}
		gh = fields.header()
	}
	d.mu.Lock()
	if !d.seen.Add(gh.MessageID) {
		d.mu.Unlock()
		d.stats.duplicates.Add(1)
		return nil, nil
	}
	delete(d.requested, gh.MessageID)
	d.mu.Unlock()
	// Retain the envelope so lazy-push fetches can be served later. The
	// store outlives this delivery, whose inbound buffer the transport
	// recycles once the handler returns — so the one retention point in the
	// stack deep-copies. Paid once per unique message (duplicates, the bulk
	// of gossip traffic, never get here), and copied outside d.mu so
	// concurrent deliveries don't serialize behind a payload memcpy; the
	// seen-set dedup above guarantees a single Put per message ID.
	var clone *soap.Envelope
	if d.cfg.Intern != nil {
		// The stored form varies only by message identity and remaining hop
		// budget (forwarding decrements Hops before re-rendering), so that
		// pair keys the shared clone across every store on this interner.
		clone = d.cfg.Intern.Clone(gh.MessageID+"\x00"+strconv.Itoa(gh.Hops), req.Envelope)
	} else {
		clone = req.Envelope.Clone()
	}
	d.mu.Lock()
	d.store.Put(gh.MessageID, clone)
	state, known := d.interactions[gh.InteractionID]
	d.mu.Unlock()

	if !known {
		var err error
		if state, err = d.registerInteraction(ctx, req.Envelope, gh); err != nil {
			// Without parameters the node still consumes the message; it
			// just cannot forward. This degrades, not fails, matching the
			// epidemic model's tolerance for non-cooperating nodes.
			state = nil
		}
	}

	d.stats.delivered.Add(1)
	resp, appErr := d.deliver(ctx, req, app)

	if state != nil && gh.Hops > 0 {
		switch {
		case state.pull():
			// WS-PullGossip never forwards eagerly: the notification is
			// stored and spreads when peers pull it (TickPull).
		case state.params.Style == gossip.StyleLazyPush.String():
			d.mu.Lock()
			deferred := d.deferAnn
			if deferred && len(d.pendingAnn) < maxPendingAnnounces {
				d.pendingAnn = append(d.pendingAnn, pendingAnnounce{gh: gh, state: state})
			}
			d.mu.Unlock()
			if !deferred {
				d.announce(ctx, gh, state)
			}
		default:
			d.forward(ctx, req.Envelope, gh, state)
		}
	}
	if appErr != nil {
		return nil, appErr
	}
	// Gossiped notifications are one-way: suppress application responses on
	// the gossip path.
	_ = resp
	return nil, nil
}

func (d *Disseminator) deliver(ctx context.Context, req *soap.Request, app soap.Handler) (*soap.Envelope, error) {
	if app == nil {
		return nil, nil
	}
	return app.HandleSOAP(ctx, req)
}

// registerInteraction performs the paper's first-contact handshake: "If
// this is an unknown gossip interaction, it registers itself with the
// Registration service, thus obtaining gossip targets to which it will
// forward the message."
func (d *Disseminator) registerInteraction(ctx context.Context, env *soap.Envelope, gh GossipHeader) (*interactionState, error) {
	cctx, err := wscoord.ContextFrom(env)
	if err != nil {
		return nil, fmt.Errorf("core: gossiped message without coordination context: %w", err)
	}
	protocol := gh.Protocol
	if protocol == "" {
		protocol = ProtocolPushGossip
	}
	// Cache under the header's interaction ID — the key intercept looks
	// up — even if a sender's coordination-context identifier differs.
	return d.registerProtocol(ctx, cctx, protocol, gh.InteractionID)
}

// registerProtocol performs the Register call for one (interaction,
// protocol) pair and caches the returned parameters under cacheKey. When
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
	state := &interactionState{protocol: protocol, params: params}
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

// forward re-routes a copy of the notification to up to fanout targets with
// a decremented hop budget. The stable part of the message — gossip header,
// action, message ID, coordination context, body — is serialized exactly
// once; only the wsa:To block is rendered per target.
func (d *Disseminator) forward(ctx context.Context, env *soap.Envelope, gh GossipHeader, state *interactionState) {
	d.mu.Lock()
	targets := d.sampleTargetsLocked(state.params.Fanout, state.params.Targets)
	d.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	next := gh
	next.Hops = gh.Hops - 1
	out := env.Snapshot()
	if err := SetGossipHeader(out, next); err != nil {
		d.stats.sendErrors.Add(int64(len(targets)))
		return
	}
	if err := out.SetAddressing(wsa.Headers{
		Action:    ActionNotify,
		MessageID: wsa.MessageID(gh.MessageID),
	}); err != nil {
		d.stats.sendErrors.Add(int64(len(targets)))
		return
	}
	d.stats.forwarded.Add(int64(d.fanout(ctx, out, targets)))
}

// fanout sends env (addressing must omit To) to every target through the
// shared encode-once ladder (soap.Fanout), bumping sendErrors for failures
// and returning the number of successful sends.
func (d *Disseminator) fanout(ctx context.Context, env *soap.Envelope, targets []string) int {
	start := d.now()
	sent, failed := soap.Fanout(ctx, d.cfg.Caller, env, targets)
	d.stats.fanoutSeconds.Observe((d.now() - start).Seconds())
	if len(failed) > 0 {
		d.stats.sendErrors.Add(int64(len(failed)))
	}
	return sent
}
