package membership

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/transport"
)

// Wire actions.
const (
	ActionExchange = "urn:wsgossip:membership:exchange"
	ActionLeave    = "urn:wsgossip:membership:leave"
)

// State classifies a member in the local view.
type State int

// Member states.
const (
	StateAlive State = iota + 1
	StateSuspect
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Member is one entry in the local membership view.
type Member struct {
	Addr      string
	Heartbeat uint64
	State     State
	// Refreshed is the local (virtual) time the heartbeat last advanced.
	Refreshed time.Duration
}

// Config configures a membership service.
type Config struct {
	// Endpoint attaches the service to the network. Required.
	Endpoint transport.Endpoint
	// Clock supplies time (virtual under simulation). Required.
	Clock clock.Clock
	// RNG drives peer selection. Required for reproducibility; nil falls
	// back to a fixed seed.
	RNG *rand.Rand
	// Fanout is the number of peers the view is pushed to per Tick.
	Fanout int
	// SuspectAfter is how long a heartbeat may stall before the member is
	// suspected.
	SuspectAfter time.Duration
	// RemoveAfter is how long before a stalled member is evicted. Must
	// exceed SuspectAfter.
	RemoveAfter time.Duration
	// MaxView caps the local view size (0 = unbounded full view). With a
	// cap the service behaves as a peer-sampling service: learning a new
	// member beyond the cap evicts a uniformly random existing entry, so
	// the union of partial views stays a well-mixed overlay while per-node
	// state is O(MaxView) — the standard scalability device for very large
	// memberships.
	MaxView int
	// Metrics is the registry the service resolves its series from
	// (membership_view_size, membership_exchanges_total,
	// membership_suspects_total, membership_suspect_unknown_total,
	// membership_evictions_total, membership_leaves_total,
	// membership_leave_rejected_total). Nil uses a private registry.
	Metrics *metrics.Registry
}

func (c *Config) validate() error {
	if c.Endpoint == nil {
		return errors.New("membership: config requires an endpoint")
	}
	if c.Clock == nil {
		return errors.New("membership: config requires a clock")
	}
	if c.Fanout < 1 {
		return fmt.Errorf("membership: fanout must be >= 1, got %d", c.Fanout)
	}
	if c.SuspectAfter <= 0 || c.RemoveAfter <= c.SuspectAfter {
		return fmt.Errorf("membership: need 0 < SuspectAfter (%v) < RemoveAfter (%v)",
			c.SuspectAfter, c.RemoveAfter)
	}
	return nil
}

// Service is one node's membership protocol instance.
type Service struct {
	cfg Config

	mu      sync.Mutex
	rng     *rand.Rand
	self    wireEntry
	members map[string]*Member
	left    map[string]struct{} // explicit-leave tombstones
	// dead maps an evicted member to the heartbeat it stalled at; stale
	// gossip echoing that heartbeat cannot resurrect it, but a genuinely
	// recovered node (whose heartbeat advances) is readmitted.
	dead map[string]uint64
	// alive caches the sorted alive-address snapshot between view
	// mutations: fan-out sampling (SelectPeers is on the gossip hot path
	// when the service is a live PeerView) reads the cache instead of
	// rebuilding and re-sorting the list per call. aliveValid is cleared by
	// every mutation that can change the alive set.
	alive      []string
	aliveValid bool
	// sorted is encodeViewLocked's scratch: the members in address order,
	// kept across rounds so writing the view allocates only its buffer.
	sorted []*Member

	stats svcCounters
}

// svcCounters is the membership layer's registry-resolved series.
type svcCounters struct {
	viewSize       *metrics.Gauge   // members known, excluding self
	exchanges      *metrics.Counter // view-exchange messages handled
	suspects       *metrics.Counter // alive→suspect transitions
	suspectUnknown *metrics.Counter // Suspect calls naming an unknown member
	evictions      *metrics.Counter // members evicted after RemoveAfter stalls
	leaves         *metrics.Counter // explicit leave tombstones applied
	leaveRejected  *metrics.Counter // leave entries naming anyone but the sender
}

func newSvcCounters(reg *metrics.Registry) svcCounters {
	return svcCounters{
		viewSize:       reg.Gauge("membership_view_size"),
		exchanges:      reg.Counter("membership_exchanges_total"),
		suspects:       reg.Counter("membership_suspects_total"),
		suspectUnknown: reg.Counter("membership_suspect_unknown_total"),
		evictions:      reg.Counter("membership_evictions_total"),
		leaves:         reg.Counter("membership_leaves_total"),
		leaveRejected:  reg.Counter("membership_leave_rejected_total"),
	}
}

// New validates cfg and returns a service containing only the local node.
func New(cfg Config) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Service{
		cfg:     cfg,
		rng:     rng,
		self:    wireEntry{Addr: cfg.Endpoint.Addr(), Heartbeat: 1},
		members: make(map[string]*Member),
		left:    make(map[string]struct{}),
		dead:    make(map[string]uint64),
		stats:   newSvcCounters(reg),
	}
	return s, nil
}

// actions are the service's wire actions, which Register binds as one route.
var actions = []string{ActionExchange, ActionLeave}

// Register installs the service's wire actions on the mux, as one route.
func (s *Service) Register(mux *transport.Mux) {
	mux.Route(actions, s.handle)
}

// handle is the service's route: it passes msg to its action's handler.
func (s *Service) handle(ctx context.Context, msg transport.Message) error {
	if msg.Action == ActionLeave {
		return s.handleLeave(ctx, msg)
	}
	return s.handleExchange(ctx, msg)
}

// Addr returns the local address.
func (s *Service) Addr() string { return s.cfg.Endpoint.Addr() }

// Join seeds the view with known addresses and immediately pushes the local
// view to them so the join propagates.
func (s *Service) Join(ctx context.Context, seeds []string) {
	s.mu.Lock()
	now := s.cfg.Clock.Now()
	for _, a := range seeds {
		if a == "" || a == s.self.Addr {
			continue
		}
		if _, ok := s.members[a]; !ok {
			s.members[a] = &Member{Addr: a, Heartbeat: 0, State: StateAlive, Refreshed: now}
			s.invalidateAliveLocked()
		}
	}
	body := s.encodeViewLocked()
	targets := append([]string(nil), seeds...)
	s.mu.Unlock()
	for _, a := range targets {
		if a == s.Addr() {
			continue
		}
		_ = s.cfg.Endpoint.Send(ctx, transport.Message{To: a, Action: ActionExchange, Body: body})
	}
}

// Tick advances the local heartbeat, ages the view, and pushes it to Fanout
// random live peers.
func (s *Service) Tick(ctx context.Context) {
	s.mu.Lock()
	s.self.Heartbeat++
	now := s.cfg.Clock.Now()
	for addr, m := range s.members {
		age := now - m.Refreshed
		switch {
		case age >= s.cfg.RemoveAfter:
			s.dead[addr] = m.Heartbeat
			delete(s.members, addr)
			s.stats.evictions.Inc()
			s.invalidateAliveLocked()
		case age >= s.cfg.SuspectAfter:
			if m.State != StateSuspect {
				m.State = StateSuspect
				s.stats.suspects.Inc()
				s.invalidateAliveLocked()
			}
		}
	}
	peers := s.alivePeersLocked()
	targets := gossip.SamplePeers(s.rng, peers, s.cfg.Fanout, s.self.Addr)
	body := s.encodeViewLocked()
	s.mu.Unlock()
	for _, p := range targets {
		_ = s.cfg.Endpoint.Send(ctx, transport.Message{To: p, Action: ActionExchange, Body: body})
	}
}

// Leave announces departure to Fanout peers; receivers tombstone the sender.
// The body lists the sender's own entry, the only one a receiver applies.
func (s *Service) Leave(ctx context.Context) {
	s.mu.Lock()
	peers := s.alivePeersLocked()
	targets := gossip.SamplePeers(s.rng, peers, s.cfg.Fanout, s.self.Addr)
	body := writeBody(envelopeBody{From: s.self.Addr, Members: []wireEntry{s.self}})
	s.mu.Unlock()
	for _, p := range targets {
		_ = s.cfg.Endpoint.Send(ctx, transport.Message{To: p, Action: ActionLeave, Body: body})
	}
}

// alivePeersLocked returns the sorted alive-address snapshot, rebuilding it
// only after a view mutation. The snapshot's backing array is pooled —
// rebuilds reuse it instead of allocating, which at heartbeat cadence across
// a large simulated population is sustained allocator pressure — so callers
// must not retain or read the slice past the lock (samplers copy eligible
// entries before shuffling, under the lock).
func (s *Service) alivePeersLocked() []string {
	if s.aliveValid {
		return s.alive
	}
	out := s.alive[:0]
	for addr, m := range s.members {
		if m.State == StateAlive {
			out = append(out, addr)
		}
	}
	slices.Sort(out) // deterministic iteration for reproducible sampling
	s.alive = out
	s.aliveValid = true
	return out
}

// invalidateAliveLocked drops the cached alive snapshot after a mutation,
// keeping its backing array for the next rebuild. Every view mutation
// funnels through here, so it doubles as the update point for the view-size
// gauge.
func (s *Service) invalidateAliveLocked() {
	s.aliveValid = false
	s.stats.viewSize.Set(int64(len(s.members)))
}

// encodeViewLocked writes the whole view as one message body (wire.go): self
// first, then every member in address order. Receivers merge entries in wire
// order, and with a capped view each over-cap insert consumes an RNG draw to
// pick an eviction victim — map-order encoding would make the victim
// sequence, and hence the whole overlay, nondeterministic per run. The sort
// runs in a scratch slice kept across rounds, so the body's buffer, which a
// round sends to every target, is the one allocation.
func (s *Service) encodeViewLocked() []byte {
	sorted := s.sorted[:0]
	addrs := len(s.self.Addr)
	for _, m := range s.members {
		sorted = append(sorted, m)
		addrs += len(m.Addr)
	}
	slices.SortFunc(sorted, func(a, b *Member) int { return strings.Compare(a.Addr, b.Addr) })
	buf := appendBodyOpen(make([]byte, 0, bodySize(s.self.Addr, len(sorted)+1, addrs)), s.self.Addr)
	buf = appendEntry(buf, s.self.Addr, s.self.Heartbeat)
	for _, m := range sorted {
		buf = appendEntry(buf, m.Addr, m.Heartbeat)
	}
	clear(sorted) // hold no evicted member past the round
	s.sorted = sorted[:0]
	return appendBodyClose(buf)
}

// handleExchange merges a received view entry by entry, read in place: a
// member the view already holds is looked up with the address bytes, and an
// address is copied only when it becomes a new member.
func (s *Service) handleExchange(ctx context.Context, msg transport.Message) error {
	body, _, err := canonicalBody(msg.Body)
	if err != nil {
		return fmt.Errorf("membership: decode exchange: %w", err)
	}
	s.mu.Lock()
	s.stats.exchanges.Inc()
	_, knewSender := s.members[msg.From]
	now := s.cfg.Clock.Now()
	_, r, _ := openBody(body)
	for addr, hb, ok := nextEntry(&r); ok; addr, hb, ok = nextEntry(&r) {
		s.mergeLocked(addr.Key(), hb, now)
	}
	var reply []byte
	if !knewSender && msg.From != s.self.Addr {
		// A previously unknown sender is likely a newcomer whose view is
		// still tiny (with capped views it may know only its seed). Answer
		// with our view so it bootstraps immediately instead of waiting to
		// be sampled — the pull half of a view exchange.
		reply = s.encodeViewLocked()
	}
	s.mu.Unlock()
	if reply != nil {
		_ = s.cfg.Endpoint.Send(ctx, transport.Message{To: msg.From, Action: ActionExchange, Body: reply})
	}
	return nil
}

// handleLeave tombstones msg.From, and nothing else: one leave message
// removes at most one member, so an entry naming anyone but msg.From is
// counted in membership_leave_rejected_total and ignored. Who msg.From is
// depends on the binding. The simulator's transport sets it to the real
// sender. SOAPEndpoint takes it from the body's own From element, which the
// sender writes: SOAP carries no authenticated sender, so over SOAP a peer
// can still name another member as From and tombstone it.
func (s *Service) handleLeave(_ context.Context, msg transport.Message) error {
	body, _, err := canonicalBody(msg.Body)
	if err != nil {
		return fmt.Errorf("membership: decode leave: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, r, _ := openBody(body)
	for addr, _, ok := nextEntry(&r); ok; addr, _, ok = nextEntry(&r) {
		if string(addr.Key()) != msg.From {
			s.stats.leaveRejected.Inc()
			continue
		}
		s.left[msg.From] = struct{}{}
		delete(s.members, msg.From)
		s.stats.leaves.Inc()
	}
	s.invalidateAliveLocked()
	return nil
}

// maxHeartbeat bounds an accepted heartbeat; no per-round counter gets near
// it. Echoed back at us, a MaxUint64 entry would wrap our own heartbeat to 0
// (we outrun an echo by one) and every peer would then see us as stale.
const maxHeartbeat = 1 << 62

// mergeLocked merges one received entry. addr may be a view of the message
// body: every lookup converts it in place, and only a new member's address
// is copied.
func (s *Service) mergeLocked(addr []byte, hb uint64, now time.Duration) {
	if len(addr) == 0 || hb >= maxHeartbeat {
		// A malformed or empty address must not become a member: it would
		// gossip onward and burn a fan-out slot at every sampler. A
		// heartbeat that high came from no live counter.
		return
	}
	if string(addr) == s.self.Addr {
		// Another node may have a stale view of us; outrun it so we do not
		// get suspected by our own propagated heartbeat.
		if hb > s.self.Heartbeat {
			s.self.Heartbeat = hb + 1
		}
		return
	}
	if _, gone := s.left[string(addr)]; gone {
		return
	}
	if stalled, evicted := s.dead[string(addr)]; evicted {
		if hb <= stalled {
			return
		}
		delete(s.dead, string(addr))
	}
	m, ok := s.members[string(addr)]
	if !ok {
		if s.cfg.MaxView > 0 && len(s.members) >= s.cfg.MaxView {
			s.evictRandomLocked()
		}
		a := string(addr)
		s.members[a] = &Member{Addr: a, Heartbeat: hb, State: StateAlive, Refreshed: now}
		s.invalidateAliveLocked()
		return
	}
	if hb > m.Heartbeat {
		m.Heartbeat = hb
		if m.State != StateAlive {
			m.State = StateAlive
			s.invalidateAliveLocked()
		}
		m.Refreshed = now
	}
}

// evictRandomLocked removes one uniformly random view entry (peer-sampling
// replacement). Sorted iteration keeps the choice deterministic per seed.
func (s *Service) evictRandomLocked() {
	if len(s.members) == 0 {
		return
	}
	addrs := make([]string, 0, len(s.members))
	for a := range s.members {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	victim := addrs[s.rng.Intn(len(addrs))]
	delete(s.members, victim)
	s.invalidateAliveLocked()
}

// Suspect demotes a member to StateSuspect on external evidence of failure
// — typically the delivery plane opening the peer's circuit after repeated
// transport errors. A suspect is excluded from fan-out sampling but stays
// in the view: a later heartbeat advance (the peer gossiping again)
// restores it to alive, and the usual RemoveAfter aging evicts it if it
// never does. Already-suspect addresses are a no-op, so the hook is
// idempotent and safe to call from failure paths. An UNKNOWN address is
// also a no-op but is not silent: it usually means the failure detector
// and the view disagree (an eviction raced the circuit opening, or a
// wiring bug feeds the wrong address space), so it is counted as
// membership_suspect_unknown_total and logged once per process.
func (s *Service) Suspect(addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[addr]
	if !ok {
		s.stats.suspectUnknown.Inc()
		suspectUnknownLogOnce.Do(func() {
			log.Printf("membership: Suspect(%q): address not in view (counted in membership_suspect_unknown_total; logged once)", addr)
		})
		return
	}
	if m.State == StateSuspect {
		return
	}
	m.State = StateSuspect
	s.stats.suspects.Inc()
	s.invalidateAliveLocked()
}

// suspectUnknownLogOnce gates the unknown-suspect log line to one per
// process: the counter carries the volume, the log carries the alert.
var suspectUnknownLogOnce sync.Once

// Alive returns the addresses currently considered alive (excluding self).
func (s *Service) Alive() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.alivePeersLocked()...)
}

// Members returns a snapshot of the full view (excluding self).
func (s *Service) Members() []Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Member, 0, len(s.members))
	for _, m := range s.members {
		out = append(out, *m)
	}
	slices.SortFunc(out, func(a, b Member) int { return strings.Compare(a.Addr, b.Addr) })
	return out
}

// Size returns the number of known members excluding self.
func (s *Service) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

var _ gossip.PeerProvider = (*Service)(nil)

// SelectPeers implements gossip.PeerProvider over the live view. Sampling
// happens under the lock: the alive snapshot's backing array is pooled, so a
// concurrent view mutation may rewrite it the moment the lock is released.
func (s *Service) SelectPeers(rng *rand.Rand, n int, exclude string) []string {
	return s.AppendPeers(nil, rng, n, exclude)
}

// AppendPeers is SelectPeers appending its draw to dst, with the same draws
// from rng (gossip.AppendSample): a dst with room for the alive view costs
// nothing.
func (s *Service) AppendPeers(dst []string, rng *rand.Rand, n int, exclude string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return gossip.AppendSample(dst, rng, s.alivePeersLocked(), n, exclude)
}
