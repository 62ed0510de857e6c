package membership

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
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

// Service is one node's membership protocol instance: the binding of its
// machine (machine.go) to a lock, a clock, an endpoint and its counters.
type Service struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
	m   *machine

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
	return &Service{cfg: cfg, rng: rng, m: newMachine(cfg, cfg.Endpoint.Addr(), rng), stats: svcCounters{
		viewSize:       reg.Gauge("membership_view_size"),
		exchanges:      reg.Counter("membership_exchanges_total"),
		suspects:       reg.Counter("membership_suspects_total"),
		suspectUnknown: reg.Counter("membership_suspect_unknown_total"),
		evictions:      reg.Counter("membership_evictions_total"),
		leaves:         reg.Counter("membership_leaves_total"),
		leaveRejected:  reg.Counter("membership_leave_rejected_total"),
	}}, nil
}

// actions are the service's wire actions, which Register binds as one route.
var actions = []string{ActionExchange, ActionLeave}

// Register installs the service's wire actions on the mux, as one route.
func (s *Service) Register(mux *transport.Mux) {
	mux.Route(actions, s.handle)
}

// Addr returns the local address.
func (s *Service) Addr() string { return s.cfg.Endpoint.Addr() }

// countLocked adds a rule's outcome to the counters and sets the view size.
func (s *Service) countLocked(o outcome) {
	s.stats.exchanges.Add(int64(o.exchanges))
	s.stats.suspects.Add(int64(o.suspected))
	s.stats.suspectUnknown.Add(int64(o.unknown))
	s.stats.evictions.Add(int64(o.evicted))
	s.stats.leaves.Add(int64(o.left))
	s.stats.leaveRejected.Add(int64(o.leaveRejected))
	s.stats.viewSize.Set(int64(len(s.m.members)))
}

// send sends body as action to each target but this node, outside the lock;
// a nil body sends nothing.
func (s *Service) send(ctx context.Context, action string, body []byte, targets ...string) {
	for _, to := range targets {
		if body != nil && to != s.Addr() {
			_ = s.cfg.Endpoint.Send(ctx, transport.Message{To: to, Action: action, Body: body})
		}
	}
}

// Join seeds the view with known addresses and immediately pushes the local
// view to them so the join propagates.
func (s *Service) Join(ctx context.Context, seeds []string) {
	s.mu.Lock()
	s.countLocked(s.m.join(seeds, s.cfg.Clock.Now()))
	body := s.m.view()
	s.mu.Unlock()
	s.send(ctx, ActionExchange, body, seeds...)
}

// Tick advances the local heartbeat, ages the view, and pushes it to Fanout
// random live peers.
func (s *Service) Tick(ctx context.Context) {
	s.mu.Lock()
	s.countLocked(s.m.tick(s.cfg.Clock.Now()))
	targets := gossip.SamplePeers(s.rng, s.m.alivePeers(), s.cfg.Fanout, s.m.self.Addr)
	body := s.m.view()
	s.mu.Unlock()
	s.send(ctx, ActionExchange, body, targets...)
}

// Leave announces departure to Fanout peers; receivers tombstone the sender.
func (s *Service) Leave(ctx context.Context) {
	s.mu.Lock()
	targets := gossip.SamplePeers(s.rng, s.m.alivePeers(), s.cfg.Fanout, s.m.self.Addr)
	body := s.m.leaveBody()
	s.mu.Unlock()
	s.send(ctx, ActionLeave, body, targets...)
}

// handle is the service's route: the body, canonical, goes to the machine's
// exchange or leave rule, and an exchange's reply back to the sender. Who
// msg.From is depends on the binding. The simulator's transport sets it
// to the real sender. SOAPEndpoint takes it from the body's own From element,
// which the sender writes: SOAP carries no authenticated sender, so over SOAP
// a peer can still name another member as From and tombstone it.
func (s *Service) handle(ctx context.Context, msg transport.Message) error {
	body, _, err := canonicalBody(msg.Body)
	if err != nil {
		return fmt.Errorf("membership: decode %s: %w", msg.Action, err)
	}
	var o outcome
	var reply []byte
	s.mu.Lock()
	if msg.Action == ActionLeave {
		o = s.m.leave(msg.From, body)
	} else {
		reply, o = s.m.exchange(msg.From, body, s.cfg.Clock.Now())
	}
	s.countLocked(o)
	s.mu.Unlock()
	s.send(ctx, ActionExchange, reply, msg.From)
	return nil
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
	o := s.m.suspect(addr)
	s.countLocked(o)
	s.mu.Unlock()
	if o.unknown > 0 {
		suspectUnknownLogOnce.Do(func() {
			slog.Warn("membership: Suspect names an address not in the view (counted in membership_suspect_unknown_total; logged once)", "addr", addr)
		})
	}
}

// suspectUnknownLogOnce gates the unknown-suspect log line to one per
// process: the counter carries the volume, the log carries the alert.
var suspectUnknownLogOnce sync.Once

// Alive returns the addresses currently considered alive (excluding self).
func (s *Service) Alive() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.m.alivePeers()...)
}

// Members returns a snapshot of the full view (excluding self).
func (s *Service) Members() []Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.snapshot()
}

// Size returns the number of known members excluding self.
func (s *Service) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m.members)
}

var _ gossip.PeerProvider = (*Service)(nil)

// SelectPeers implements gossip.PeerProvider over the live view. Sampling
// happens under the lock: the alive snapshot's backing array is reused, so a
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
	return gossip.AppendSample(dst, rng, s.m.alivePeers(), n, exclude)
}
