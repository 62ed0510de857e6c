package gossip

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"wsgossip/internal/transport"
)

// Default engine sizing.
const (
	DefaultSeenCacheSize = 1 << 16
	DefaultStoreSize     = 1 << 12
)

// pullBatch bounds the rumors one pull response serves.
const pullBatch = 64

// Config configures an Engine.
type Config struct {
	// Style selects the dissemination strategy. Required.
	Style Style
	// Fanout is the paper's f: targets selected per forwarding decision.
	Fanout int
	// Hops is the paper's rounds r: forwarding budget per rumor.
	Hops int
	// Endpoint attaches the engine to a network. Required.
	Endpoint transport.Endpoint
	// Peers supplies gossip targets. Required.
	Peers PeerProvider
	// Deliver is invoked exactly once per unique rumor (never for
	// duplicates). Optional.
	Deliver func(Rumor)
	// RNG drives peer selection and rumor IDs. Required for reproducible
	// experiments; nil falls back to a fixed-seed source.
	RNG *rand.Rand
	// SeenCacheSize bounds the duplicate-suppression cache (0 = default).
	SeenCacheSize int
	// StoreSize bounds the rumor bodies retained for lazy-push and pull
	// repair (0 = default).
	StoreSize int
	// CounterK is the quiescence threshold for StyleCounter: a node stops
	// re-forwarding a rumor after hearing it this many times beyond the
	// first (0 = 2).
	CounterK int
}

func (c *Config) validate() error {
	if c.Endpoint == nil {
		return errors.New("gossip: config requires an endpoint")
	}
	if c.Peers == nil {
		return errors.New("gossip: config requires a peer provider")
	}
	if c.Style < StylePush || c.Style > StyleCounter {
		return fmt.Errorf("gossip: invalid style %d", int(c.Style))
	}
	if c.Fanout < 1 && c.Style != StyleFlood {
		return fmt.Errorf("gossip: fanout must be >= 1, got %d", c.Fanout)
	}
	if c.Hops < 0 {
		return fmt.Errorf("gossip: hops must be >= 0, got %d", c.Hops)
	}
	return nil
}

// Stats counts engine activity. Counter semantics:
// Delivered counts unique rumors handed to the application; Duplicates
// counts suppressed re-receipts; Forwarded counts payload transmissions to
// individual peers.
type Stats struct {
	Published  int64
	Delivered  int64
	Duplicates int64
	Forwarded  int64
	IHaveSent  int64
	IWantSent  int64
	PullReqs   int64
	PullResps  int64
	SendErrors int64
}

// Engine is one node's gossip protocol instance: the Machine bound to a
// transport.Endpoint. It is safe for concurrent use; in the simulator all
// calls arrive from the event loop.
type Engine struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	m     Machine[Rumor]
	stats Stats
}

// New validates cfg and returns an engine. The caller must route the
// engine's wire actions to it, normally via Register on a transport.Mux.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.SeenCacheSize <= 0 {
		cfg.SeenCacheSize = DefaultSeenCacheSize
	}
	if cfg.StoreSize <= 0 {
		cfg.StoreSize = DefaultStoreSize
	}
	if cfg.CounterK <= 0 {
		cfg.CounterK = 2
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Engine{
		cfg: cfg,
		rng: rng,
		m:   NewMachine[Rumor](cfg.SeenCacheSize, cfg.StoreSize, cfg.CounterK),
	}, nil
}

// Register installs the engine's wire actions on the mux.
func (e *Engine) Register(mux *transport.Mux) {
	mux.Handle(ActionPush, e.handlePush)
	mux.Handle(ActionIHave, e.handleIHave)
	mux.Handle(ActionIWant, e.handleIWant)
	mux.Handle(ActionPullReq, e.handlePullReq)
	mux.Handle(ActionPullResp, e.handlePullResp)
}

// Addr returns the engine's endpoint address.
func (e *Engine) Addr() string { return e.cfg.Endpoint.Addr() }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Style returns the configured dissemination style.
func (e *Engine) Style() Style { return e.cfg.Style }

// Publish originates a rumor with the engine's full hop budget, delivers it
// locally, and starts dissemination per the configured style. The engine
// keeps its own copy of payload: the caller may reuse its buffer.
func (e *Engine) Publish(ctx context.Context, payload []byte) (Rumor, error) {
	e.mu.Lock()
	r := Rumor{
		ID:      NewRumorID(e.rng),
		Origin:  e.cfg.Endpoint.Addr(),
		Hops:    e.cfg.Hops,
		Payload: ownedPayload(payload),
	}
	e.stats.Published++
	e.acceptLocked(ctx, r)
	e.mu.Unlock()
	return r, nil
}

// Inject processes an externally created rumor exactly as if it had been
// received from a peer. WS-Gossip's Initiator role uses this to hand a
// coordinator-assigned notification to the local engine. As with Publish,
// the engine copies r.Payload.
func (e *Engine) Inject(ctx context.Context, r Rumor) {
	r.Payload = ownedPayload(r.Payload)
	e.mu.Lock()
	e.acceptLocked(ctx, r)
	e.mu.Unlock()
}

// ownedPayload copies a caller's buffer: a stored rumor owns its bytes, so a
// caller reusing the buffer cannot rewrite what later IWANT and pull
// responses serve.
func ownedPayload(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// acceptLocked is the entry point for a rumor the engine already owns
// (Publish, Inject).
func (e *Engine) acceptLocked(ctx context.Context, r Rumor) {
	sum := IDSum(r.ID)
	first, t := e.m.Receive(sum, false)
	if first {
		e.acceptNewLocked(ctx, r, sum, false)
		return
	}
	e.stats.Duplicates++
	if t.Send != SendNothing {
		if stored, ok := e.m.Get(sum); ok {
			r = stored
		}
		e.sendLocked(ctx, r, t)
	}
}

// receiveLocked is the entry point for a rumor still lying in a message body.
// The machine is asked with the sum of the ID in place, so a duplicate is
// dropped before anything is built; only a new rumor becomes an owned Rumor.
// viaPull marks rumors learned through anti-entropy, which are stored and
// delivered but not eagerly re-forwarded (they spread through subsequent
// pulls).
func (e *Engine) receiveLocked(ctx context.Context, v rumorView, viaPull bool) {
	sum := IDSum(v.id)
	first, t := e.m.Receive(sum, viaPull)
	if first {
		e.acceptNewLocked(ctx, v.rumor(), sum, viaPull)
		return
	}
	e.stats.Duplicates++
	if t.Send != SendNothing {
		// The store's copy serves; the view is copied only if it was evicted.
		r, ok := e.m.Get(sum)
		if !ok {
			r = v.rumor()
		}
		e.sendLocked(ctx, r, t)
	}
}

// acceptNewLocked holds, delivers and spreads a rumor the machine just took
// as a first receipt of sum.
func (e *Engine) acceptNewLocked(ctx context.Context, r Rumor, sum uint64, viaPull bool) {
	e.m.Hold(sum, r)
	e.stats.Delivered++
	if e.cfg.Deliver != nil {
		// The callback runs under e.mu: it must not call back into the
		// engine synchronously from another goroutine.
		e.cfg.Deliver(r)
	}
	e.sendLocked(ctx, r, e.m.Spread(sum, e.cfg.Style, r.Hops, viaPull))
}

// sendLocked carries out the machine's decision t for r: the payload, at
// t's hop budget, or an IHAVE naming it (at the budget it is held with), to
// t's share of random peers — one encoded body shared by every send.
func (e *Engine) sendLocked(ctx context.Context, r Rumor, t Transfer) {
	if t.Send == SendNothing {
		return
	}
	var buf [8]string
	peers := e.selectPeersLocked(&buf, t.Peers(e.cfg.Fanout))
	action, sent := ActionPush, &e.stats.Forwarded
	var body []byte
	if t.Send == SendAnnounce {
		action, sent = ActionIHave, &e.stats.IHaveSent
		body = encodeRefs(RumorRef{ID: r.ID, Hops: r.Hops})
	} else {
		r.Hops = t.Hops(r.Hops)
		body = encodeRumors(r)
	}
	for _, p := range peers {
		e.sendOneLocked(ctx, p, action, body)
		*sent++
	}
}

// selectPeersLocked draws up to n peers. A UniformPeers, the provider of
// the simulator at scale, draws into buf, so a draw that fits costs nothing;
// it is asked by its concrete type because a buffer handed through the
// PeerProvider interface would escape to the heap.
func (e *Engine) selectPeersLocked(buf *[8]string, n int) []string {
	if u, ok := e.cfg.Peers.(*UniformPeers); ok {
		return u.AppendPeers(buf[:0], e.rng, n, e.cfg.Endpoint.Addr())
	}
	return e.cfg.Peers.SelectPeers(e.rng, n, e.cfg.Endpoint.Addr())
}

// sendOneLocked sends one message, counting a failure.
func (e *Engine) sendOneLocked(ctx context.Context, to, action string, body []byte) error {
	err := e.cfg.Endpoint.Send(ctx, transport.Message{To: to, Action: action, Body: body})
	if err != nil {
		e.stats.SendErrors++
	}
	return err
}

// The handlers read msg.Body through a wireReader (wire.go states the
// ownership rule), a pull request through readPull. Either validates the whole
// body before the first state change, so a malformed tail never leaves a
// half-applied message, and a body of another kind is rejected like any junk.

// handlePush processes an inbound payload message.
func (e *Engine) handlePush(ctx context.Context, msg transport.Message) error {
	return e.receiveBatch(ctx, msg.Body, false)
}

// handlePullResp accepts repair rumors without eager re-forwarding.
func (e *Engine) handlePullResp(ctx context.Context, msg transport.Message) error {
	return e.receiveBatch(ctx, msg.Body, true)
}

func (e *Engine) receiveBatch(ctx context.Context, body []byte, viaPull bool) error {
	rd, err := readWire(body, wireRumors)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for rd.n > 0 {
		v, _ := rd.rumor()
		e.receiveLocked(ctx, v, viaPull)
	}
	return nil
}

// handleIHave answers announcements by requesting unseen rumors. A refused
// IWANT releases its requests, so a later announcer can retrigger them.
func (e *Engine) handleIHave(ctx context.Context, msg transport.Message) error {
	rd, err := readWire(msg.Body, wireRefs)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var want []RumorRef
	for rd.n > 0 {
		ref, _ := rd.ref()
		ok, held := e.m.Want(IDSum(ref.id))
		if held {
			e.stats.Duplicates++
		}
		if ok {
			want = append(want, RumorRef{ID: string(ref.id), Hops: ref.hops})
		}
	}
	if len(want) == 0 {
		return nil
	}
	if e.sendOneLocked(ctx, msg.From, ActionIWant, encodeRefs(want...)) != nil {
		for _, ref := range want {
			e.m.Release(IDSum(ref.ID))
		}
	}
	e.stats.IWantSent++
	return nil
}

// handleIWant serves requested rumor bodies, each transfer costing one hop.
func (e *Engine) handleIWant(ctx context.Context, msg transport.Message) error {
	rd, err := readWire(msg.Body, wireRefs)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Rumor
	for rd.n > 0 {
		ref, _ := rd.ref()
		if r, ok := e.m.Get(IDSum(ref.id)); ok {
			out = append(out, r)
		}
	}
	if len(out) > 0 {
		e.serveLocked(ctx, msg.From, ActionPush, out)
		e.stats.Forwarded += int64(len(out))
	}
	return nil
}

// serveLocked sends rs, held copies asked for, in one body, each transfer
// costing one hop.
func (e *Engine) serveLocked(ctx context.Context, to, action string, rs []Rumor) {
	for i := range rs {
		rs[i].Hops = ServedHops(rs[i].Hops)
	}
	e.sendOneLocked(ctx, to, action, encodeRumors(rs...))
}

// Tick runs one periodic round. For the styles that pull it starts an
// anti-entropy exchange with f random peers, sending the digest a SOAP node
// sends: the sums of the newest held rumors, written from scratch on the
// stack. For other styles it is a no-op, letting callers drive every engine
// uniformly.
func (e *Engine) Tick(ctx context.Context) {
	if !e.cfg.Style.Pulls() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var buf [8]string
	peers := e.selectPeersLocked(&buf, e.cfg.Fanout)
	if len(peers) == 0 {
		return
	}
	var scratch [8 * DigestCap]byte
	body := encodePull(e.m.Digest(scratch[:0]))
	for _, p := range peers {
		e.sendOneLocked(ctx, p, ActionPullReq, body)
		e.stats.PullReqs++
	}
}

// handlePullReq answers a digest with the rumors the requester is missing,
// at most pullBatch, each transfer costing one hop. The sums are read into
// scratch on the stack and go, with the truncated flag, to the one Missing
// the SOAP binding's digests reach too.
func (e *Engine) handlePullReq(ctx context.Context, msg transport.Message) error {
	var scratch [DigestCap]uint64
	sums, truncated, err := readPull(&scratch, msg.Body)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if missing := e.m.Missing(nil, sums, truncated, pullBatch); len(missing) > 0 {
		e.serveLocked(ctx, msg.From, ActionPullResp, missing)
		e.stats.PullResps++
	}
	return nil
}

// Seen reports whether the engine has already processed the rumor ID.
func (e *Engine) Seen(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.Seen(IDSum(id))
}

// StoreLen reports the number of retained rumor bodies.
func (e *Engine) StoreLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.m.Len()
}
