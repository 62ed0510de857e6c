package gossip

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"unsafe"

	"wsgossip/internal/transport"
)

// Default engine sizing.
const (
	DefaultSeenCacheSize = 1 << 16
	DefaultStoreSize     = 1 << 12
)

// pullBatch bounds the rumors one pull response serves. A SOAP node serves a
// digest up to DigestCap; the engine keeps 64, which every seeded pull run
// of the simulator was recorded with.
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
	// duplicates), under the engine's lock. The Rumor's ID and Origin are
	// views of the stored slab, not copies, and may be kept: an engine with
	// a Deliver callback never rewrites a slab it has delivered, and a kept
	// ID keeps its rumor's whole slab (ID, origin and payload) alive. Its
	// Payload is the engine's stored copy, valid only during the callback:
	// copy it to keep it, and never modify it. Optional.
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
	m     Machine[held]
	stats Stats
}

// held is a rumor the engine's store holds: one slab, ID | origin | payload,
// and the hop budget it arrived with, in a 40-byte value (48 with the store
// slot's sum). A first receipt copies the rumor into a slot once; when the
// store is full, an engine without a Deliver callback refills the slot it
// evicts in place if its slab is large enough (newHeld).
//
// An engine with a Deliver callback writes each slab once and never refills
// it: Deliver's ID and Origin are views of the slab (rumor), which the
// callback may keep. Without Deliver nothing outlives e.mu with a reference
// into a slab: every serve writes the slots' bytes into a body before it
// unlocks, and Endpoint.Send does not keep that body (transport.Message). So
// a slab is either never refilled or never in use when it is, and no
// reference count is kept.
type held struct {
	slab      []byte
	idLen     uint32
	originLen uint32
	hops      int
}

// newHeld copies a rumor into slab, reused when its capacity fits; a new slab
// takes its whole size class.
func newHeld[T string | []byte](slab []byte, id, origin T, hops int, payload []byte) held {
	slab = slices.Grow(slab[:0], len(id)+len(origin)+len(payload))
	slab = append(slab, id...)
	slab = append(slab, origin...)
	slab = append(slab, payload...)
	return held{slab: slab, idLen: uint32(len(id)), originLen: uint32(len(origin)), hops: hops}
}

// view returns h as it would lie in a message body, aliasing the slab.
func (h *held) view() rumorView {
	n := h.idLen + h.originLen
	return rumorView{id: h.slab[:h.idLen], origin: h.slab[h.idLen:n], payload: h.payload(), hops: h.hops}
}

func (h *held) payload() []byte {
	n := int(h.idLen + h.originLen)
	if len(h.slab) == n {
		return nil
	}
	return h.slab[n:len(h.slab):len(h.slab)]
}

// rumor returns h as Deliver sees it: ID and Origin are strings over the
// slab's own bytes, not copies of them, and Payload aliases the slab. This is
// the module's one use of unsafe, and it rests on the write-once rule: an
// engine with a Deliver callback never refills a slab (receiveLocked), so the
// bytes under a string it hands out never change, and a callback may keep
// them. What it keeps pins the whole slab.
func (h *held) rumor() Rumor {
	id, origin := h.slab[:h.idLen], h.slab[h.idLen:h.idLen+h.originLen]
	return Rumor{
		ID:      unsafe.String(unsafe.SliceData(id), len(id)),
		Origin:  unsafe.String(unsafe.SliceData(origin), len(origin)),
		Hops:    h.hops,
		Payload: h.payload(),
	}
}

// bodyPool recycles the buffers the engine writes its bodies into. Send does
// not keep a body after it returns (transport.Message), so a buffer goes back
// as soon as its sends are done. It is zeroed first, so a binding that kept a
// body finds it zeroed rather than intact; one that grew past maxPooledBody
// (a large pull batch) is left to the GC.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 16 << 10

func getBody() *[]byte { return bodyPool.Get().(*[]byte) }

func putBody(bp *[]byte, body []byte) {
	clear(body)
	*bp = nil
	if cap(body) <= maxPooledBody {
		*bp = body[:0]
	}
	bodyPool.Put(bp)
}

// New validates cfg and returns an engine. The caller must route the
// engine's wire actions to it, normally via Register on a transport.Mux.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Engine{
		cfg: cfg,
		rng: rng,
		m:   NewMachine[held](cfg.SeenCacheSize, cfg.StoreSize, cfg.CounterK),
	}, nil
}

// actions are the engine's wire actions, which Register binds as one route.
var actions = []string{ActionPush, ActionIHave, ActionIWant, ActionPullReq, ActionPullResp}

// Register installs the engine's wire actions on the mux, as one route.
func (e *Engine) Register(mux *transport.Mux) {
	mux.Route(actions, e.handle)
}

// handle is the engine's route: it passes msg to its action's handler.
func (e *Engine) handle(ctx context.Context, msg transport.Message) error {
	switch msg.Action {
	case ActionPush:
		return e.handlePush(ctx, msg)
	case ActionIHave:
		return e.handleIHave(ctx, msg)
	case ActionIWant:
		return e.handleIWant(ctx, msg)
	case ActionPullReq:
		return e.handlePullReq(ctx, msg)
	case ActionPullResp:
		return e.handlePullResp(ctx, msg)
	}
	return fmt.Errorf("gossip: no handler for action %q", msg.Action)
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
// keeps its own copy of payload: the caller may reuse its buffer. The rumor
// returned carries the caller's payload.
func (e *Engine) Publish(ctx context.Context, payload []byte) (Rumor, error) {
	e.mu.Lock()
	r := Rumor{ID: NewRumorID(e.rng), Origin: e.cfg.Endpoint.Addr(), Hops: e.cfg.Hops, Payload: payload}
	e.stats.Published++
	receiveLocked(e, ctx, r.ID, r.Origin, r.Hops, r.Payload, false)
	e.mu.Unlock()
	return r, nil
}

// Inject processes an externally created rumor exactly as if it had been
// received from a peer. WS-Gossip's Initiator role uses this to hand a
// coordinator-assigned notification to the local engine. As with Publish,
// the engine copies r.Payload.
func (e *Engine) Inject(ctx context.Context, r Rumor) {
	e.mu.Lock()
	receiveLocked(e, ctx, r.ID, r.Origin, r.Hops, r.Payload, false)
	e.mu.Unlock()
}

// receiveLocked takes one receipt of a rumor: one published or injected, or
// one still lying in a message body. The machine is asked with the sum of the
// ID where it lies, so a duplicate is dropped before anything is built; a
// first receipt is copied once, into the store's slot, and delivered and
// spread from there. viaPull marks rumors learned through anti-entropy, which
// are stored and delivered but not eagerly re-forwarded (they spread through
// subsequent pulls).
func receiveLocked[T string | []byte](e *Engine, ctx context.Context, id, origin T, hops int, payload []byte, viaPull bool) {
	sum := IDSum(id)
	first, t := e.m.Receive(sum, viaPull)
	if !first {
		e.stats.Duplicates++
		if t.Send != SendNothing {
			// The store's copy serves; the receipt is copied only if it was
			// evicted.
			h, ok := e.m.Get(sum)
			if !ok {
				h = newHeld(nil, id, origin, hops, payload)
			}
			e.sendLocked(ctx, h.view(), t)
		}
		return
	}
	// Hold is a no-op on a sum the store still holds (the seen cache forgot
	// it first), so the evictee is reused only for a sum Hold will take, and
	// never under a Deliver callback, which may keep views of its slab.
	var slab []byte
	if _, ok := e.m.Get(sum); !ok && e.cfg.Deliver == nil {
		if ev, ok := e.m.Evictee(); ok {
			slab = ev.slab
		}
	}
	h := newHeld(slab, id, origin, hops, payload)
	e.m.Hold(sum, h)
	e.stats.Delivered++
	if e.cfg.Deliver != nil {
		// The callback runs under e.mu: it must not call back into the
		// engine synchronously from another goroutine.
		e.cfg.Deliver(h.rumor())
	}
	e.sendLocked(ctx, h.view(), e.m.Spread(sum, e.cfg.Style, hops, viaPull))
}

// sendLocked carries out the machine's decision t for v: the payload to t's
// share of random peers, or an IHAVE naming it, as an announce round of one.
// Each body is written once into a pooled buffer shared by its sends.
func (e *Engine) sendLocked(ctx context.Context, v rumorView, t Transfer) {
	if t.Send == SendNothing {
		return
	}
	if t.Send == SendAnnounce {
		e.m.Queue(t, v.id, v.hops, e.cfg.Fanout, "", nil)
		r := e.m.AnnounceRound(e.drawLocked, false)
		for peers, list := range r.IHaves {
			bp := getBody()
			body := appendBatch(*bp, wireRefs, len(list))
			for _, a := range list {
				body = appendRef(body, a.ID, a.Hops)
			}
			e.sendAllLocked(ctx, peers, ActionIHave, body, &e.stats.IHaveSent)
			putBody(bp, body)
		}
		e.m.Done(r)
		return
	}
	var buf [8]string
	v.hops = t.Hops(v.hops)
	bp := getBody()
	body := appendRumor(appendBatch(*bp, wireRumors, 1), v)
	e.sendAllLocked(ctx, e.drawLocked(buf[:0], nil, t.Peers(e.cfg.Fanout)), ActionPush, body, &e.stats.Forwarded)
	putBody(bp, body)
}

// sendAllLocked sends body to each of peers, counting each send in sent.
func (e *Engine) sendAllLocked(ctx context.Context, peers []string, action string, body []byte, sent *int64) {
	for _, p := range peers {
		e.sendOneLocked(ctx, p, action, body)
		*sent++
	}
}

// drawLocked is the engine's Draw, and its draw for every send: n peers from
// its one peer source, so a round draws once, never per group. A
// UniformPeers, the simulator's provider at scale, draws into dst, asked by
// its concrete type, since a buffer handed through the PeerProvider
// interface would escape to the heap.
func (e *Engine) drawLocked(dst []string, a *Announcement, n int) []string {
	if a != nil {
		return dst
	}
	if u, ok := e.cfg.Peers.(*UniformPeers); ok {
		return u.AppendPeers(dst, e.rng, n, e.cfg.Endpoint.Addr())
	}
	return append(dst, e.cfg.Peers.SelectPeers(e.rng, n, e.cfg.Endpoint.Addr())...)
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
		receiveLocked(e, ctx, v.id, v.origin, v.hops, v.payload, viaPull)
	}
	return nil
}

// handleIHave requests the rumors the machine wants (Machine.IHave) in one
// IWANT, whose hop fields are 0: a rumor is served at the budget it is held
// with. An IWANT that cannot be sent releases its requests.
func (e *Engine) handleIHave(ctx context.Context, msg transport.Message) error {
	rd, err := readWire(msg.Body, wireRefs)
	if err != nil {
		return err
	}
	var inline [8][]byte
	ids := inline[:0]
	for rd.n > 0 && len(ids) <= DigestCap { // enough for the machine to refuse more
		ref, _ := rd.ref()
		ids = append(ids, ref.id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ids, held, err := e.m.IHave(ids)
	e.stats.Duplicates += int64(held)
	if err != nil || len(ids) == 0 {
		return err
	}
	bp := getBody()
	body := appendBatch(*bp, wireRefs, len(ids))
	for _, id := range ids {
		body = appendRef(body, id, 0)
	}
	if e.sendOneLocked(ctx, msg.From, ActionIWant, body) != nil {
		for _, id := range ids {
			e.m.Release(IDSum(id))
		}
	}
	putBody(bp, body)
	e.stats.IWantSent++
	return nil
}

// handleIWant serves the held rumors an IWANT asks for (Machine.IWant).
func (e *Engine) handleIWant(ctx context.Context, msg transport.Message) error {
	rd, err := readWire(msg.Body, wireRefs)
	if err != nil {
		return err
	}
	var inline [8][]byte
	ids := inline[:0]
	for rd.n > 0 {
		ref, _ := rd.ref()
		ids = append(ids, ref.id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var spare [8]held
	if out := e.m.IWant(spare[:0], ids); len(out) > 0 {
		e.serveLocked(ctx, msg.From, ActionPush, out)
		e.stats.Forwarded += int64(len(out))
	}
	return nil
}

// serveLocked sends hs in one body written straight from their slots, each
// transfer costing one hop.
func (e *Engine) serveLocked(ctx context.Context, to, action string, hs []held) {
	bp := getBody()
	body := appendBatch(*bp, wireRumors, len(hs))
	for i := range hs {
		v := hs[i].view()
		v.hops = ServedHops(v.hops)
		body = appendRumor(body, v)
	}
	e.sendOneLocked(ctx, to, action, body)
	putBody(bp, body)
}

// Tick runs one periodic round: it ends the request round
// (Machine.ReleaseStale), and for the styles that pull sends f random peers
// the machine's digest, written from scratch on the stack. Callers drive
// every engine uniformly.
func (e *Engine) Tick(ctx context.Context) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.m.ReleaseStale()
	if !e.cfg.Style.Pulls() {
		return
	}
	var buf [8]string
	var scratch [8 * DigestCap]byte
	sums, truncated := e.m.Digest(scratch[:0])
	bp := getBody()
	body := appendPull(*bp, sums, truncated)
	e.sendAllLocked(ctx, e.drawLocked(buf[:0], nil, e.cfg.Fanout), ActionPullReq, body, &e.stats.PullReqs)
	putBody(bp, body)
}

// handlePullReq answers a digest with the rumors the requester is missing
// (Machine.Missing), at most pullBatch, each transfer costing one hop. The
// sums are read into scratch on the stack.
func (e *Engine) handlePullReq(ctx context.Context, msg transport.Message) error {
	var scratch [DigestCap]uint64
	sums, truncated, err := readPull(&scratch, msg.Body)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var spare [pullBatch]held
	if missing := e.m.Missing(spare[:0], sums, truncated, pullBatch); len(missing) > 0 {
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
