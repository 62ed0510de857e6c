package delivery

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// Fast-failure sentinels: a Send returning one of these means the plane
// refused responsibility for the message and the caller should treat the
// target as failed (soap.Fanout adds it to the failed list and epidemic
// redundancy reroutes).
var (
	// ErrQueueFull reports a peer whose bounded outbound queue is at
	// capacity.
	ErrQueueFull = errors.New("delivery: peer queue full")
	// ErrCircuitOpen reports a peer whose circuit breaker is open and not
	// yet due for a probe.
	ErrCircuitOpen = errors.New("delivery: circuit open")
	// ErrBudgetExhausted reports a message that consumed its whole attempt
	// budget without landing.
	ErrBudgetExhausted = errors.New("delivery: attempt budget exhausted")
	// ErrClosed reports a send after Close.
	ErrClosed = errors.New("delivery: plane closed")
)

// Config parameterizes a Plane. Caller and Clock are required; every
// numeric field falls back to the listed default when zero.
type Config struct {
	// Caller is the underlying binding. The plane hands it bytes, and
	// retries the same buffer.
	Caller soap.Caller
	// Clock drives every policy timer (backoff, cooldown, deferral,
	// attempt timeout). Under clock.Virtual the whole plane is
	// deterministic.
	Clock clock.Clock
	// RNG seeds backoff jitter. Defaults to a fixed-seed source; pass the
	// node's seeded RNG for scenario determinism.
	RNG *rand.Rand
	// Metrics receives the delivery_* series; nil means unobserved.
	Metrics *metrics.Registry
	// QueueCap bounds each peer's outbound queue. Default 64.
	QueueCap int
	// AttemptTimeout cancels a single attempt's context. Default 2s.
	AttemptTimeout time.Duration
	// MaxAttempts is the per-message budget, first try included. Default 4.
	MaxAttempts int
	// BackoffBase is the nominal delay before the first retry; each
	// further retry doubles it (jittered to [d/2, d]). Default 100ms.
	BackoffBase time.Duration
	// BackoffMax caps the doubling. Default 5s.
	BackoffMax time.Duration
	// BreakerThreshold is the consecutive-transport-failure count that
	// opens a peer's circuit. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit fast-fails before
	// admitting a half-open probe. Default 5s.
	BreakerCooldown time.Duration
	// OnPeerDown, when set, runs (outside the plane's lock) each time a
	// peer's circuit transitions closed → open — the hook the membership
	// layer uses to mark the peer suspect (or, with an indirect prober
	// interposed, to open a confirmation round first).
	OnPeerDown func(addr string)
	// OnPeerUp, when set, runs (outside the plane's lock) each time a
	// peer's circuit transitions open → closed — the direct path works
	// again, so probe-derived degraded marks can be cleared.
	OnPeerUp func(addr string)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.QueueCap <= 0 {
		out.QueueCap = 64
	}
	if out.AttemptTimeout <= 0 {
		out.AttemptTimeout = 2 * time.Second
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 4
	}
	if out.BackoffBase <= 0 {
		out.BackoffBase = 100 * time.Millisecond
	}
	if out.BackoffMax <= 0 {
		out.BackoffMax = 5 * time.Second
	}
	if out.BreakerThreshold <= 0 {
		out.BreakerThreshold = 5
	}
	if out.BreakerCooldown <= 0 {
		out.BreakerCooldown = 5 * time.Second
	}
	if out.RNG == nil {
		out.RNG = rand.New(rand.NewSource(1))
	}
	return out
}

// item is one queued message: its encoded bytes (retries reuse the buffer —
// on attempt failure the binding leaves ownership with us, on success it
// recycles).
//
// Items never reach a binding, so the plane recycles them through its free
// list (releaseLocked) once the message settles: landed, refused for good by
// its receiver, or dropped on budget or queue. The attempt contexts a
// binding is handed are not recycled: a binding may keep one past return
// and use it any time later, so each attempt's is an object of its own,
// carved from a slab (newAttemptCtx).
type item struct {
	data     []byte
	attempts int
}

// Plane is the failure-aware outbound delivery plane. It implements
// soap.Caller, so it slots between any role and the real binding: role code
// keeps calling Send/Fanout, the plane decides what "send" means for each
// peer right now.
//
// Send semantics: a nil return means the plane took responsibility — the
// message was delivered, or is queued and will be retried within its
// budget. An error return means the plane refused (queue full, circuit
// open, closed) or the receiver permanently rejected the bytes (Sender
// fault); the message will not be retried.
//
// Ownership: a message's bytes go to the binding with the attempt that
// lands them, and back to the caller with an error return; the plane's own
// record of a message (item) is recycled once the message settles, and the
// context each attempt hands its binding is never reused, since a binding
// may keep it.
//
// The policy — what to attempt, when, and what an outcome means — is the
// machine's; the Plane is its binding: the lock, the pump timers, the
// attempts, the free list, the metrics and the hooks.
type Plane struct {
	cfg Config
	m   *planeMetrics

	mu   sync.Mutex
	mach *machine
	free []*item // settled items, for the next sends
}

// maxFreeItems bounds the plane's free list: a burst beyond it leaves its
// items to the GC.
const maxFreeItems = 256

var _ soap.Caller = (*Plane)(nil)

// NewPlane wraps cfg.Caller in a delivery plane.
func NewPlane(cfg Config) *Plane {
	if cfg.Caller == nil {
		panic("delivery: Config.Caller is required")
	}
	if cfg.Clock == nil {
		panic("delivery: Config.Clock is required")
	}
	cfg = cfg.withDefaults()
	return &Plane{
		cfg:  cfg,
		m:    newPlaneMetrics(cfg.Metrics),
		mach: &machine{cfg: cfg, peers: make(map[string]*peer)},
	}
}

// Send routes a one-way message through the peer's queue/retry/breaker
// policy, encoded once: see SendEncoded, and Plane for the nil-vs-error
// contract. The envelope is not retained.
func (p *Plane) Send(ctx context.Context, to string, env *soap.Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return p.SendEncoded(ctx, to, data)
}

// Call performs a request-response exchange through the breaker (open
// circuit → ErrCircuitOpen, due circuit → the call is the probe) with the
// per-attempt timeout applied. Calls are control-plane traffic: they are
// never queued or retried, and deferral does not hold them back — the
// response is needed now or not at all.
func (p *Plane) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	p.mu.Lock()
	pe, err := p.admitLocked(to, nil)
	p.mu.Unlock()
	if pe == nil {
		return nil, err
	}
	resp, err := p.attempt(ctx, pe, nil, env)
	p.settle(pe, nil, err)
	return resp, err
}

// SendEncoded routes an already-serialized message: the machine decides
// attempt vs queue vs fast-fail under the lock, and the attempt runs outside
// it. Ownership follows the soap.EncodedSender contract: on a nil return the
// plane owns data (and passes ownership on to the binding when the attempt
// lands); on an error return data stays with the caller. The item that
// carries data through the queue is drawn from the plane's free list and goes
// back to it once the message settles (see item), so a send that lands
// through a synchronous binding allocates nothing.
func (p *Plane) SendEncoded(ctx context.Context, to string, data []byte) error {
	p.mu.Lock()
	it := p.itemLocked(data)
	pe, err := p.admitLocked(to, it)
	p.mu.Unlock()
	if pe == nil {
		return err
	}
	_, err = p.attempt(ctx, pe, it, nil)
	return p.settle(pe, it, err)
}

// admitLocked carries out the machine's admission of fresh traffic to addr:
// it returns the peer when an attempt starts now, and otherwise nil with the
// refusal, or with nil when the message was queued.
func (p *Plane) admitLocked(addr string, it *item) (*peer, error) {
	now := p.cfg.Clock.Now()
	pe, start, err := p.mach.admit(addr, it, now)
	switch {
	case start:
		p.m.inflight.Add(1)
		return pe, nil
	case err != nil:
		p.m.drop(err)
		if it != nil {
			p.releaseLocked(it)
		}
	default:
		p.m.queueDepth.Add(1)
		p.armLocked(pe, now)
	}
	return nil, err
}

// attempt performs one real send to pe with the per-attempt timeout: the
// bytes of it, or env as a Call when it is nil. Called without the plane
// lock; an item is owned by exactly one attempt at a time.
func (p *Plane) attempt(ctx context.Context, pe *peer, it *item, env *soap.Envelope) (resp *soap.Envelope, err error) {
	p.m.attempts.Inc()
	if it != nil && it.attempts > 1 {
		p.m.retries.Inc()
	}
	actx := newAttemptCtx()
	start := actx.begin(p, ctx)
	if it == nil {
		resp, err = p.cfg.Caller.Call(actx, pe.addr, env)
	} else {
		err = p.cfg.Caller.SendEncoded(actx, pe.addr, it.data)
	}
	actx.finish()
	p.m.attemptSec.Observe((p.cfg.Clock.Now() - start).Seconds())
	return resp, err
}

// settle settles an attempt made outside the lock, and runs its hook.
func (p *Plane) settle(pe *peer, it *item, err error) error {
	p.mu.Lock()
	ret, hook := p.settleLocked(pe, it, err)
	p.mu.Unlock()
	if hook != nil {
		hook(pe.addr)
	}
	return ret
}

// settleLocked carries out the machine's settlement of one attempt: it
// counts the outcome, recycles an item that is not requeued, and re-arms the
// pump. It returns the error the submitter should surface (nil when the
// plane keeps responsibility) and the OnPeerDown/OnPeerUp hook to run after
// unlocking, if the circuit just changed state.
func (p *Plane) settleLocked(pe *peer, it *item, err error) (ret error, hook func(addr string)) {
	now := p.cfg.Clock.Now()
	o, t, ret, requeued := p.mach.settle(pe, it, err, now)
	p.m.inflight.Add(-1)
	p.m.settled(o, t)
	p.m.drop(ret)
	switch {
	case requeued:
		p.m.queueDepth.Add(1)
	case it != nil:
		p.releaseLocked(it)
	}
	// Re-arm the pump even when this item was dropped (budget spent,
	// queue full): messages behind it must not be stranded — with the
	// breaker open, fresh sends fast-fail and would never revive them.
	p.armLocked(pe, now)
	switch t {
	case wentDown:
		hook = p.cfg.OnPeerDown
	case wentUp:
		hook = p.cfg.OnPeerUp
	}
	return ret, hook
}

// itemLocked returns an item for a message: one from the free list, or a
// new one.
func (p *Plane) itemLocked(data []byte) *item {
	var it *item
	if n := len(p.free); n > 0 {
		it = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		it = new(item)
	}
	it.data = data
	return it
}

// releaseLocked hands a settled item back to the free list, zeroed. The
// item must not be used afterwards.
func (p *Plane) releaseLocked(it *item) {
	if len(p.free) >= maxFreeItems {
		return
	}
	*it = item{}
	p.free = append(p.free, it)
}

// armLocked (re)arms the peer's pump timer for the instant the machine says
// its head of queue is due. A pump already armed for that instant or an
// earlier one is left alone — the machine re-derives the gates when it fires.
func (p *Plane) armLocked(pe *peer, now time.Duration) {
	at, ok := p.mach.due(pe, now)
	if !ok {
		return
	}
	if pe.stopPump != nil {
		if pe.pumpAt <= at {
			return
		}
		pe.stopPump()
	}
	pe.pumpAt = at
	pe.stopPump = p.cfg.Clock.AfterFunc(at-now, func() { p.pump(pe) })
}

// pump drains a peer's queue: attempt the head message while the machine
// says it is due, and on success keep going; on failure settleLocked has
// already armed the backoff / cooldown / deferral pump, so stop. Runs on the
// clock's firing goroutine — under clock.Virtual that is the Advance caller,
// which is what makes the whole retry schedule deterministic.
func (p *Plane) pump(pe *peer) {
	var hooks []func(string)
	p.mu.Lock()
	pe.pumpAt, pe.stopPump = 0, nil
	for {
		now := p.cfg.Clock.Now()
		it := p.mach.next(pe, now)
		if it == nil {
			p.armLocked(pe, now)
			break
		}
		p.m.queueDepth.Add(-1)
		p.m.inflight.Add(1)
		p.mu.Unlock()

		_, err := p.attempt(context.Background(), pe, it, nil)

		p.mu.Lock()
		if _, hook := p.settleLocked(pe, it, err); hook != nil {
			hooks = append(hooks, hook)
		}
		if err != nil {
			break
		}
	}
	p.mu.Unlock()
	for _, hook := range hooks {
		hook(pe.addr)
	}
}

// Close stops every pump timer and drops the queued backlog (counted as
// delivery_drops_total{reason="closed"}). Subsequent sends fail with
// ErrClosed, and so does a message whose attempt was in flight at Close and
// failed.
func (p *Plane) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := int64(p.mach.close())
	p.m.dropClosed.Add(n)
	p.m.queueDepth.Add(-n)
	for _, pe := range p.mach.peers {
		if pe.stopPump != nil {
			pe.stopPump()
			pe.stopPump = nil
		}
	}
}

// PeerState is one peer's delivery posture, for health introspection.
type PeerState struct {
	// Addr is the peer's endpoint address.
	Addr string `json:"addr"`
	// Queued is the peer's outbound backlog.
	Queued int `json:"queued"`
	// Inflight is the number of attempts currently in flight.
	Inflight int `json:"inflight"`
	// Breaker is the circuit state: "closed", "open", or "half-open".
	Breaker string `json:"breaker"`
	// ConsecutiveFails is the current transport-failure streak.
	ConsecutiveFails int `json:"consecutive_fails,omitempty"`
	// DeferredFor is the remaining retry-after deferral, when positive.
	DeferredFor time.Duration `json:"deferred_for,omitempty"`
}

// States returns every tracked peer's posture, sorted by address.
func (p *Plane) States() []PeerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.cfg.Clock.Now()
	out := make([]PeerState, 0, len(p.mach.peers))
	for _, pe := range p.mach.peers {
		st := PeerState{
			Addr:             pe.addr,
			Queued:           len(pe.queue),
			Inflight:         pe.inflight,
			Breaker:          "closed",
			ConsecutiveFails: pe.br.fails,
		}
		switch {
		case pe.br.probing:
			st.Breaker = "half-open"
		case pe.br.open:
			st.Breaker = "open"
		}
		if pe.deferUntil > now {
			st.DeferredFor = pe.deferUntil - now
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Stats is the plane-wide summary the health endpoint reports.
type Stats struct {
	// Peers is the number of peers with tracked delivery state.
	Peers int `json:"peers"`
	// Queued is the total outbound backlog across peers.
	Queued int `json:"queued"`
	// Inflight is the total number of in-flight attempts.
	Inflight int `json:"inflight"`
	// OpenCircuits counts peers whose breaker is open or half-open.
	OpenCircuits int `json:"open_circuits"`
	// Deferred counts peers inside a retry-after deferral window.
	Deferred int `json:"deferred"`
}

// Stats summarizes the plane across peers.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.cfg.Clock.Now()
	st := Stats{Peers: len(p.mach.peers)}
	for _, pe := range p.mach.peers {
		st.Queued += len(pe.queue)
		st.Inflight += pe.inflight
		if pe.br.open {
			st.OpenCircuits++
		}
		if pe.deferUntil > now {
			st.Deferred++
		}
	}
	return st
}

// orBackground guards against nil contexts from internal retry paths.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}
