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

// peerState is the per-peer half of the plane: the queue, the in-flight
// attempt, the breaker, and the timestamps the pump gates on. All fields
// are guarded by Plane.mu.
type peerState struct {
	addr  string
	queue []*item
	// inflight counts attempts in progress. A one-way message is attempted
	// only while it is 0 — one attempt in flight per peer — which is what
	// keeps per-peer delivery FIFO.
	inflight     int
	deferUntil   time.Duration // retry-after deferral from a shedding peer
	backoffUntil time.Duration // retry backoff from the last transport failure
	pumpAt       time.Duration // fire time of the scheduled pump, if any
	stopPump     func() bool
	br           breaker
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
type Plane struct {
	cfg Config
	m   *planeMetrics

	mu     sync.Mutex
	rng    *rand.Rand
	peers  map[string]*peerState
	free   []*item // settled items, for the next sends
	closed bool
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
	p := &Plane{
		cfg:   cfg.withDefaults(),
		m:     newPlaneMetrics(cfg.Metrics),
		rng:   cfg.RNG,
		peers: make(map[string]*peerState),
	}
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(1))
	}
	return p
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
	if p.closed {
		p.m.dropClosed.Inc()
		p.mu.Unlock()
		return nil, ErrClosed
	}
	ps := p.peerLocked(to)
	now := p.cfg.Clock.Now()
	if ps.br.open {
		if ps.br.probeDue(now) && ps.inflight == 0 && len(ps.queue) == 0 {
			ps.br.probing = true
		} else {
			p.m.dropCircuit.Inc()
			p.mu.Unlock()
			return nil, ErrCircuitOpen
		}
	}
	ps.inflight++
	p.m.inflight.Add(1)
	p.mu.Unlock()

	p.m.attempts.Inc()
	actx := newAttemptCtx()
	start := actx.begin(p, ctx)
	resp, err := p.cfg.Caller.Call(actx, to, env)
	actx.finish()
	p.m.attemptSec.Observe((p.cfg.Clock.Now() - start).Seconds())

	var notify func()
	p.mu.Lock()
	ps.inflight--
	p.m.inflight.Add(-1)
	now = p.cfg.Clock.Now()
	switch {
	case err == nil:
		notify = p.noteSuccessLocked(ps)
	case soap.IsSenderFault(err):
		p.m.failSender.Inc()
		notify = p.noteSuccessLocked(ps) // the peer answered; our request was bad
	default:
		if hint, ok := soap.RetryAfterHint(err); ok {
			p.m.failShed.Inc()
			p.m.deferrals.Inc()
			p.deferLocked(ps, now, hint)
			notify = p.noteSuccessLocked(ps) // overloaded ≠ down
		} else {
			p.m.failTransport.Inc()
			notify = p.noteFailureLocked(ps, now)
		}
	}
	p.schedulePumpLocked(ps, now)
	p.mu.Unlock()
	if notify != nil {
		notify()
	}
	return resp, err
}

// SendEncoded routes an already-serialized message: it decides inline
// attempt vs queue vs fast-fail under the lock, and attempts outside it.
// Ownership follows the soap.EncodedSender contract: on a nil return the
// plane owns data (and passes ownership on to the binding when the attempt
// lands); on an error return data stays with the caller. The item that
// carries data through the queue is drawn, once the plane has not refused
// the message outright, from the plane's free list and goes back to it once
// the message settles (see item), so a send that lands through a
// synchronous binding allocates nothing.
func (p *Plane) SendEncoded(ctx context.Context, to string, data []byte) error {
	p.mu.Lock()
	if p.closed {
		p.m.dropClosed.Inc()
		p.mu.Unlock()
		return ErrClosed
	}
	ps := p.peerLocked(to)
	now := p.cfg.Clock.Now()
	if ps.br.open {
		// A due circuit with nothing queued lets the fresh message probe;
		// otherwise fresh sends fast-fail so the fan-out reroutes while
		// the queued backlog waits for its pump.
		if ps.br.probeDue(now) && len(ps.queue) == 0 && ps.inflight == 0 {
			ps.br.probing = true
		} else {
			p.m.dropCircuit.Inc()
			p.mu.Unlock()
			return ErrCircuitOpen
		}
	}
	it := p.itemLocked(data)
	if !ps.br.probing &&
		(len(ps.queue) > 0 || ps.inflight > 0 ||
			ps.deferUntil > now || ps.backoffUntil > now) {
		if !p.enqueueLocked(ps, it, false) {
			p.m.dropQueueFull.Inc()
			p.releaseLocked(it)
			p.mu.Unlock()
			return ErrQueueFull
		}
		p.schedulePumpLocked(ps, now)
		p.mu.Unlock()
		return nil
	}
	ps.inflight++
	p.m.inflight.Add(1)
	p.mu.Unlock()

	err := p.attempt(ctx, to, it)

	p.mu.Lock()
	ps.inflight--
	p.m.inflight.Add(-1)
	ret, notify := p.settleLocked(ps, it, err)
	p.mu.Unlock()
	if notify != nil {
		notify()
	}
	return ret
}

// attempt performs one real send with the per-attempt timeout: a context of
// its own (newAttemptCtx). Called without the plane lock; the item is owned
// by exactly one attempt at a time.
func (p *Plane) attempt(ctx context.Context, to string, it *item) error {
	it.attempts++
	p.m.attempts.Inc()
	if it.attempts > 1 {
		p.m.retries.Inc()
	}
	actx := newAttemptCtx()
	start := actx.begin(p, ctx)
	err := p.cfg.Caller.SendEncoded(actx, to, it.data)
	actx.finish()
	p.m.attemptSec.Observe((p.cfg.Clock.Now() - start).Seconds())
	return err
}

// settleLocked classifies one attempt's outcome and updates the breaker,
// deferral, and queue accordingly. It returns the error the submitter
// should surface (nil when the plane keeps responsibility) and the
// OnPeerDown/OnPeerUp hook to run after unlocking, if the circuit just
// transitioned.
func (p *Plane) settleLocked(ps *peerState, it *item, err error) (ret error, notify func()) {
	now := p.cfg.Clock.Now()
	switch {
	case err == nil:
		notify = p.noteSuccessLocked(ps)
		p.releaseLocked(it)
		p.schedulePumpLocked(ps, now)
		return nil, notify
	case soap.IsSenderFault(err):
		// The receiver is alive and rejected these bytes for good: drop
		// the message, never the peer.
		p.m.failSender.Inc()
		p.m.dropSender.Inc()
		notify = p.noteSuccessLocked(ps)
		p.releaseLocked(it)
		p.schedulePumpLocked(ps, now)
		return err, notify
	default:
		if hint, ok := soap.RetryAfterHint(err); ok {
			p.m.failShed.Inc()
			p.m.deferrals.Inc()
			p.deferLocked(ps, now, hint)
			notify = p.noteSuccessLocked(ps)
			ret = p.requeueLocked(ps, it, now)
		} else {
			p.m.failTransport.Inc()
			notify = p.noteFailureLocked(ps, now)
			ps.backoffUntil = now + p.backoffLocked(it.attempts)
			ret = p.requeueLocked(ps, it, now)
		}
		// Re-arm the pump even when this item was dropped (budget spent,
		// queue full): messages behind it must not be stranded — with the
		// breaker open, fresh sends fast-fail and would never revive them.
		p.schedulePumpLocked(ps, now)
		return ret, notify
	}
}

// requeueLocked puts a failed item back at the head of its peer's queue
// for the next pump, unless its budget is spent or the queue is full, when
// the item is released.
func (p *Plane) requeueLocked(ps *peerState, it *item, now time.Duration) error {
	if it.attempts >= p.cfg.MaxAttempts {
		p.m.dropBudget.Inc()
		p.releaseLocked(it)
		return ErrBudgetExhausted
	}
	if !p.enqueueLocked(ps, it, true) {
		p.m.dropQueueFull.Inc()
		p.releaseLocked(it)
		return ErrQueueFull
	}
	p.schedulePumpLocked(ps, now)
	return nil
}

// enqueueLocked appends (or, for retries, prepends — preserving FIFO
// delivery order) it to the peer's bounded queue.
func (p *Plane) enqueueLocked(ps *peerState, it *item, front bool) bool {
	if len(ps.queue) >= p.cfg.QueueCap {
		return false
	}
	if front {
		ps.queue = append(ps.queue, nil)
		copy(ps.queue[1:], ps.queue)
		ps.queue[0] = it
	} else {
		ps.queue = append(ps.queue, it)
	}
	p.m.queueDepth.Add(1)
	return true
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

// noteSuccessLocked resets the peer's failure streak and closes an open
// circuit (successful half-open probe, or a send that landed anyway). It
// returns the OnPeerUp hook to run after unlocking when the circuit just
// closed.
func (p *Plane) noteSuccessLocked(ps *peerState) (up func()) {
	ps.br.fails = 0
	if ps.br.open {
		ps.br.open = false
		ps.br.probing = false
		p.m.transClosed.Inc()
		p.m.breakerOpen.Add(-1)
		if hook := p.cfg.OnPeerUp; hook != nil {
			addr := ps.addr
			return func() { hook(addr) }
		}
	}
	return nil
}

// noteFailureLocked records a transport failure against the breaker and
// returns the OnPeerDown hook when this failure opened the circuit.
func (p *Plane) noteFailureLocked(ps *peerState, now time.Duration) (down func()) {
	ps.br.fails++
	if ps.br.open {
		if ps.br.probing {
			// Failed half-open probe: stay open, restart the cooldown.
			ps.br.probing = false
			ps.br.openUntil = now + p.cfg.BreakerCooldown
		}
		return nil
	}
	if ps.br.fails >= p.cfg.BreakerThreshold {
		ps.br.open = true
		ps.br.openUntil = now + p.cfg.BreakerCooldown
		p.m.transOpen.Inc()
		p.m.breakerOpen.Add(1)
		if hook := p.cfg.OnPeerDown; hook != nil {
			addr := ps.addr
			return func() { hook(addr) }
		}
	}
	return nil
}

// deferLocked extends the peer's retry-after deferral window.
func (p *Plane) deferLocked(ps *peerState, now time.Duration, hint time.Duration) {
	if until := now + hint; until > ps.deferUntil {
		ps.deferUntil = until
	}
}

// backoffLocked returns the jittered exponential delay before retry number
// attempts+1: nominal base<<(attempts-1) capped at BackoffMax, drawn
// uniformly from [d/2, d].
func (p *Plane) backoffLocked(attempts int) time.Duration {
	d := p.cfg.BackoffMax
	if attempts < 20 {
		if nominal := p.cfg.BackoffBase << (attempts - 1); nominal < d {
			d = nominal
		}
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(p.rng.Int63n(int64(half)+1))
}

// schedulePumpLocked (re)arms the peer's pump timer for the earliest
// instant its head-of-queue message may be attempted: now, or when the
// deferral / retry backoff / breaker cooldown expires, whichever is
// latest. A pump already armed for an earlier instant is left alone — it
// re-derives the gates when it fires.
func (p *Plane) schedulePumpLocked(ps *peerState, now time.Duration) {
	if p.closed || len(ps.queue) == 0 || ps.inflight > 0 {
		return
	}
	if ps.br.open && ps.br.probing {
		return // the in-flight probe's outcome reschedules
	}
	at := now
	if ps.deferUntil > at {
		at = ps.deferUntil
	}
	if ps.backoffUntil > at {
		at = ps.backoffUntil
	}
	if ps.br.open && ps.br.openUntil > at {
		at = ps.br.openUntil
	}
	if ps.stopPump != nil {
		if ps.pumpAt <= at {
			return
		}
		ps.stopPump()
	}
	addr := ps.addr
	ps.pumpAt = at
	ps.stopPump = p.cfg.Clock.AfterFunc(at-now, func() { p.pump(addr) })
}

// pump drains a peer's queue: attempt the head message, and on success
// keep going; on failure settleLocked has already armed the backoff /
// cooldown / deferral pump, so stop. Runs on the clock's firing goroutine
// — under clock.Virtual that is the Advance caller, which is what makes
// the whole retry schedule deterministic.
func (p *Plane) pump(addr string) {
	var notifies []func()
	p.mu.Lock()
	ps, ok := p.peers[addr]
	if !ok {
		p.mu.Unlock()
		return
	}
	ps.pumpAt = 0
	ps.stopPump = nil
	for {
		if p.closed || len(ps.queue) == 0 || ps.inflight > 0 {
			break
		}
		now := p.cfg.Clock.Now()
		if ps.deferUntil > now || ps.backoffUntil > now {
			p.schedulePumpLocked(ps, now)
			break
		}
		if ps.br.open {
			if !ps.br.probeDue(now) {
				p.schedulePumpLocked(ps, now)
				break
			}
			ps.br.probing = true
		}
		it := ps.queue[0]
		ps.queue = ps.queue[1:]
		p.m.queueDepth.Add(-1)
		ps.inflight++
		p.m.inflight.Add(1)
		p.mu.Unlock()

		err := p.attempt(context.Background(), addr, it)

		p.mu.Lock()
		ps.inflight--
		p.m.inflight.Add(-1)
		_, notify := p.settleLocked(ps, it, err)
		if notify != nil {
			notifies = append(notifies, notify)
		}
		if err != nil {
			break
		}
	}
	p.mu.Unlock()
	for _, notify := range notifies {
		notify()
	}
}

// peerLocked returns (creating on first use) the peer's state.
func (p *Plane) peerLocked(addr string) *peerState {
	ps, ok := p.peers[addr]
	if !ok {
		ps = &peerState{addr: addr}
		p.peers[addr] = ps
	}
	return ps
}

// Close stops every pump timer and drops the queued backlog (counted as
// delivery_drops_total{reason="closed"}). Subsequent sends fail with
// ErrClosed.
func (p *Plane) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, ps := range p.peers {
		if ps.stopPump != nil {
			ps.stopPump()
			ps.stopPump = nil
		}
		if n := len(ps.queue); n > 0 {
			p.m.dropClosed.Add(int64(n))
			p.m.queueDepth.Add(-int64(n))
			ps.queue = nil
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
	out := make([]PeerState, 0, len(p.peers))
	for _, ps := range p.peers {
		st := PeerState{
			Addr:             ps.addr,
			Queued:           len(ps.queue),
			Inflight:         ps.inflight,
			Breaker:          ps.br.label(),
			ConsecutiveFails: ps.br.fails,
		}
		if ps.deferUntil > now {
			st.DeferredFor = ps.deferUntil - now
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
	st := Stats{Peers: len(p.peers)}
	for _, ps := range p.peers {
		st.Queued += len(ps.queue)
		st.Inflight += ps.inflight
		if ps.br.open {
			st.OpenCircuits++
		}
		if ps.deferUntil > now {
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
