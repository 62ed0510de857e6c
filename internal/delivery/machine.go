package delivery

import (
	"time"

	"wsgossip/internal/soap"
)

// machine is the plane's per-peer delivery policy, written without I/O: it
// takes no lock, reads no clock, arms no timer and calls no binding. Every
// instant is passed in as now, and every decision comes back as a value the
// Plane carries out. It makes three decisions, each in one place:
//
//   - admission: a message is attempted now, as the half-open probe when
//     the circuit is open, queued, or refused. The open-circuit rule is
//     breaker.shut and breaker.ready; admit applies it to fresh traffic,
//     next (through due) to the head of a queue, admits to peer sampling;
//   - the outcome of an attempt (settle, classify): landed, rejected,
//     shed or failed, with its circuit transition and the message's fate;
//   - the next-due instant (due): when the head of a queue may go.
//
// The Plane guards a machine with its mutex.
type machine struct {
	cfg    Config // with defaults; only the policy fields and RNG are read
	peers  map[string]*peer
	closed bool
}

// peer is one peer's policy state.
type peer struct {
	addr  string
	queue []*item
	// inflight counts attempts in progress. A one-way message is attempted
	// only while it is 0 — one attempt in flight per peer — which is what
	// keeps per-peer delivery FIFO. Calls do not wait for it.
	inflight     int
	deferUntil   time.Duration // retry-after deferral from a shedding peer
	backoffUntil time.Duration // retry backoff from the last transport failure
	br           breaker

	// pumpAt and stopPump are the Plane's pump timer for this peer, if one
	// is armed; the machine never reads them.
	pumpAt   time.Duration
	stopPump func() bool
}

// breaker is one peer's circuit: the classic three-state breaker with a lazy
// half-open. closed → (threshold consecutive transport failures) → open →
// (cooldown elapses, next traffic becomes the single probe) → half-open →
// closed on probe success, back to open on probe failure. "Lazy" means no
// timer flips the state — openUntil is compared against now whenever traffic
// wants through, so an idle open circuit costs nothing and the probe is
// always a real message, never a synthetic ping.
type breaker struct {
	open      bool
	probing   bool // a half-open probe is in flight
	fails     int  // consecutive transport failures
	openUntil time.Duration
}

// shut is the open-circuit rule: an open circuit refuses every message
// until it is ready, and then all but its one probe.
func (b *breaker) shut(now time.Duration) bool {
	return b.probing || now < b.ready()
}

// ready is the instant the circuit lets a message through: the end of its
// cooldown while open, and 0 when closed.
func (b *breaker) ready() time.Duration {
	if !b.open {
		return 0
	}
	return b.openUntil
}

// outcome is the class of one attempt's result.
type outcome uint8

const (
	landed   outcome = iota // the attempt succeeded
	rejected                // a Sender fault: the peer is alive, the bytes are bad for good
	shed                    // a retry-after fault: the peer is alive but busy
	failed                  // a transport failure: the peer may be down
)

// transition is a circuit's change of state on an outcome.
type transition uint8

const (
	stayed transition = iota
	wentDown
	wentUp
)

// admit decides what to do with fresh traffic to addr — it for a one-way
// message, nil for a Call — and returns the peer's state (nil when the plane
// is closed). start reports an attempt begun now; otherwise a nil error means
// it was queued, and an error says why the message is refused. An open
// circuit with nothing ahead lets the message through as its probe, deferred
// or not; otherwise fresh traffic fast-fails so the fan-out reroutes while the
// backlog waits for its pump. Calls are never queued, and deferral does not
// hold them back.
func (m *machine) admit(addr string, it *item, now time.Duration) (pe *peer, start bool, err error) {
	if m.closed {
		return nil, false, ErrClosed
	}
	pe = m.peers[addr]
	if pe == nil {
		pe = &peer{addr: addr}
		m.peers[addr] = pe
	}
	ahead := len(pe.queue) > 0 || pe.inflight > 0
	switch {
	case pe.br.shut(now) || (pe.br.open && ahead):
		return pe, false, ErrCircuitOpen
	case it != nil && !pe.br.open && (ahead || pe.deferUntil > now || pe.backoffUntil > now):
		return pe, false, m.push(pe, it, false)
	}
	pe.begin(it)
	return pe, true, nil
}

// admits reports whether the circuit to addr lets traffic through at now: a
// circuit due for its probe does.
func (m *machine) admits(addr string, now time.Duration) bool {
	pe := m.peers[addr]
	return pe == nil || !pe.br.shut(now)
}

// due returns the instant the head of pe's queue may next be attempted: now,
// or when the deferral, the retry backoff or the breaker's cooldown runs out,
// whichever is latest. ok is false when there is nothing to pump — the queue
// is empty, or an attempt is in flight, whose settlement asks again.
func (m *machine) due(pe *peer, now time.Duration) (at time.Duration, ok bool) {
	if len(pe.queue) == 0 || pe.inflight > 0 {
		return 0, false
	}
	return max(now, pe.deferUntil, pe.backoffUntil, pe.br.ready()), true
}

// next takes the head of pe's queue and begins its attempt when it is due at
// now; otherwise it returns nil.
func (m *machine) next(pe *peer, now time.Duration) *item {
	if at, ok := m.due(pe, now); !ok || at > now {
		return nil
	}
	it := pe.queue[0]
	pe.queue[0] = nil
	pe.queue = pe.queue[1:]
	pe.begin(it)
	return it
}

// begin books an attempt to pe: the probe, when the circuit is open.
func (pe *peer) begin(it *item) {
	pe.inflight++
	if pe.br.open {
		pe.br.probing = true
	}
	if it != nil {
		it.attempts++
	}
}

// classify sorts an attempt's error into its outcome, with a shed's
// retry-after hint.
func classify(err error) (outcome, time.Duration) {
	switch {
	case err == nil:
		return landed, 0
	case soap.IsSenderFault(err):
		return rejected, 0
	}
	if hint, ok := soap.RetryAfterHint(err); ok {
		return shed, hint
	}
	return failed, 0
}

// settle applies the outcome of one attempt to pe — of it, or of a Call when
// it is nil — to the breaker, the deferral and the backoff. For a one-way
// message it also decides the message's fate: landed, dropped (drop says
// why; a Sender fault drops it with err itself) or, when requeued is true,
// back at the head of the queue for the next pump. A peer that answered at
// all, even to shed or reject, is up: only a transport failure counts toward
// the breaker and backs off the queue.
func (m *machine) settle(pe *peer, it *item, err error, now time.Duration) (o outcome, t transition, drop error, requeued bool) {
	pe.inflight--
	o, hint := classify(err)
	switch o {
	case failed:
		t = pe.br.fail(now, m.cfg.BreakerThreshold, m.cfg.BreakerCooldown)
		if it != nil {
			pe.backoffUntil = now + m.backoff(it.attempts)
		}
	case shed:
		pe.deferUntil = max(pe.deferUntil, now+hint)
		fallthrough
	default:
		t = pe.br.succeed()
	}
	switch {
	case it == nil || o == landed:
		return o, t, nil, false
	case o == rejected:
		return o, t, err, false
	case it.attempts >= m.cfg.MaxAttempts:
		return o, t, ErrBudgetExhausted, false
	case m.closed:
		return o, t, ErrClosed, false
	}
	drop = m.push(pe, it, true)
	return o, t, drop, drop == nil
}

// push appends it to pe's bounded queue, or prepends it for a retry, which
// keeps delivery FIFO.
func (m *machine) push(pe *peer, it *item, front bool) error {
	if len(pe.queue) >= m.cfg.QueueCap {
		return ErrQueueFull
	}
	if front {
		pe.queue = append(pe.queue, nil)
		copy(pe.queue[1:], pe.queue)
		pe.queue[0] = it
	} else {
		pe.queue = append(pe.queue, it)
	}
	return nil
}

// succeed resets the failure streak and closes an open circuit (a successful
// half-open probe, or an attempt that landed anyway).
func (b *breaker) succeed() transition {
	b.fails = 0
	if !b.open {
		return stayed
	}
	b.open, b.probing = false, false
	return wentUp
}

// fail records a transport failure: it opens the circuit at the threshold,
// and a failed probe restarts the cooldown.
func (b *breaker) fail(now time.Duration, threshold int, cooldown time.Duration) transition {
	b.fails++
	switch {
	case b.open && b.probing:
		b.probing = false
		b.openUntil = now + cooldown
	case !b.open && b.fails >= threshold:
		b.open = true
		b.openUntil = now + cooldown
		return wentDown
	}
	return stayed
}

// backoff returns the jittered exponential delay before retry number
// attempts+1: nominal base<<(attempts-1) capped at BackoffMax, drawn
// uniformly from [d/2, d].
func (m *machine) backoff(attempts int) time.Duration {
	d := m.cfg.BackoffMax
	if attempts < 20 {
		d = min(d, m.cfg.BackoffBase<<(attempts-1))
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(m.cfg.RNG.Int63n(int64(half)+1))
}

// close empties every queue and refuses all traffic from now on. It returns
// the number of queued messages it dropped.
func (m *machine) close() (dropped int) {
	m.closed = true
	for _, pe := range m.peers {
		dropped += len(pe.queue)
		pe.queue = nil
	}
	return dropped
}
