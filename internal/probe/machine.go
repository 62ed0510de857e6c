package probe

import (
	"strconv"
	"time"
)

// machine is the indirect prober written without I/O: it takes no lock,
// reads no clock, arms no timer and sends nothing. Each input is one method,
// taking now where time matters, whose outcome comes back as a value for the
// Prober to carry out. A round opens in confirm and resolves once: averted
// in pingReqAck, timed out in expire, or dropped in close; a relay opens in
// pingReq and reports back at most once, in pingAck. Every round and relay
// lasts timeout, so they fall due in the order they open: one queue in that
// order holds their expiries, and due is its head. The Prober guards a
// machine with its mutex.
type machine struct {
	self    string
	k       int
	timeout time.Duration

	seq      uint64                 // the nonce sequence, shared by rounds and relays
	closed   bool                   // after close no input opens, resolves or sends
	rounds   map[string]string      // open confirmation rounds: target → nonce
	relays   map[string]pingReqBody // relayed pings awaiting their ack: relay nonce → ping-req
	queue    []expiry               // the expiries of rounds and relays, in opening order
	degraded map[string]bool        // targets whose last round was averted
}

// expiry is when a round (target, nonce) or a relay (nonce) times out; one
// that resolved first expires as nothing.
type expiry struct {
	target, nonce string
	due           time.Duration
}

// outcome is what one input asks of the Prober once it unlocks: the messages
// to send, and the targets whose rounds ended with result.
type outcome struct {
	sends   []message
	result  string // ResultAverted, ResultTimeout or ResultNoHelpers
	targets []string
}

// message is one probe message, with the probe_messages_total type it counts
// as.
type message struct {
	action, to, typ string
	body            any
}

func newMachine(self string, k int, timeout time.Duration) *machine {
	return &machine{self: self, k: k, timeout: timeout, rounds: make(map[string]string),
		relays: make(map[string]pingReqBody), degraded: make(map[string]bool)}
}

// open draws the next nonce (self, sep, the sequence number) and queues its
// expiry for target.
func (m *machine) open(target, sep string, now time.Duration) string {
	m.seq++
	nonce := m.self + sep + strconv.FormatUint(m.seq, 10)
	m.queue = append(m.queue, expiry{target: target, nonce: nonce, due: now + m.timeout})
	return nonce
}

// confirm opens a round for target unless one is open or the machine is
// closed, and only then calls draw for helper candidates, so the caller's
// sampler is drawn at exactly that point. Up to k of them, in draw order,
// each get a ping-req; with none to ask, the target is conceded at once.
func (m *machine) confirm(target string, draw func() []string, now time.Duration) (o outcome) {
	if _, open := m.rounds[target]; open || m.closed {
		return o
	}
	cands := draw()
	helpers := cands[:0]
	for _, h := range cands {
		if h != target && h != m.self && (m.k <= 0 || len(helpers) < m.k) {
			helpers = append(helpers, h)
		}
	}
	if len(helpers) == 0 {
		delete(m.degraded, target)
		return outcome{result: ResultNoHelpers, targets: []string{target}}
	}
	nonce := m.open(target, "#", now)
	m.rounds[target] = nonce
	for _, h := range helpers {
		o.sends = append(o.sends, message{ActionPingReq, h, "ping_req", pingReqBody{Origin: m.self, Target: target, Nonce: nonce}})
	}
	return o
}

// pingReq relays an origin's round: the target is pinged under a relay
// nonce of our own, whose ack pingAck reports back.
func (m *machine) pingReq(b pingReqBody, now time.Duration) (o outcome) {
	if m.closed {
		return o
	}
	nonce := m.open("", "*", now)
	m.relays[nonce] = b
	return outcome{sends: []message{{ActionPing, b.Target, "ping", pingBody{From: m.self, Nonce: nonce}}}}
}

// ping answers a ping, until close.
func (m *machine) ping(b pingBody) (o outcome) {
	if m.closed {
		return o
	}
	return outcome{sends: []message{{ActionPingAck, b.From, "ping_ack", pingAckBody{From: m.self, Nonce: b.Nonce}}}}
}

// pingAck ends the relay the ack's nonce names and reports back to its
// origin, with the origin's nonce; an ack naming no open relay does nothing.
func (m *machine) pingAck(b pingAckBody) (o outcome) {
	r, ok := m.relays[b.Nonce]
	if !ok {
		return o
	}
	delete(m.relays, b.Nonce)
	return outcome{sends: []message{{ActionPingReqAck, r.Origin, "ping_req_ack", pingReqAckBody{From: m.self, Target: r.Target, Nonce: r.Nonce}}}}
}

// pingReqAck averts the target's open round if the report names that round's
// nonce, and marks the target degraded.
func (m *machine) pingReqAck(b pingReqAckBody) (o outcome) {
	if nonce, open := m.rounds[b.Target]; !open || nonce != b.Nonce {
		return o
	}
	delete(m.rounds, b.Target)
	m.degraded[b.Target] = true
	return outcome{result: ResultAverted, targets: []string{b.Target}}
}

// expire ends everything due by now: each round still open times out, in
// opening order, and is no longer degraded; each relay is dropped.
func (m *machine) expire(now time.Duration) (o outcome) {
	for len(m.queue) > 0 && m.queue[0].due <= now {
		e := m.queue[0]
		m.queue = m.queue[1:]
		delete(m.relays, e.nonce)
		if nonce, open := m.rounds[e.target]; open && nonce == e.nonce {
			delete(m.rounds, e.target)
			delete(m.degraded, e.target)
			o.result, o.targets = ResultTimeout, append(o.targets, e.target)
		}
	}
	return o
}

// clearDegraded drops target's degraded mark.
func (m *machine) clearDegraded(target string) { delete(m.degraded, target) }

// close ends every open round and relay unresolved; from then on no input
// asks for a send or a callback.
func (m *machine) close() {
	m.closed = true
	clear(m.rounds)
	clear(m.relays)
	m.queue = nil
}

// due returns the earliest queued expiry; ok is false when none is queued.
func (m *machine) due() (at time.Duration, ok bool) {
	if len(m.queue) == 0 {
		return 0, false
	}
	return m.queue[0].due, true
}
