package gossip

import "math"

// Machine is one node's dissemination protocol with no lock, no clock and no
// I/O. It owns all dissemination state — the seen cache, the store, the
// outstanding IWANTs and the counter-mongering counts — and makes every
// decision: the hop rule and the one switch on Style. A binding calls it under
// its own mutex and keeps only decoding, target sampling, encoding, sending
// and its counters: Engine on a transport.Endpoint, core.Disseminator on SOAP.
//
// The machine knows a notification by one 64-bit identity, the sum of its ID
// (IDSum), which the binding takes once per receipt from the ID's bytes where
// they lie. Every question takes that sum, so no state here holds an ID
// string, and asking about a received ID — first receipt or duplicate —
// builds nothing.
//
// Every decision comes back as a value (Transfer), never as a list of sends,
// so each binding draws its targets at the point in its RNG stream it always
// has. V is what a store slot holds: the engine's held rumor, one slab, or a
// SOAP node's slot record, its copy of the envelope; both are refilled in
// place when evicted (Evictee).
type Machine[V any] struct {
	store[V]  // Hold, Evictee, Get, Len, Digest, Missing
	seen      seenCache
	requested map[uint64]uint32 // outstanding IWANTs, each with the round it was made in
	counters  map[uint64]int    // StyleCounter: duplicates heard per rumor still mongered
	counterK  int32
	round     uint32 // advanced by ReleaseStale
}

// NewMachine returns a machine holding seenCap sums and storeCap values,
// whose counter mongering goes quiescent after counterK duplicates (at most
// math.MaxInt32 of them). Non-positive values take DefaultSeenCacheSize,
// DefaultStoreSize and 2.
func NewMachine[V any](seenCap, storeCap, counterK int) Machine[V] {
	if seenCap <= 0 {
		seenCap = DefaultSeenCacheSize
	}
	if storeCap <= 0 {
		storeCap = DefaultStoreSize
	}
	if counterK <= 0 {
		counterK = 2
	}
	// requested and counters stay nil until a style writes them: most
	// engines of a large simulation push, and never do.
	return Machine[V]{store: newStore[V](storeCap), seen: newSeenCache(seenCap), counterK: int32(min(counterK, math.MaxInt32))}
}

// Send is what a Transfer puts on the wire.
type Send uint8

// The sends: nothing, the whole rumor, or (lazy push) its ID only, which a
// target that lacks the rumor fetches.
const (
	SendNothing Send = iota
	SendPayload
	SendAnnounce
)

// Transfer is one spread decision: what to send, and the rules that size it
// from the binding's own fanout and the sent copy's hop budget.
type Transfer struct {
	Send   Send
	every  bool // flood: every known peer
	monger bool // counter mongering: the hop budget is kept, not spent
}

// Peers returns how many targets the binding draws for t given its fanout:
// -1, every known peer, when flooding.
func (t Transfer) Peers(fanout int) int {
	if t.every {
		return -1
	}
	return fanout
}

// Hops returns the hop budget a copy holding hops carries when t sends it. A
// forward or an announcement spends one hop; counter mongering terminates by
// feedback, not hops, so it spends none and keeps receivers eligible to
// monger with at least one.
func (t Transfer) Hops(hops int) int {
	if t.monger {
		return max(hops, 1)
	}
	return hops - 1
}

// ServedHops is the hop rule for a copy served on request — an IWANT
// answered, or a digest's gap filled: the transfer costs one hop, and a
// budget already spent stays where it is.
func ServedHops(hops int) int {
	if hops > 0 {
		return hops - 1
	}
	return hops
}

// Pulls reports whether the style runs periodic digest rounds: pull, and the
// repair half of push-pull.
func (s Style) Pulls() bool { return s == StylePull || s == StylePushPull }

// Receive takes a receipt of the notification whose ID sums to sum and
// reports whether it is the first while the seen cache holds the sum; either
// way the sum becomes the seen cache's most recently used. A first receipt
// settles any IWANT outstanding for it. For a duplicate, t is the feedback it
// triggers: a rumor still being mongered bursts once more, until CounterK
// duplicates send it quiescent; under every other style, and for a copy that
// arrived through anti-entropy (viaPull), a duplicate triggers nothing.
//
// Two IDs with one sum are one notification here: the later one's first
// receipt is taken for a duplicate — a missed delivery, which anti-entropy
// repairs — never a second delivery of either.
func (m *Machine[V]) Receive(sum uint64, viaPull bool) (first bool, t Transfer) {
	if m.seen.Add(sum) {
		delete(m.requested, sum)
		return true, Transfer{}
	}
	count, active := m.counters[sum]
	if viaPull || !active {
		return false, Transfer{}
	}
	if count++; count >= int(m.counterK) {
		delete(m.counters, sum)
		return false, Transfer{}
	}
	m.counters[sum] = count
	return false, Transfer{Send: SendPayload, monger: true}
}

// Spread decides how a rumor received first with hops remaining spreads
// under style; it is the one switch on Style. viaPull marks a rumor that
// arrived through anti-entropy: it is delivered but not forwarded, and
// spreads through later digests.
func (m *Machine[V]) Spread(sum uint64, style Style, hops int, viaPull bool) Transfer {
	switch {
	case viaPull || style == StylePull:
		return Transfer{}
	case style == StyleCounter:
		// Mongering starts, active until CounterK duplicates are heard.
		if m.counters == nil {
			m.counters = make(map[uint64]int)
		}
		m.counters[sum] = 0
		return Transfer{Send: SendPayload, monger: true}
	case hops <= 0:
		return Transfer{}
	case style == StyleLazyPush:
		return Transfer{Send: SendAnnounce}
	case style == StyleFlood:
		return Transfer{Send: SendPayload, every: true}
	case style == StylePush || style == StylePushPull:
		return Transfer{Send: SendPayload}
	}
	return Transfer{}
}

// Want decides an announcement of the notification whose ID sums to sum.
// held reports that the seen cache holds it: the announcement is a
// duplicate. want reports that it should be fetched — neither held nor
// already requested — and the request is then outstanding until Receive,
// Release or ReleaseStale settles it.
func (m *Machine[V]) Want(sum uint64) (want, held bool) {
	if m.seen.Contains(sum) {
		return false, true
	}
	if _, pending := m.requested[sum]; pending {
		return false, false
	}
	if m.requested == nil {
		m.requested = make(map[uint64]uint32)
	}
	m.requested[sum] = m.round
	return true, false
}

// Release settles a request whose IWANT could not be sent, so a later
// announcement of the rumor fetches it again.
func (m *Machine[V]) Release(sum uint64) { delete(m.requested, sum) }

// ReleaseStale ends a request round: it settles every request made before
// the previous call, whose IWANT or answer has had a whole round to arrive
// and is taken for lost, so a later announcement of the rumor fetches it
// again. A request outlives at least one full round. A binding calls it once
// per announce round.
func (m *Machine[V]) ReleaseStale() {
	for sum, round := range m.requested {
		if round != m.round {
			delete(m.requested, sum)
		}
	}
	m.round++
}

// Seen reports whether the seen cache holds sum, without refreshing it.
func (m *Machine[V]) Seen(sum uint64) bool { return m.seen.Contains(sum) }
