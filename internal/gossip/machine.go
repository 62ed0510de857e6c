package gossip

// Machine is one node's dissemination protocol with no lock, no clock and no
// I/O. It owns all dissemination state — the seen cache, the store, the
// outstanding IWANTs and the counter-mongering counts — and makes every
// decision: the hop rule and the one switch on Style. A binding calls it under
// its own mutex and keeps only decoding, target sampling, encoding, sending
// and its counters: Engine on a transport.Endpoint, core.Disseminator on SOAP.
//
// Every decision comes back as a value (Transfer), never as a list of sends,
// so each binding draws its targets at the point in its RNG stream it always
// has. V is what a store slot holds: the engine's Rumor, or a SOAP node's
// retained envelope clone.
type Machine[V Held] struct {
	store[V]  // Hold, Get, Len, Digest, Missing
	seen      seenCache
	requested map[string]struct{} // outstanding IWANTs
	counters  map[string]int      // StyleCounter: duplicates heard per rumor still mongered
	counterK  int
}

// NewMachine returns a machine holding seenCap IDs and storeCap values,
// whose counter mongering goes quiescent after counterK duplicates.
// Non-positive values take DefaultSeenCacheSize, DefaultStoreSize and 2.
func NewMachine[V Held](seenCap, storeCap, counterK int) Machine[V] {
	if seenCap <= 0 {
		seenCap = DefaultSeenCacheSize
	}
	if storeCap <= 0 {
		storeCap = DefaultStoreSize
	}
	if counterK <= 0 {
		counterK = 2
	}
	return Machine[V]{
		store:     newStore[V](storeCap),
		seen:      newSeenCache(seenCap),
		requested: make(map[string]struct{}),
		counters:  make(map[string]int),
		counterK:  counterK,
	}
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

// Receive takes a receipt of id — viewed in a message buffer, never
// retained — and reports whether the seen cache knows it, refreshing its
// recency and building nothing. A binding that gets false builds the owned ID
// and Admits it. A duplicate's t is as Admit's, but a copy that arrived
// through anti-entropy triggers nothing.
func (m *Machine[V]) Receive(id []byte, viaPull bool) (known bool, t Transfer) {
	key, known := m.seen.TouchBytes(id)
	if !known || viaPull {
		return known, Transfer{}
	}
	// key is the seen cache's own string: keying the count by it copies
	// nothing.
	return true, m.feedback(key)
}

// Admit takes a receipt of an owned id and reports whether it is the first
// while the seen cache holds the ID; a first receipt settles any IWANT
// outstanding for it. For a duplicate, t is the feedback it triggers: a
// rumor still being mongered bursts once more, until CounterK duplicates send
// it quiescent; under every other style a duplicate triggers nothing.
func (m *Machine[V]) Admit(id string) (first bool, t Transfer) {
	if m.seen.Add(id) {
		delete(m.requested, id)
		return true, Transfer{}
	}
	return false, m.feedback(id)
}

// feedback is counter mongering's answer to a duplicate of id.
func (m *Machine[V]) feedback(id string) Transfer {
	count, active := m.counters[id]
	if !active {
		return Transfer{}
	}
	if count++; count >= m.counterK {
		delete(m.counters, id)
		return Transfer{}
	}
	m.counters[id] = count
	return Transfer{Send: SendPayload, monger: true}
}

// Spread decides how a rumor admitted with hops remaining spreads under
// style; it is the one switch on Style. viaPull marks a rumor that arrived
// through anti-entropy: it is delivered but not forwarded, and spreads
// through later digests.
func (m *Machine[V]) Spread(id string, style Style, hops int, viaPull bool) Transfer {
	switch {
	case viaPull || style == StylePull:
		return Transfer{}
	case style == StyleCounter:
		// Mongering starts, active until CounterK duplicates are heard.
		m.counters[id] = 0
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

// Want decides an announcement of id, viewed in place. held reports that the
// seen cache holds it: the announcement is a duplicate. want reports that it
// should be fetched — neither held nor already requested — and the request is
// then outstanding under the returned owned ID until Admit or Release
// settles it.
func (m *Machine[V]) Want(id []byte) (owned string, want, held bool) {
	if m.seen.ContainsBytes(id) {
		return "", false, true
	}
	if _, pending := m.requested[string(id)]; pending {
		return "", false, false
	}
	owned = string(id)
	m.requested[owned] = struct{}{}
	return owned, true, false
}

// Release settles a request whose IWANT could not be sent, so a later
// announcement of the rumor fetches it again.
func (m *Machine[V]) Release(id string) { delete(m.requested, id) }

// Seen reports whether the seen cache holds id, without refreshing it.
func (m *Machine[V]) Seen(id string) bool { return m.seen.Contains(id) }
