package gossip

import (
	"errors"
	"math"
	"slices"
	"strconv"
)

// Machine is one node's dissemination protocol with no lock, no clock and no
// I/O. It owns all dissemination state — the seen cache, the store, the
// outstanding IWANTs, the announce queue and the counter-mongering counts —
// and makes every decision: the hop rule, the one switch on Style, whom an
// announce round sends what, which announced IDs are fetched and what an
// IWANT or a digest earns. A binding calls it under its own mutex and keeps
// decoding, its peer source, encoding, sending and its counters: Engine on a
// transport.Endpoint, core.Disseminator on SOAP.
//
// It knows a notification by the sum of its ID (IDSum), taken from the ID's
// bytes where they lie, so no state here holds an ID string and asking about
// a received ID builds nothing. Every decision comes back as a value, never
// a send, and a round's draws go through the binding's Draw, at the point in
// its RNG stream the binding always drew. V is what a store slot holds: the
// engine's held rumor or a SOAP node's slot record, both refilled in place
// when evicted (Evictee).
type Machine[V any] struct {
	store[V] // Hold, Evictee, Get, Len, Digest, Missing
	seen     seenCache
	counters map[uint64]int // StyleCounter: duplicates heard per rumor still mongered
	counterK int32
	r        *rounds // nil until the first request or queued announcement
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
	// r and counters stay nil until a style writes them: most engines of a
	// large simulation push, and never do.
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
		if m.r != nil {
			delete(m.r.requested, sum)
		}
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

// errIHaveLong refuses an IHAVE listing more than DigestCap notifications.
var errIHaveLong = errors.New("IHAVE lists more than " + strconv.Itoa(DigestCap) + " notifications")

// IHave decides a received IHAVE listing ids: it returns, filtered in place,
// the IDs to fetch — neither held nor already requested — each then
// outstanding until Receive, Release or ReleaseStale settles it, and how many
// it holds. An IHAVE of more than DigestCap IDs is refused, and nothing
// requested.
func (m *Machine[V]) IHave(ids [][]byte) (wanted [][]byte, held int, err error) {
	if len(ids) > DigestCap {
		return nil, 0, errIHaveLong
	}
	r, wanted := m.rounds(), ids[:0]
	for _, id := range ids {
		sum := IDSum(id)
		_, pending := r.requested[sum]
		switch {
		case m.seen.Contains(sum):
			held++
		case !pending:
			r.requested[sum] = r.round
			wanted = append(wanted, id)
		}
	}
	return wanted, held, nil
}

// Release settles a request of IHave's whose IWANT could not be sent, so a
// later announcement of the rumor fetches it again.
func (m *Machine[V]) Release(sum uint64) { delete(m.r.requested, sum) }

// ReleaseStale ends a request round: it settles every request made before
// the previous call, whose IWANT or answer has had a whole round to arrive
// and is taken for lost, so a later announcement of the rumor fetches it
// again. A request outlives at least one full round.
func (m *Machine[V]) ReleaseStale() {
	if m.r == nil {
		return
	}
	for sum, round := range m.r.requested {
		if round != m.r.round {
			delete(m.r.requested, sum)
		}
	}
	m.r.round++
}

// IWant decides a received IWANT listing ids: it appends to dst the held
// values asked for, in the order asked, each at most once and at most
// DigestCap of them.
func (m *Machine[V]) IWant(dst []V, ids [][]byte) []V {
	var served [DigestCap]uint64
	n := 0
	for _, id := range ids {
		sum := IDSum(id)
		if v, ok := m.Get(sum); ok && n < DigestCap && !slices.Contains(served[:n], sum) {
			dst = append(dst, v)
			served[n] = sum
			n++
		}
	}
	return dst
}

// Seen reports whether the seen cache holds sum, without refreshing it.
func (m *Machine[V]) Seen(sum uint64) bool { return m.seen.Contains(sum) }
