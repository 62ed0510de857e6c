package membership

import (
	"math/rand"
	"slices"
	"strings"
	"time"
)

// machine is the membership protocol written without I/O: it takes no lock,
// reads no clock, holds no endpoint and starts no goroutine. Every instant is
// passed in as now, and each rule (join, tick, exchange, leave, suspect, and
// view and leaveBody, what an exchange and a leave carry) is one method whose
// outcome comes back as a value. Fan-out targets are the Service's to draw;
// the machine's one draw is admit's cap eviction, from the Service's own rng.
// The Service guards a machine with its mutex.
type machine struct {
	suspectAfter, removeAfter time.Duration
	maxView                   int
	rng                       *rand.Rand

	self    wireEntry
	members map[string]*Member
	left    map[string]struct{} // explicit-leave tombstones
	// dead maps an evicted member to the heartbeat it stalled at; stale
	// gossip echoing that heartbeat cannot resurrect it, but a genuinely
	// recovered node (whose heartbeat advances) is readmitted.
	dead map[string]uint64
	// alive caches the sorted alive-address snapshot between view
	// mutations: fan-out sampling (SelectPeers is on the gossip hot path
	// when the service is a live PeerView) reads the cache instead of
	// rebuilding and re-sorting the list per call. aliveValid is cleared by
	// every mutation that can change the alive set.
	alive      []string
	aliveValid bool
	// sorted is inOrder's scratch, kept across rounds so writing the view
	// allocates only its buffer, and cleared after each use so it holds no
	// address past it.
	sorted []wireEntry
}

// outcome is what one rule did, for the Service's counters.
type outcome struct {
	exchanges     int // view exchanges merged
	suspected     int // alive→suspect transitions
	unknown       int // suspicions naming an address not in the view
	evicted       int // members evicted after RemoveAfter stalls
	left          int // leave tombstones applied
	leaveRejected int // leave entries naming anyone but the sender
}

func newMachine(cfg Config, self string, rng *rand.Rand) *machine {
	return &machine{
		suspectAfter: cfg.SuspectAfter,
		removeAfter:  cfg.RemoveAfter,
		maxView:      cfg.MaxView,
		rng:          rng,
		self:         wireEntry{Addr: self, Heartbeat: 1},
		members:      make(map[string]*Member),
		left:         make(map[string]struct{}),
		dead:         make(map[string]uint64),
	}
}

// join admits each seed the view lacks at heartbeat 0, tombstoned or evicted
// ones too: the caller named them.
func (m *machine) join(seeds []string, now time.Duration) outcome {
	for _, a := range seeds {
		if _, ok := m.members[a]; !ok && a != "" && a != m.self.Addr {
			m.admit(a, 0, now)
		}
	}
	return outcome{}
}

// tick advances the own heartbeat and ages the view at now: a member whose
// heartbeat has stalled for RemoveAfter is evicted, remembering the
// heartbeat it stalled at, and one stalled for SuspectAfter is suspected.
func (m *machine) tick(now time.Duration) (o outcome) {
	m.self.Heartbeat++
	for addr, mb := range m.members {
		switch age := now - mb.Refreshed; {
		case age >= m.removeAfter:
			m.dead[addr] = mb.Heartbeat
			delete(m.members, addr)
			o.evicted++
		case age >= m.suspectAfter && mb.State != StateSuspect:
			mb.State = StateSuspect
			o.suspected++
		default:
			continue
		}
		m.aliveValid = false
	}
	return o
}

// exchange merges body, a canonical view from sender from, at now. A sender
// the view did not hold is likely a newcomer whose view is still tiny, so
// reply is the view to answer it with — the pull half of a view exchange —
// and nil otherwise. Only a sender the merge admitted is answered: one held
// off by a tombstone or an eviction would answer the reply in turn, and two
// such nodes would trade views without end.
func (m *machine) exchange(from string, body []byte, now time.Duration) (reply []byte, o outcome) {
	_, knew := m.members[from]
	_, r, _ := openBody(body)
	for addr, hb, ok := nextEntry(&r); ok; addr, hb, ok = nextEntry(&r) {
		m.merge(addr.Key(), hb, now)
	}
	if _, admitted := m.members[from]; admitted && !knew {
		reply = m.view()
	}
	return reply, outcome{exchanges: 1}
}

// maxHeartbeat bounds an accepted heartbeat; no per-round counter gets near
// it. Echoed back at us, a MaxUint64 entry would wrap our own heartbeat to 0
// (we outrun an echo by one) and every peer would then see us as stale.
const maxHeartbeat = 1 << 62

// merge merges one received entry. addr may be a view of the message body:
// every lookup converts it in place, and only a new member's address is
// copied.
func (m *machine) merge(addr []byte, hb uint64, now time.Duration) {
	if len(addr) == 0 || hb >= maxHeartbeat {
		// A malformed or empty address must not become a member: it would
		// gossip onward and burn a fan-out slot at every sampler. A
		// heartbeat that high came from no live counter.
		return
	}
	if string(addr) == m.self.Addr {
		// Another node may have a stale view of us; outrun it so we do not
		// get suspected by our own propagated heartbeat.
		if hb > m.self.Heartbeat {
			m.self.Heartbeat = hb + 1
		}
		return
	}
	if _, gone := m.left[string(addr)]; gone {
		return
	}
	if stalled, evicted := m.dead[string(addr)]; evicted {
		if hb <= stalled {
			return
		}
		delete(m.dead, string(addr))
	}
	mb, ok := m.members[string(addr)]
	if !ok {
		m.admit(string(addr), hb, now)
		return
	}
	if hb > mb.Heartbeat {
		mb.Heartbeat = hb
		if mb.State != StateAlive {
			mb.State = StateAlive
			m.aliveValid = false
		}
		mb.Refreshed = now
	}
}

// admit adds a new member. A view at its cap first evicts a uniformly random
// entry (peer-sampling replacement), drawn over the members in address order
// so the choice is deterministic per seed.
func (m *machine) admit(addr string, hb uint64, now time.Duration) {
	if m.maxView > 0 && len(m.members) >= m.maxView {
		m.sorted = m.inOrder(m.sorted[:0])
		delete(m.members, m.sorted[m.rng.Intn(len(m.sorted))].Addr)
		clear(m.sorted)
	}
	m.members[addr] = &Member{Addr: addr, Heartbeat: hb, State: StateAlive, Refreshed: now}
	m.aliveValid = false
}

// leave applies body, a canonical leave from sender from: it tombstones from
// and nothing else, and every entry naming anyone but from is rejected.
func (m *machine) leave(from string, body []byte) (o outcome) {
	_, r, _ := openBody(body)
	for addr, _, ok := nextEntry(&r); ok; addr, _, ok = nextEntry(&r) {
		if string(addr.Key()) != from {
			o.leaveRejected++
			continue
		}
		m.left[from] = struct{}{}
		delete(m.members, from)
		o.left++
	}
	m.aliveValid = false
	return o
}

// suspect demotes addr to StateSuspect. An already-suspect member is left
// as it is; an address not in the view is reported unknown.
func (m *machine) suspect(addr string) (o outcome) {
	mb, ok := m.members[addr]
	switch {
	case !ok:
		o.unknown = 1
	case mb.State != StateSuspect:
		mb.State = StateSuspect
		m.aliveValid = false
		o.suspected = 1
	}
	return o
}

// view writes the whole view as one message body (wire.go): self first, then
// every member in address order. Receivers merge entries in wire order, and
// with a capped view each over-cap admit consumes an RNG draw to pick an
// eviction victim — map-order encoding would make the victim sequence, and
// hence the whole overlay, nondeterministic per run. The body's buffer, which
// a round sends to every target, is the one allocation.
func (m *machine) view() []byte {
	m.sorted = m.inOrder(append(m.sorted[:0], m.self))
	body := writeBody(envelopeBody{From: m.self.Addr, Members: m.sorted})
	clear(m.sorted)
	return body
}

// leaveBody writes a leave: the sender's own entry, the only one a receiver
// applies.
func (m *machine) leaveBody() []byte {
	return writeBody(envelopeBody{From: m.self.Addr, Members: []wireEntry{m.self}})
}

// inOrder appends every member's entry to dst in address order.
func (m *machine) inOrder(dst []wireEntry) []wireEntry {
	n := len(dst)
	for _, mb := range m.members {
		dst = append(dst, wireEntry{Addr: mb.Addr, Heartbeat: mb.Heartbeat})
	}
	slices.SortFunc(dst[n:], func(a, b wireEntry) int { return strings.Compare(a.Addr, b.Addr) })
	return dst
}

// alivePeers returns the sorted alive-address snapshot, rebuilding it only
// after a view mutation. The snapshot's backing array is reused by the
// rebuilds — at heartbeat cadence across a large simulated population a
// fresh one would be sustained allocator pressure — so a caller must not
// keep or read the slice past the Service's lock (samplers copy eligible
// entries before shuffling, under the lock).
func (m *machine) alivePeers() []string {
	if m.aliveValid {
		return m.alive
	}
	out := m.alive[:0]
	for addr, mb := range m.members {
		if mb.State == StateAlive {
			out = append(out, addr)
		}
	}
	slices.Sort(out) // deterministic iteration for reproducible sampling
	m.alive, m.aliveValid = out, true
	return out
}

// snapshot returns a copy of the view in address order.
func (m *machine) snapshot() []Member {
	out := make([]Member, 0, len(m.members))
	for _, mb := range m.members {
		out = append(out, *mb)
	}
	slices.SortFunc(out, func(a, b Member) int { return strings.Compare(a.Addr, b.Addr) })
	return out
}
