package gossip

import "slices"

// QueueCap bounds the announce queue, so a node that stopped running announce
// rounds does not queue without bound: repair delivers what Queue drops.
const QueueCap = 4096

// rounds is what a machine keeps between rounds, allocated by its first
// request or queued announcement.
type rounds struct {
	requested map[uint64]uint32 // outstanding IWANTs, each with the round it was made in
	round     uint32            // advanced by ReleaseStale
	queue     *Round            // the announcements queued for the next round
}

func (m *Machine[V]) rounds() *rounds {
	if m.r == nil {
		m.r = &rounds{requested: make(map[uint64]uint32)}
	}
	return m.r
}

// Announcement is one notification an announce round lists.
type Announcement struct {
	ID      []byte   // a copy, in the round's arena
	Group   string   // its interaction; the engine's have none
	Targets []string // its group's static peers, drawn when the round's draw is empty
	Hops    int      // the budget its IHAVE lists: the announcement spent one hop
	peers   int      // it goes to this prefix of its group's draw
	lo, hi  int      // its group's draw, drawn[lo:hi]
}

// Draw is a binding's peer source for an announce round: it appends up to n
// peers to dst for the whole round when a is nil, else for a's group. A
// round draws once at its widest fan-out and, only if that comes up empty,
// once per group in queue order. Each PeerProvider samples without
// replacement, one uniform pick after another, so every prefix is a uniform
// sample and a round of one draws what its announcement's own draw would.
type Draw func(dst []string, a *Announcement, n int) []string

// Queue queues t, the SendAnnounce decision for the notification id held
// with hops, of group with static peers targets: the next round lists it at
// the budget t spends, to t's share of fanout. It reports false, dropping
// it, when QueueCap are queued.
func (m *Machine[V]) Queue(t Transfer, id []byte, hops, fanout int, group string, targets []string) bool {
	r := m.rounds()
	if r.queue == nil {
		r.queue = new(Round)
	}
	q := r.queue
	if len(q.queue) >= QueueCap {
		return false
	}
	// An arena that grows leaves the IDs queued before in its old array.
	start := len(q.ids)
	q.ids = append(q.ids, id...)
	q.queue = append(q.queue, Announcement{ID: q.ids[start:len(q.ids):len(q.ids)], Group: group,
		Targets: targets, Hops: t.Hops(hops), peers: max(t.Peers(fanout), 0)})
	return true
}

// AnnounceRound takes what is queued as one round, drawn through draw; with
// end it also ends the request round (ReleaseStale). A receipt announced at
// once is a round of one, without end. It returns nil when nothing is queued;
// a round is the binding's, to send outside its lock, until it calls Done.
func (m *Machine[V]) AnnounceRound(draw Draw, end bool) *Round {
	if end {
		m.ReleaseStale()
	}
	if m.r == nil || m.r.queue == nil || len(m.r.queue.queue) == 0 {
		return nil
	}
	r := m.r.queue
	m.r.queue = nil
	r.draw(draw)
	return r
}

// Done takes back a sent round: emptied, it holds the next round's
// announcements, unless some were queued while it was out.
func (m *Machine[V]) Done(r *Round) {
	clear(r.queue) // its groups' strings and targets go with their interactions
	r.queue, r.ids, r.drawn, r.to = r.queue[:0], r.ids[:0], r.drawn[:0], r.to[:0]
	if m.r.queue == nil {
		m.r.queue = r
	}
}

// Round is one announce round: its announcements, in queue order, and draws.
type Round struct {
	queue      []Announcement
	ids        []byte   // the arena of the queued IDs
	drawn      []string // the draws, one after another
	to         []string // the distinct peers drawn, in draw order
	list, next []*Announcement
}

// draw makes the round's draws and lists the distinct peers they drew.
func (r *Round) draw(draw Draw) {
	widest := 0
	for i := range r.queue {
		widest = max(widest, r.queue[i].peers)
	}
	buf := r.drawn[:0]
	r.drawn = draw(buf, nil, widest)
	whole := len(r.drawn)
	if whole == 0 {
		r.drawn = buf // an empty draw may not be buf
	}
	for i := range r.queue {
		a := &r.queue[i]
		if a.lo, a.hi = 0, whole; whole > 0 {
			continue
		}
		if j := slices.IndexFunc(r.queue[:i], func(b Announcement) bool { return b.Group == a.Group }); j >= 0 {
			a.lo, a.hi = r.queue[j].lo, r.queue[j].hi
			continue
		}
		a.lo = len(r.drawn)
		r.drawn = draw(r.drawn, a, a.peers)
		a.hi = len(r.drawn)
	}
	for _, peer := range r.drawn {
		if !slices.Contains(r.to, peer) {
			r.to = append(r.to, peer)
		}
	}
}

// addressed appends to dst, in queue order, the announcements that go to
// peer: those whose prefix of their group's draw holds it.
func (r *Round) addressed(dst []*Announcement, peer string) []*Announcement {
	for i := range r.queue {
		a := &r.queue[i]
		if slices.Contains(r.drawn[a.lo:a.hi][:min(a.peers, a.hi-a.lo)], peer) {
			dst = append(dst, a)
		}
	}
	return dst
}

// IHaves yields the round's IHAVEs, each to peers drawn one after another
// that are sent the same announcements, listing at most DigestCap of them in
// queue order: a peer sent more gets several. The slices are the round's,
// valid until the next yield.
func (r *Round) IHaves(yield func(peers []string, list []*Announcement) bool) {
	for i := 0; i < len(r.to); {
		r.list = r.addressed(r.list[:0], r.to[i])
		j := i + 1
		for ; j < len(r.to); j++ {
			if r.next = r.addressed(r.next[:0], r.to[j]); !slices.Equal(r.next, r.list) {
				break
			}
		}
		for list := r.list; len(list) > 0; list = list[min(len(list), DigestCap):] {
			if !yield(r.to[i:j], list[:min(len(list), DigestCap)]) {
				return
			}
		}
		i = j
	}
}
