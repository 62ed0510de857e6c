package core

import (
	"context"
	"fmt"
	"slices"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// maxPendingAnnounces bounds the deferred-announcement queue. Beyond it new
// advertisements are dropped and counted (gossip_announce_dropped_total;
// anti-entropy repair closes the residual gap), which keeps a node that
// stopped ticking from buffering without bound.
const maxPendingAnnounces = 4096

// DeferAnnouncements switches the node's lazy-push advertisements from the
// receive path to a timer: instead of sending IHAVE immediately on intake,
// the gossip layer queues the advertisement and TickAnnounce flushes the
// queue each announce round. wsgossip.Node.Start calls this when the node
// has an announce loop; once deferred, the node must be ticked or lazy-push
// spread stalls at it.
func (d *Disseminator) DeferAnnouncements() {
	d.mu.Lock()
	d.deferAnn = true
	d.mu.Unlock()
}

// TickAnnounce flushes the deferred lazy-push advertisement queue: every
// notification taken in since the previous round is announced in one round
// (announce), each peer drawn getting one IHAVE that lists every
// notification addressed to it. The round also releases the fetches still
// unanswered from before the previous one (gossip.Machine.ReleaseStale), so
// a lost IWANT or payload does not keep the node from fetching the
// notification when it is next announced. Call it from a timer at the
// deployment's announce interval (core.Runner's announce loop does).
//
// The round takes the queue and the arena its MessageIDs were copied into,
// and hands both back, emptied, for the next round to fill — unless an
// announcement was queued while it ran (a synchronous binding can deliver
// back into this node), which keeps the buffers it started.
func (d *Disseminator) TickAnnounce(ctx context.Context) {
	d.mu.Lock()
	d.m.ReleaseStale()
	queued, ids := d.pendingAnn, d.annIDs
	d.pendingAnn, d.annIDs = nil, nil
	d.mu.Unlock()
	d.announce(ctx, queued)
	clear(queued) // the interaction states go with their interactions
	d.mu.Lock()
	if d.pendingAnn == nil {
		d.pendingAnn, d.annIDs = queued[:0], ids[:0]
	}
	d.mu.Unlock()
}

// announceRound is one announce round's targets: drawn once from the live
// view, of the widest fan-out any queued notification asks for, each
// notification taking its prefix; or, without a live view, once per
// interaction from its static list. Every PeerView samples without
// replacement, one uniform pick after another, so each prefix is itself a
// uniform sample: each notification still goes to as many peers, drawn as
// uniformly, as when it drew its own, and a round of one notification
// draws exactly what that draw did.
type announceRound struct {
	queued []pendingAnnounce
	drawn  []string       // the draws, one after another
	static []announceDraw // per interaction, when the live view drew nothing
}

// announceDraw is the part drawn[lo:hi] an interaction's static list drew.
type announceDraw struct {
	state  *interactionState
	lo, hi int
}

// drawLocked draws a round's targets for the queued notifications into
// drawn, a buffer on the caller's stack, and, without a live view, the
// static draws into static. Caller holds d.mu.
func (d *Disseminator) drawLocked(queued []pendingAnnounce, drawn []string, static []announceDraw) ([]string, []announceDraw) {
	widest := 0
	for i := range queued {
		widest = max(widest, queued[i].fanout())
	}
	if live := liveTargets(drawn, &d.live, d.cfg.Peers, d.rng, widest, d.cfg.Address); len(live) > 0 {
		return live, nil
	}
next:
	for i := range queued {
		p := &queued[i]
		for _, s := range static {
			if s.state == p.state {
				continue next
			}
		}
		lo := len(drawn)
		drawn = gossip.AppendSample(drawn, d.rng, p.state.params.Targets, p.fanout(), d.cfg.Address)
		static = append(static, announceDraw{p.state, lo, len(drawn)})
	}
	return drawn, static
}

// targets returns the targets of the round's i-th notification.
func (r *announceRound) targets(i int) []string {
	p := &r.queued[i]
	to := r.drawn
	for _, s := range r.static {
		if s.state == p.state {
			to = r.drawn[s.lo:s.hi]
			break
		}
	}
	return to[:min(p.fanout(), len(to))]
}

// addressed appends to dst the indices, in queue order, of the round's
// notifications addressed to peer.
func (r *announceRound) addressed(dst []int, peer string) []int {
	for i := range r.queued {
		if slices.Contains(r.targets(i), peer) {
			dst = append(dst, i)
		}
	}
	return dst
}

// sameAs reports whether the notifications addressed to peer are exactly
// the ones listed in kids.
func (r *announceRound) sameAs(kids []int, peer string) bool {
	k := 0
	for i := range r.queued {
		if !slices.Contains(r.targets(i), peer) {
			continue
		}
		if k == len(kids) || kids[k] != i {
			return false
		}
		k++
	}
	return k == len(kids)
}

// announce sends a round of lazy-push advertisements (announceRound): each
// peer drawn gets one IHAVE whose body holds one Announce child per
// notification addressed to it, in queue order, at the hop budget its
// transfer sets; a peer with more than gossip.DigestCap of them gets several.
// Peers drawn one after another that are sent the same notifications share
// one IHAVE, written once with its message ID straight into the wire buffer
// and rendered per peer. The buffers are on the stack while a round is
// small: 16 targets, 32 notifications to a peer.
func (d *Disseminator) announce(ctx context.Context, queued []pendingAnnounce) {
	if len(queued) == 0 {
		return
	}
	var (
		drawn, peers [16]string
		static       [4]announceDraw
		kidsBuf      [32]int
	)
	r := announceRound{queued: queued}
	d.mu.Lock()
	r.drawn, r.static = d.drawLocked(queued, drawn[:0], static[:0])
	d.mu.Unlock()
	to := peers[:0]
	for _, peer := range r.drawn {
		if !slices.Contains(to, peer) {
			to = append(to, peer)
		}
	}
	for len(to) > 0 {
		kids := r.addressed(kidsBuf[:0], to[0])
		same := 1
		for same < len(to) && r.sameAs(kids, to[same]) {
			same++
		}
		for len(kids) > 0 {
			n := min(len(kids), gossip.DigestCap)
			d.sendIHave(ctx, queued, kids[:n], to[:same])
			kids = kids[n:]
		}
		to = to[same:]
	}
}

// sendIHave sends targets one IHAVE listing the queued notifications kids
// indexes, its message ID and body written once straight into the wire
// buffer and rendered per target.
func (d *Disseminator) sendIHave(ctx context.Context, queued []pendingAnnounce, kids []int, targets []string) {
	size := 0
	for _, k := range kids {
		p := &queued[k]
		size += flatOverhead + len(p.state.id) + len(p.n.messageID) + len(d.cfg.Address)
	}
	var id [wsa.MessageIDLen]byte
	m := soap.Message{
		Action: ActionIHave, ID: wsa.AppendMessageID(id[:0]),
		Name: announceName, Parts: len(kids), Size: size,
		Write: func(dst []byte, i int) []byte {
			p := &queued[kids[i]]
			return appendAnnounce(dst, p.state.id, p.n.messageID, p.t.Hops(p.n.hops), d.cfg.Address)
		},
	}
	start := d.now()
	sent, failed := m.Fanout(ctx, d.cfg.Caller, targets)
	d.stats.announced.Add(int64(d.fanned(start, sent, failed)))
}

// inlineAnnounces is how many children of an IHAVE handleIHave reads into
// an array on its stack: more than an announce round usually lists, so
// reading one allocates nothing.
const inlineAnnounces = 8

// handleIHave requests the payloads of the unseen notifications an IHAVE
// announces, one IWANT each (DESIGN.md says why IWANTs are not batched). It
// reads every child before it acts on any (announcesFrom): a malformed
// child, more than gossip.DigestCap of them, or children naming different
// holders fault the whole envelope as the sender's error, and nothing is
// requested. The machine is asked with the sum of each announced ID as it
// lies in the receive buffer, and the IWANT written from it there straight
// into the wire buffer, so an announcement copies nothing. A fetch that
// cannot be sent is released, so a later announcer retriggers it.
func (d *Disseminator) handleIHave(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	var inline [inlineAnnounces][]byte
	ids, holder, err := announcesFrom(req.Envelope, inline[:0])
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Announce: "+err.Error())
	}
	wanted, held := ids[:0], 0
	d.mu.Lock()
	for _, id := range ids {
		want, seen := d.m.Want(gossip.IDSum(id))
		if seen {
			held++
		}
		if want {
			wanted = append(wanted, id)
		}
	}
	d.mu.Unlock()
	if held > 0 {
		d.stats.duplicates.Add(int64(held))
	}
	for _, id := range wanted {
		d.fetch(ctx, id, holder)
	}
	return nil, nil
}

// fetch sends holder the IWANT for an announced notification, written from
// its ID's bytes, and releases the request when it cannot be sent.
func (d *Disseminator) fetch(ctx context.Context, announced []byte, holder string) {
	var id [wsa.MessageIDLen]byte
	m := soap.Message{
		To: holder, Action: ActionIWant, ID: wsa.AppendMessageID(id[:0]),
		Name: fetchName, Parts: 1, Size: flatOverhead + len(announced) + len(d.cfg.Address),
		Write: func(dst []byte, _ int) []byte { return appendFetch(dst, announced, d.cfg.Address) },
	}
	if err := m.Send(ctx, d.cfg.Caller, holder); err != nil {
		d.mu.Lock()
		d.m.Release(gossip.IDSum(announced))
		d.mu.Unlock()
		d.stats.sendErrors.Add(1)
		return
	}
	d.stats.fetched.Add(1)
	d.bumpActivity()
}

// handleIWant serves a stored notification to the requester, the transfer
// costing one hop. The store is asked with the sum of the requested ID as it
// lies in the receive buffer, and the retransmission carries the ID its
// stored copy's header holds and the InteractionID the interaction state
// holds. The slot is referenced while it is served, so no first receipt
// refills it under the serve.
func (d *Disseminator) handleIWant(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	requested, requester, err := fetchFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Fetch: "+err.Error())
	}
	d.mu.Lock()
	held, ok := d.m.Get(gossip.IDSum(requested))
	if ok {
		held.refs++
	}
	d.mu.Unlock()
	if !ok {
		return nil, soap.NewFault(soap.CodeSender,
			fmt.Sprintf("notification %q not held", requested))
	}
	served := d.serve(ctx, requester, held)
	d.mu.Lock()
	held.refs--
	d.mu.Unlock()
	if !served {
		d.stats.sendErrors.Add(1)
		return nil, nil
	}
	d.stats.served.Add(1)
	d.bumpActivity()
	return nil, nil
}

// serve retransmits a held notification to one peer, the transfer costing
// one hop, and reports whether the copy went out. The caller holds a
// reference to the slot (stored.refs). Its gossip header is read from the
// stored copy: the MessageID in place, the InteractionID the node's
// interaction state holds for it (a copy only for an interaction the node
// does not know).
func (d *Disseminator) serve(ctx context.Context, to string, held *stored) bool {
	env := held.Envelope()
	b, ok := env.HeaderBlock(Namespace, "Gossip")
	if !ok {
		return false
	}
	interaction, n, err := readNotice(b)
	if err != nil {
		return false
	}
	d.mu.Lock()
	id := d.interactionIDLocked(interaction)
	d.mu.Unlock()
	n.hops = gossip.ServedHops(n.hops)
	sent, _ := d.forward(ctx, env, id, n, true, []string{to})
	return sent == 1
}
