package core

import (
	"context"
	"fmt"

	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// DeferAnnouncements moves the node's lazy-push advertisements from the
// receive path to a timer: intake queues them (gossip.Machine.Queue) and
// TickAnnounce announces the queue. wsgossip.Node.Start calls it when the
// node has an announce loop; a deferred node that is not ticked stalls lazy
// push at it.
func (d *Disseminator) DeferAnnouncements() {
	d.mu.Lock()
	d.deferAnn = true
	d.mu.Unlock()
}

// TickAnnounce runs one announce round (gossip.Machine.AnnounceRound): each
// peer drawn gets one IHAVE listing what was queued for it, and fetches
// unanswered since before the previous round are released, so the next
// announcement fetches again. Call it at the deployment's announce interval
// (core.Runner's announce loop does).
func (d *Disseminator) TickAnnounce(ctx context.Context) {
	d.mu.Lock()
	r := d.m.AnnounceRound(d.drawLocked, true)
	d.mu.Unlock()
	d.announce(ctx, r)
}

// drawLocked is the node's gossip.Draw: an announce round's one draw is from
// the live view, and without one each interaction draws from its static
// list. Caller holds d.mu.
func (d *Disseminator) drawLocked(dst []string, a *gossip.Announcement, n int) []string {
	if a == nil {
		return SelectTargets(dst, &d.live, d.cfg.Peers, d.rng, n, d.cfg.Address, nil)
	}
	return gossip.AppendSample(dst, d.rng, a.Targets, n, d.cfg.Address)
}

// announce sends a round's IHAVEs, each written once straight into the wire
// buffer and rendered for each of its peers, and hands the round back.
func (d *Disseminator) announce(ctx context.Context, r *gossip.Round) {
	if r == nil {
		return
	}
	for peers, list := range r.IHaves {
		size := 0
		for _, a := range list {
			size += flatOverhead + len(a.Group) + len(a.ID) + len(d.cfg.Address)
		}
		var id [wsa.MessageIDLen]byte
		m := soap.Message{
			Action: ActionIHave, ID: wsa.AppendMessageID(id[:0]),
			Name: announceName, Parts: len(list), Size: size,
			Write: func(dst []byte, i int) []byte {
				return appendAnnounce(dst, list[i].Group, list[i].ID, list[i].Hops, d.cfg.Address)
			},
		}
		start := d.now()
		sent, failed := m.Fanout(ctx, d.cfg.Caller, peers)
		d.stats.announced.Add(int64(d.fanned(start, sent, failed)))
	}
	d.mu.Lock()
	d.m.Done(r)
	d.mu.Unlock()
}

// handleIHave fetches the notifications the machine wants of those an IHAVE
// announces (gossip.Machine.IHave), one IWANT each: a Fetch names one
// requester, and a batched one would let a forged requester amplify. A
// malformed child, children naming two holders, or more than
// gossip.DigestCap of them fault the whole envelope as the sender's error,
// and nothing is requested. Each IWANT is written from the announced ID where
// it lies in the receive buffer; one that cannot be sent is released, so a
// later announcer retriggers it.
func (d *Disseminator) handleIHave(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	var inline [8][]byte // more children than a round usually lists
	ids, holder, err := announcesFrom(req.Envelope, inline[:0])
	held := 0
	if err == nil {
		d.mu.Lock()
		ids, held, err = d.m.IHave(ids)
		d.mu.Unlock()
	}
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Announce: "+err.Error())
	}
	d.stats.duplicates.Add(int64(held))
	for _, announced := range ids {
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
			continue
		}
		d.stats.fetched.Add(1)
		d.bumpActivity()
	}
	return nil, nil
}

// handleIWant serves the notification a Fetch asks for (gossip.Machine.IWant)
// to its requester.
func (d *Disseminator) handleIWant(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	requested, requester, err := fetchFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Fetch: "+err.Error())
	}
	var one [1]*stored
	d.mu.Lock()
	held := d.m.IWant(one[:0], [][]byte{requested})
	pin(held, 1)
	d.mu.Unlock()
	if len(held) == 0 {
		return nil, soap.NewFault(soap.CodeSender, fmt.Sprintf("notification %q not held", requested))
	}
	d.retransmit(ctx, requester, held, d.stats.served)
	return nil, nil
}

// pin adds by to the serves reading each slot (stored.refs), so no first
// receipt refills one under a serve. Caller holds d.mu.
func pin(slots []*stored, by int) {
	for _, slot := range slots {
		slot.refs += by
	}
}

// retransmit serves slots, which the caller pinned, to one peer, each
// transfer costing one hop, counts what went out in served, and unpins them.
// A copy is re-headed with the MessageID read in place from its slot and the
// interaction state's InteractionID and context, so a copy stored bare goes
// out with the context when the peer needs it (forward). A copy of an
// interaction the node does not hold names it by a copy of its ID and goes
// out with whatever context it was stored with.
func (d *Disseminator) retransmit(ctx context.Context, to string, slots []*stored, served *metrics.Counter) {
	var sent int64
	for _, slot := range slots {
		env := slot.Envelope()
		if b, ok := env.HeaderBlock(Namespace, "Gossip"); ok {
			if interaction, n, _, err := readNotice(env, b); err == nil {
				d.mu.Lock()
				state := d.interactions[string(interaction)]
				d.mu.Unlock()
				if state == nil {
					state = &interactionState{id: string(interaction)}
				}
				n.hops = gossip.ServedHops(n.hops)
				if out, _ := d.forward(ctx, env, state, n, true, []string{to}); out == 1 {
					sent++
					continue
				}
			}
		}
		d.stats.sendErrors.Add(1)
	}
	d.mu.Lock()
	pin(slots, -1)
	d.mu.Unlock()
	if sent > 0 {
		served.Add(sent)
		d.bumpActivity()
	}
}
