package core

import (
	"context"
	"fmt"

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
// notification taken in since the previous round is announced to freshly
// sampled peers. Call it from a timer at the deployment's announce interval
// (core.Runner's announce loop does).
//
// The round takes the queue and the arena its MessageIDs were copied into,
// and hands both back, emptied, for the next round to fill — unless an
// announcement was queued while it ran (a synchronous binding can deliver
// back into this node), which keeps the buffers it started.
func (d *Disseminator) TickAnnounce(ctx context.Context) {
	d.mu.Lock()
	queued, ids := d.pendingAnn, d.annIDs
	d.pendingAnn, d.annIDs = nil, nil
	d.mu.Unlock()
	for _, p := range queued {
		d.transfer(ctx, nil, p.n, p.state, p.t)
	}
	clear(queued) // the interaction states go with their interactions
	d.mu.Lock()
	if d.pendingAnn == nil {
		d.pendingAnn, d.annIDs = queued[:0], ids[:0]
	}
	d.mu.Unlock()
}

// handleIHave requests the payload of an unseen announced notification. The
// machine is asked with the sum of the announced ID as it lies in the receive
// buffer, and the IWANT written from it there straight into the wire buffer,
// so an announcement copies nothing. A fetch that cannot be sent is
// released, so a later announcer retriggers it.
func (d *Disseminator) handleIHave(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	announced, holder, err := announceFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Announce: "+err.Error())
	}
	sum := gossip.IDSum(announced)
	d.mu.Lock()
	want, held := d.m.Want(sum)
	d.mu.Unlock()
	if held {
		d.stats.duplicates.Add(1)
	}
	if !want {
		return nil, nil
	}
	var id [wsa.MessageIDLen]byte
	m := soap.Message{
		To: holder, Action: ActionIWant, ID: wsa.AppendMessageID(id[:0]),
		Name: fetchName, Parts: 1, Size: flatOverhead + len(announced) + len(d.cfg.Address),
		Write: func(dst []byte, _ int) []byte { return appendFetch(dst, announced, d.cfg.Address) },
	}
	if err := m.Send(ctx, d.cfg.Caller, holder); err != nil {
		d.mu.Lock()
		d.m.Release(sum)
		d.mu.Unlock()
		d.stats.sendErrors.Add(1)
		return nil, nil
	}
	d.stats.fetched.Add(1)
	d.bumpActivity()
	return nil, nil
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
