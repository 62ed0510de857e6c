package core

import (
	"context"
	"fmt"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// maxPendingAnnounces bounds the deferred-announcement queue. Beyond it new
// advertisements are dropped (anti-entropy repair closes the residual gap),
// which keeps a node that stopped ticking from buffering without bound.
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
func (d *Disseminator) TickAnnounce(ctx context.Context) {
	d.mu.Lock()
	queued := d.pendingAnn
	d.pendingAnn = nil
	d.mu.Unlock()
	for _, p := range queued {
		d.transfer(ctx, nil, p.gh, p.state, p.t)
	}
}

// handleIHave requests the payload of an unseen announced notification. The
// machine is asked with the announced ID as it lies in the receive buffer,
// so an announcement of a notification already held or already requested —
// most of them — copies nothing; only a first announce makes the ID a
// string. A fetch that cannot be sent is released, so a later announcer
// retriggers it.
func (d *Disseminator) handleIHave(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	announced, holder, err := announceFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Announce: "+err.Error())
	}
	d.mu.Lock()
	id, want, held := d.m.Want(announced)
	d.mu.Unlock()
	if held {
		d.stats.duplicates.Add(1)
	}
	if !want {
		return nil, nil
	}
	env := soap.NewEnvelope()
	env.SetBodyBlock(fetchBlock(Fetch{MessageID: id, Requester: d.cfg.Address}))
	err = env.SetAddressing(wsa.Headers{To: holder, Action: ActionIWant, MessageID: wsa.NewMessageID()})
	if err == nil {
		err = d.cfg.Caller.Send(ctx, holder, env)
	}
	if err != nil {
		d.mu.Lock()
		d.m.Release(id)
		d.mu.Unlock()
		d.stats.sendErrors.Add(1)
		return nil, nil
	}
	d.stats.fetched.Add(1)
	d.bumpActivity()
	return nil, nil
}

// handleIWant serves a stored notification to the requester, the transfer
// costing one hop. The requested ID is looked up as it lies in the receive
// buffer, and the retransmission carries the ID the store holds and the
// InteractionID the interaction state holds.
func (d *Disseminator) handleIWant(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	requested, requester, err := fetchFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Fetch: "+err.Error())
	}
	d.mu.Lock()
	held, ok := d.m.Get(requested)
	d.mu.Unlock()
	if !ok {
		return nil, soap.NewFault(soap.CodeSender,
			fmt.Sprintf("notification %q not held", requested))
	}
	if err := d.serve(ctx, requester, held); err != nil {
		d.stats.sendErrors.Add(1)
		return nil, nil
	}
	d.stats.served.Add(1)
	d.bumpActivity()
	return nil, nil
}

// serve retransmits a held notification to one peer, the transfer costing
// one hop.
func (d *Disseminator) serve(ctx context.Context, to string, h heldNotification) error {
	gh, err := d.heldHeader(h)
	if err != nil {
		return err
	}
	gh.Hops = gossip.ServedHops(gh.Hops)
	out, err := renotify(h.env, gh, to)
	if err != nil {
		return err
	}
	return d.cfg.Caller.Send(ctx, to, out)
}

// heldHeader reads the gossip header of a held notification, for a
// retransmission. A canonical header takes its MessageID from the store slot
// — the header's equals it, since the store is keyed by it — and its
// InteractionID from the node's interaction state, so neither is copied; any
// other spelling decodes through encoding/xml.
func (d *Disseminator) heldHeader(h heldNotification) (GossipHeader, error) {
	b, ok := h.env.HeaderBlock(Namespace, "Gossip")
	if !ok {
		return GossipHeader{}, ErrNoGossipHeader
	}
	if f, ok := scanGossipHeader(b.Raw); ok {
		d.mu.Lock()
		interaction := d.interactionIDLocked(f.interactionID)
		d.mu.Unlock()
		return f.headerWith(h.id, interaction), nil
	}
	return decodeGossipHeader(b)
}
