package core

import (
	"context"

	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// WS-PullGossip: instead of eagerly re-routing notifications, a puller
// periodically sends a digest of the notifications it holds to
// coordinator-assigned peers; each peer answers by retransmitting stored
// notifications absent from the digest. The envelope store that serves
// lazy-push fetches (lazy.go) doubles as the pull store, and the batch
// retransmission path is shared with anti-entropy repair (repair.go) — pull
// is the same digest/repair exchange promoted from a backstop to the
// primary dissemination mechanism.

// TickPull runs one WS-PullGossip round: for every pull-style interaction
// the node participates in, it sends a PullRequest digest to up to fanout
// peers drawn from the interaction's targets. Call it from a timer at the
// deployment's pull interval.
func (d *Disseminator) TickPull(ctx context.Context) {
	d.mu.Lock()
	ids := d.storedIDsLocked(digestCap)
	targets := d.roundTargetsLocked(true)
	d.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	env, err := digestEnvelope(ActionPullRequest, pullRequestBlock(d.cfg.Address, ids, digestCap))
	if err != nil {
		d.stats.sendErrors.Add(int64(len(targets)))
		return
	}
	d.stats.pullsSent.Add(int64(d.fanout(ctx, env, targets)))
}

// handlePullRequest retransmits stored notifications the requester lacks.
func (d *Disseminator) handlePullRequest(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	requester, held, max, err := pullRequestFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed PullRequest: "+err.Error())
	}
	if requester == "" {
		return nil, soap.NewFault(soap.CodeSender, "pull request without requester")
	}
	if max <= 0 || max > digestCap {
		max = digestCap
	}
	served := d.retransmitMissing(ctx, requester, held, max)
	d.stats.pullServed.Add(served)
	if served > 0 {
		d.bumpActivity()
	}
	return nil, nil
}

// retransmitMissing sends every stored notification the digest's sender
// does not hold to it (up to max, newest first), decrementing each copy's hop
// budget exactly as an eager transfer would. It returns the number of
// successful retransmissions. Both anti-entropy repair (handleDigest) and
// WS-PullGossip (handlePullRequest) converge on this path. Each copy's
// header is read with the ID its store slot holds (heldHeader), so nothing
// is copied for it. The digest is
// matched against the store inside one critical section — marks of one
// generation, then the walk over what stayed unmarked — so concurrent digests
// cannot see each other's marks, and a digest that finds nothing missing
// allocates nothing. held may alias the request's receive buffer: it is not
// used after the lock is released.
func (d *Disseminator) retransmitMissing(ctx context.Context, to string, held heldIDs, max int) int64 {
	var missing []storeSlot
	d.mu.Lock()
	d.store.beginGen()
	held.mark(d.store)
	for k := 0; k < d.store.Len() && len(missing) < max; k++ {
		if slot := d.store.nth(k); !d.store.isHeld(slot) {
			missing = append(missing, storeSlot{id: slot.id, env: slot.env.Snapshot()})
		}
	}
	d.mu.Unlock()
	var served int64
	for _, slot := range missing {
		env := slot.env
		gh, err := heldHeader(slot.id, env)
		if err != nil {
			continue
		}
		next := gh
		if next.Hops > 0 {
			next.Hops--
		}
		if err := SetGossipHeader(env, next); err != nil {
			d.stats.sendErrors.Add(1)
			continue
		}
		if err := env.SetAddressing(wsa.Headers{
			To:        to,
			Action:    ActionNotify,
			MessageID: wsa.MessageID(gh.MessageID),
		}); err != nil {
			d.stats.sendErrors.Add(1)
			continue
		}
		if err := d.cfg.Caller.Send(ctx, to, env); err != nil {
			d.stats.sendErrors.Add(1)
			continue
		}
		served++
	}
	return served
}
