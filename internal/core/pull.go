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
	// The digest request is one logical message: serialize it once and
	// render a per-target copy (encode-once wire path).
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		Action:    ActionPullRequest,
		MessageID: wsa.NewMessageID(),
	}); err != nil {
		d.stats.sendErrors.Add(int64(len(targets)))
		return
	}
	if err := env.SetBody(PullRequest{Requester: d.cfg.Address, MessageIDs: ids, Max: digestCap}); err != nil {
		d.stats.sendErrors.Add(int64(len(targets)))
		return
	}
	d.stats.pullsSent.Add(int64(d.fanout(ctx, env, targets)))
}

// handlePullRequest retransmits stored notifications the requester lacks.
func (d *Disseminator) handlePullRequest(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	var pr PullRequest
	if err := req.Envelope.DecodeBody(&pr); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed PullRequest: "+err.Error())
	}
	if pr.Requester == "" {
		return nil, soap.NewFault(soap.CodeSender, "pull request without requester")
	}
	max := pr.Max
	if max <= 0 || max > digestCap {
		max = digestCap
	}
	have := make(map[string]struct{}, len(pr.MessageIDs))
	for _, id := range pr.MessageIDs {
		have[id] = struct{}{}
	}
	served := d.retransmitMissing(ctx, pr.Requester, have, max)
	d.stats.pullServed.Add(served)
	if served > 0 {
		d.bumpActivity()
	}
	return nil, nil
}

// retransmitMissing sends every stored notification absent from have to the
// given peer (up to max), decrementing each copy's hop budget exactly as an
// eager transfer would. It returns the number of successful retransmissions.
// Both anti-entropy repair (handleDigest) and WS-PullGossip
// (handlePullRequest) converge on this path.
func (d *Disseminator) retransmitMissing(ctx context.Context, to string, have map[string]struct{}, max int) int64 {
	d.mu.Lock()
	var missing []*soap.Envelope
	if max <= 0 {
		d.mu.Unlock()
		return 0
	}
	d.store.each(func(id string) bool {
		if _, ok := have[id]; ok {
			return true
		}
		if env, ok := d.store.Get(id); ok {
			missing = append(missing, env.Snapshot())
		}
		return len(missing) < max
	})
	d.mu.Unlock()
	var served int64
	for _, env := range missing {
		gh, err := GossipHeaderFrom(env)
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
