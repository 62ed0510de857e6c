package core

import (
	"context"
	"fmt"

	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// envelopeStore retains recent notification envelopes so a lazy-push node
// can serve Fetch requests. FIFO eviction, bounded. Entries are never
// reordered, so insertion order lives in a slice-backed deque (ids[start:],
// oldest first) instead of a linked list — at one store per simulated node
// the per-entry list cells were measurable memory.
type envelopeStore struct {
	cap   int
	ids   []string
	start int
	items map[string]*soap.Envelope
}

func newEnvelopeStore(capacity int) *envelopeStore {
	if capacity <= 0 {
		capacity = 1024
	}
	return &envelopeStore{
		cap:   capacity,
		items: make(map[string]*soap.Envelope),
	}
}

func (s *envelopeStore) Put(id string, env *soap.Envelope) {
	if _, ok := s.items[id]; ok {
		return
	}
	s.items[id] = env
	s.ids = append(s.ids, id)
	for len(s.items) > s.cap {
		delete(s.items, s.ids[s.start])
		s.ids[s.start] = ""
		s.start++
	}
	if s.start > len(s.ids)/2 && s.start > 64 {
		s.ids = append(s.ids[:0], s.ids[s.start:]...)
		s.start = 0
	}
}

func (s *envelopeStore) Get(id string) (*soap.Envelope, bool) {
	env, ok := s.items[id]
	return env, ok
}

func (s *envelopeStore) Len() int { return len(s.items) }

// each calls fn for every stored ID, newest first, stopping when fn returns
// false.
func (s *envelopeStore) each(fn func(id string) bool) {
	for i := len(s.ids) - 1; i >= s.start; i-- {
		if !fn(s.ids[i]) {
			return
		}
	}
}

// maxPendingAnnounces bounds the deferred-announcement queue. Beyond it new
// advertisements are dropped (anti-entropy repair closes the residual gap),
// which keeps a node that stopped ticking from buffering without bound.
const maxPendingAnnounces = 4096

// DeferAnnouncements switches the node's lazy-push advertisements from the
// receive path to a timer: instead of sending IHAVE immediately on intake,
// the gossip layer queues the advertisement and TickAnnounce flushes the
// queue each announce round. core.Runner calls this when configured with an
// announce loop; once deferred, the node must be ticked or lazy-push spread
// stalls at it.
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
		d.announce(ctx, p.gh, p.state)
	}
}

// announce implements the lazy-push spread step: advertise the notification
// to up to fanout targets; unseen receivers fetch the payload. The IHAVE is
// one logical message: it is serialized once and rendered per target.
func (d *Disseminator) announce(ctx context.Context, gh GossipHeader, state *interactionState) {
	d.mu.Lock()
	targets := d.sampleTargetsLocked(state.params.Fanout, state.params.Targets)
	d.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		Action:    ActionIHave,
		MessageID: wsa.NewMessageID(),
	}); err != nil {
		d.stats.sendErrors.Add(int64(len(targets)))
		return
	}
	env.SetBodyBlock(announceBlock(Announce{
		InteractionID: gh.InteractionID,
		MessageID:     gh.MessageID,
		Hops:          gh.Hops - 1,
		Holder:        d.cfg.Address,
	}))
	d.stats.announced.Add(int64(d.fanout(ctx, env, targets)))
}

// handleIHave requests the payload of an unseen announced notification.
func (d *Disseminator) handleIHave(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	ann, err := announceFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Announce: "+err.Error())
	}
	d.mu.Lock()
	if d.seen.Contains(ann.MessageID) {
		d.mu.Unlock()
		d.stats.duplicates.Add(1)
		return nil, nil
	}
	if _, pending := d.requested[ann.MessageID]; pending {
		d.mu.Unlock()
		return nil, nil
	}
	d.requested[ann.MessageID] = struct{}{}
	d.mu.Unlock()

	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		To:        ann.Holder,
		Action:    ActionIWant,
		MessageID: wsa.NewMessageID(),
	}); err != nil {
		return nil, err
	}
	env.SetBodyBlock(fetchBlock(Fetch{MessageID: ann.MessageID, Requester: d.cfg.Address}))
	if err := d.cfg.Caller.Send(ctx, ann.Holder, env); err != nil {
		d.mu.Lock()
		// Allow a later announcer to retrigger the fetch.
		delete(d.requested, ann.MessageID)
		d.mu.Unlock()
		d.stats.sendErrors.Add(1)
		return nil, nil
	}
	d.stats.fetched.Add(1)
	d.bumpActivity()
	return nil, nil
}

// handleIWant serves a stored notification to the requester with a
// decremented hop budget.
func (d *Disseminator) handleIWant(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	fetch, err := fetchFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Fetch: "+err.Error())
	}
	d.mu.Lock()
	stored, ok := d.store.Get(fetch.MessageID)
	d.mu.Unlock()
	if !ok {
		return nil, soap.NewFault(soap.CodeSender,
			fmt.Sprintf("notification %q not held", fetch.MessageID))
	}
	gh, err := GossipHeaderFrom(stored)
	if err != nil {
		return nil, err
	}
	out := stored.Snapshot()
	// The transfer consumes one hop, exactly as an eager forward would.
	next := gh
	if next.Hops > 0 {
		next.Hops--
	}
	if err := SetGossipHeader(out, next); err != nil {
		return nil, err
	}
	if err := out.SetAddressing(wsa.Headers{
		To:        fetch.Requester,
		Action:    ActionNotify,
		MessageID: wsa.MessageID(gh.MessageID),
	}); err != nil {
		return nil, err
	}
	if err := d.cfg.Caller.Send(ctx, fetch.Requester, out); err != nil {
		d.stats.sendErrors.Add(1)
		return nil, nil
	}
	d.stats.served.Add(1)
	d.bumpActivity()
	return nil, nil
}
