package core

import (
	"context"
	"fmt"

	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// envelopeStore retains recent notification envelopes so a lazy-push node
// can serve Fetch requests and answer repair and pull digests. FIFO eviction,
// bounded. Entries are never reordered, so they live in a ring of slots in
// insertion order — grown by append until it holds cap entries, overwritten
// oldest-first from then on — and the index maps an ID to its slot, which
// never moves while the entry lives. No per-entry cell: at one store per
// simulated node those were measurable memory.
//
// Each slot carries the digest responder's mark: the IDs a digest lists are
// marked with the current generation (markHeld), which beginGen advances once
// per digest, so no mark is ever cleared and answering a digest costs the
// store no memory. One generation is one critical section of the caller's
// lock (Disseminator.mu), from beginGen to the last isHeld.
type envelopeStore struct {
	cap   int
	slots []storeSlot
	head  int // slot of the oldest entry once the ring is full
	index map[string]uint32
	gen   uint32
}

// storeSlot is one retained notification and its digest mark.
type storeSlot struct {
	id   string
	env  *soap.Envelope
	held uint32 // generation of the last digest that listed id
}

func newEnvelopeStore(capacity int) *envelopeStore {
	if capacity <= 0 {
		capacity = 1024
	}
	return &envelopeStore{
		cap:   capacity,
		index: make(map[string]uint32),
	}
}

func (s *envelopeStore) Put(id string, env *soap.Envelope) {
	if _, ok := s.index[id]; ok {
		return
	}
	slot := storeSlot{id: id, env: env}
	if len(s.slots) < s.cap {
		s.index[id] = uint32(len(s.slots))
		s.slots = append(s.slots, slot)
		return
	}
	delete(s.index, s.slots[s.head].id)
	s.index[id] = uint32(s.head)
	s.slots[s.head] = slot
	s.head = (s.head + 1) % s.cap
}

// Get looks id up — a view of a receive buffer will do: the lookup converts
// in place — and returns the entry with the ID the store holds it under, so
// a retransmission needs no copy of it.
func (s *envelopeStore) Get(id []byte) (heldID string, env *soap.Envelope, ok bool) {
	i, ok := s.index[string(id)]
	if !ok {
		return "", nil, false
	}
	return s.slots[i].id, s.slots[i].env, true
}

func (s *envelopeStore) Len() int { return len(s.slots) }

// nth returns the k-th newest entry, 0 ≤ k < Len().
func (s *envelopeStore) nth(k int) *storeSlot {
	// head is 0 until the ring is full, so the newest entry is the slot
	// before head either way.
	n := len(s.slots)
	return &s.slots[(s.head-1-k+n)%n]
}

// beginGen starts a new digest: nothing is marked held.
func (s *envelopeStore) beginGen() {
	s.gen++
	if s.gen == 0 { // wrapped: a mark from 2^32 digests ago must not read as current
		for i := range s.slots {
			s.slots[i].held = 0
		}
		s.gen = 1
	}
}

// markHeld records that the current digest lists id; an ID the store does
// not hold is ignored.
func (s *envelopeStore) markHeld(id string) {
	if i, ok := s.index[id]; ok {
		s.slots[i].held = s.gen
	}
}

// markHeldBytes is markHeld for an ID still in the receive buffer: the
// lookup converts in place and does not allocate.
func (s *envelopeStore) markHeldBytes(id []byte) {
	if i, ok := s.index[string(id)]; ok {
		s.slots[i].held = s.gen
	}
}

// isHeld reports whether the current digest listed the slot's entry.
func (s *envelopeStore) isHeld(slot *storeSlot) bool { return slot.held == s.gen }

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

// handleIHave requests the payload of an unseen announced notification. The
// seen-set and the pending requests are asked with the announced ID as it
// lies in the receive buffer, so an announcement of a notification already
// held or already requested — most of them — copies nothing; only a first
// announce makes the ID a string.
func (d *Disseminator) handleIHave(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	announced, holder, err := announceFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Announce: "+err.Error())
	}
	d.mu.Lock()
	if d.seen.ContainsBytes(announced) {
		d.mu.Unlock()
		d.stats.duplicates.Add(1)
		return nil, nil
	}
	if _, pending := d.requested[string(announced)]; pending {
		d.mu.Unlock()
		return nil, nil
	}
	id := string(announced)
	d.requested[id] = struct{}{}
	d.mu.Unlock()

	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		To:        holder,
		Action:    ActionIWant,
		MessageID: wsa.NewMessageID(),
	}); err != nil {
		return nil, err
	}
	env.SetBodyBlock(fetchBlock(Fetch{MessageID: id, Requester: d.cfg.Address}))
	if err := d.cfg.Caller.Send(ctx, holder, env); err != nil {
		d.mu.Lock()
		// Allow a later announcer to retrigger the fetch.
		delete(d.requested, id)
		d.mu.Unlock()
		d.stats.sendErrors.Add(1)
		return nil, nil
	}
	d.stats.fetched.Add(1)
	d.bumpActivity()
	return nil, nil
}

// handleIWant serves a stored notification to the requester with a
// decremented hop budget. The requested ID is looked up as it lies in the
// receive buffer, and the retransmission carries the ID the store holds.
func (d *Disseminator) handleIWant(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	requested, requester, err := fetchFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Fetch: "+err.Error())
	}
	d.mu.Lock()
	id, stored, ok := d.store.Get(requested)
	d.mu.Unlock()
	if !ok {
		return nil, soap.NewFault(soap.CodeSender,
			fmt.Sprintf("notification %q not held", requested))
	}
	gh, err := heldHeader(id, stored)
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
		To:        requester,
		Action:    ActionNotify,
		MessageID: wsa.MessageID(gh.MessageID),
	}); err != nil {
		return nil, err
	}
	if err := d.cfg.Caller.Send(ctx, requester, out); err != nil {
		d.stats.sendErrors.Add(1)
		return nil, nil
	}
	d.stats.served.Add(1)
	d.bumpActivity()
	return nil, nil
}
