// Package core implements the WS-Gossip framework itself: the four roles of
// the paper's Figure 1 (Initiator, Disseminator, Consumer, Coordinator), the
// gossip SOAP header that hop-bounds a disseminated notification, and the
// GossipParameters registration extension through which the Coordinator
// provides "adequate parameter configurations and peers for each gossip
// round" (Section 3).
//
// The division of labour follows the paper exactly:
//
//   - The Initiator's application code is changed: it activates a gossip
//     coordination context, registers, and issues a single notification.
//   - A Disseminator's application code is oblivious to gossip; a handler in
//     its middleware stack intercepts notifications, registers with the
//     Registration service on first contact with an interaction, delivers
//     the message locally, and re-routes copies to selected peers.
//   - A Consumer is completely unchanged: the gossip header passes through
//     its stack unexamined.
//   - The Coordinator serves WS-Coordination's Activation and Registration
//     services (package wscoord holds only their message types and
//     clients) plus the subscription list. It keeps one activity table,
//     keyed by context Identifier, with each activity's expiry; it accepts
//     only the gossip coordination type, and it validates registrations
//     against a fixed table of the coordination protocol URIs
//     (WS-PushGossip, WS-PullGossip, and the aggregation protocol; see
//     ProtocolPushGossip and friends), answering each with that protocol's
//     parameters and peers.
//
// The Disseminator is a SOAP binding of gossip.Machine, the one
// implementation of the dissemination protocol (gossip.Engine is the
// other): the machine holds the state and decides every spread; the
// Disseminator decodes, registers on first contact, queues deferred
// announcements, draws targets, encodes and sends. Anti-entropy repair and
// WS-PullGossip are one digest exchange (digest.go): one round, one responder.
// A digest is the machine's (store.Digest): the 64-bit sums of the newest
// held MessageIDs (gossip.IDSum), at most gossip.DigestCap, and whether its
// sender holds more. Core adds only the framing — base64 in one <Sums>
// element, <Truncated> after it — and reads the sums back through
// gossip.ParseSums; the responder then serves only what is newer than the
// oldest sum listed (DESIGN.md, "Digests of sums").
//
// The machine knows a notification only by that sum. intercept takes it from
// the MessageID where it lies in the received header, so a first receipt,
// like a duplicate, builds no MessageID string: the store holds the
// envelope's clone, and a forward, a served copy, an IHAVE and the IWANT
// that answers one write the ID from bytes already held — the received
// header's, or the stored clone's (notice). Only a deferred announcement,
// which outlives its delivery, copies the ID, and GossipHeaderFrom still
// returns strings (DESIGN.md, "One identity per notification").
//
// Key types beyond the roles:
//
//   - GossipHeader / GossipParameters / AggregateParameters — the SOAP
//     extension blocks the protocols ride on.
//   - Runner — the self-clocking round engine: every periodic protocol
//     round (TickPull, TickRepair, TickAnnounce, aggregation exchanges,
//     membership view exchanges, coordinator expiry pruning) fires from a
//     Runner on a pluggable clock.Clock. RunnerConfig is only the clock,
//     the RNG, the metrics registry and the Loops; the builder (for a
//     node, wsgossip.NewNode) names the rounds. A Loop with MaxPeriod
//     backs off exponentially while its Activity counter stands still and
//     snaps back (Runner.Wake) when traffic returns.
//   - PeerView — the sample-time peer source. The Disseminator, the
//     aggregation Service, and the Initiator consult it on every fan-out,
//     which turns the static coordinator-assigned target list into a mere
//     bootstrap fallback; membership.Service is the live implementation.
//
// The hot send paths run on package soap's byte-level wire path — scanner
// capture in, verbatim splice out, one encoding/xml fallback each way for
// documents that are not in the canonical form (see DESIGN.md, "capture →
// store → splice → patch").
//
// Every role takes an optional Metrics registry (package metrics); nil
// falls back to a private one, so instrumentation is unconditional. The
// Stats() structs are read-side views over the same registry series an
// operator scrapes through package obs (DESIGN.md, "Observability").
package core
