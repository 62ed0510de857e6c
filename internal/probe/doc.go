// Package probe implements SWIM-style indirect reachability confirmation,
// the runtime's answer to asymmetric link failures.
//
// A delivery circuit opening proves only that WE cannot reach the peer —
// on a one-way-dead link the peer is healthy and everyone else can talk to
// it. Escalating straight to membership.Suspect would evict a live node
// from every sampler view. Instead, the Prober interposes: when a circuit
// opens it asks K other peers to ping the target on our behalf (ping-req),
// each helper probes directly (ping), forwards the target's answer
// (ping-ack) back to the origin (ping-req-ack), and a single positive
// report cancels the suspicion and marks the link asymmetric-degraded. No
// report within the timeout concedes the suspicion and OnDown fires.
//
// The protocol is four one-way SOAP actions under urn:wsgossip:probe, sent
// over the RAW caller rather than the delivery plane, so probe traffic is
// subject to the same link faults as the payload traffic it adjudicates —
// and never consults the breaker it exists to second-guess. Its rules are
// the unexported machine (machine.go), which does no I/O: nonces are
// deterministic ("self#seq" for a round, "self*seq" for a relay), and every
// timeout is a due instant. The Prober is its binding: one lock, one
// clock.Clock timer armed at the machine's earliest due instant, and the
// caller-seeded RNG, drawn for helpers only when a round opens, so whole
// confirmation rounds replay exactly under clock.Virtual.
//
// Exported metrics: delivery_indirect_probes_total{result},
// membership_suspicions_averted_total, probe_messages_total{type}.
package probe
