// Package simnet is a deterministic discrete-event network simulator. It
// provides transport.Endpoint attachments for protocol nodes, a virtual
// clock, crash and departure of nodes, and link faults through one
// faults.Table per network (loss, cuts, partitions, refusals, NAT, extra
// delay). All randomness flows from a single seeded source and events are
// totally ordered by (time, sequence), so every experiment is exactly
// reproducible.
//
// The WS-Gossip paper claims behaviour at "very large numbers of services";
// simnet is the substitute for the testbed we do not have (see DESIGN.md §2):
// the protocol code above the transport interface is identical to the code
// that runs over SOAP/HTTP.
//
// Key types: Network (the fabric: Node/Crash/Depart/Recover, Faults for its
// link model, and Run/RunFor/Step driving the event loop; itself a
// clock.Clock) and Node (one transport.Endpoint). A Network schedules on a clock.Virtual — its
// own, or one shared with core.Runner timers via NewOnClock, so thousands of
// self-clocking nodes and their link latencies interleave on a single
// deterministic timeline.
//
// Failure semantics distinguish transient from permanent absence. Crash is
// transient: in-flight deliveries keep their timers and land if the node
// Recovers before they arrive. Depart is permanent (a churn leave): messages
// to a departed node are dropped at enqueue time, after consuming the same
// loss and latency draws a live destination would have, so survivors' random
// streams are unaffected while the timer queue carries no deliveries into
// dead nodes — the property that lets churn runs scale to 10^5-10^6 nodes.
//
// The fire-and-forget contract. A message in flight is one record ({net,
// dest, msg} and a body buffer) handed to clock.Virtual.Schedule: it takes
// the same timer and the same (deadline, seq) slot an AfterFunc in its place
// would, but no stop handle exists, because nothing ever cancels a delivery:
// a crash is checked when it lands. Records come from pools, one per body
// size class from 64 bytes to 1 MiB, and so do their bodies: Send copies
// msg.Body into the record's own buffer (transport's ownership rule: Send
// keeps nothing of the sender's), the handler reads that buffer, and when
// the handler returns the buffer is zeroed and the record goes back to its
// pool. A steady stream of sends reuses the same few records
// and buffers, and a sender may reuse its buffer as soon as Send is back. A
// handler that keeps msg.Body past its return finds it zeroed at once (and
// later reused), so the mistake shows in the first test that reads it.
//
// NewCompactRNG supplies a 16-byte splitmix64 rand.Rand for per-node state
// at that scale (math/rand's default source is ~5 KiB per instance).
package simnet
