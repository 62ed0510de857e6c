// Package gossip implements the epidemic dissemination engine at the core of
// WS-Gossip. It supports the gossip styles the paper's framework encompasses
// (Section 4: "encompassing different gossip styles"): eager push (the
// WS-PushGossip protocol of Section 3), lazy push (announce/request), pull
// anti-entropy, push-pull, and flooding as a degenerate baseline.
//
// The two key protocol parameters match the paper's Section 2: Fanout (f),
// the number of targets each process selects locally, and Hops (the paper's
// rounds r), the maximum number of times a message is forwarded before being
// ignored.
//
// Key types:
//
//   - Machine — the one implementation of the protocol: all dissemination
//     state and every decision, with no lock, no clock and no I/O. It knows
//     a notification by one 64-bit identity, IDSum (the FNV-1a of its ID),
//     which it takes from the ID's bytes where they lie: the seen cache,
//     the store, the outstanding requests and the counter-mongering counts
//     are all keyed by it, and no ID string is kept. Two IDs with one sum
//     are one notification to it — a missed delivery, never a duplicate
//     one. It decides each receipt (Receive, Spread) and each round: Queue
//     and AnnounceRound make an announce round, whose IHaves are the
//     per-peer IHAVE lists, in queue order, at most DigestCap each, peers
//     drawn one after another that get the same list sharing one; the
//     round's draws go through the binding's Draw, and Done takes the
//     round back once sent. IHave decides which announced IDs are fetched
//     (an IHAVE of more than DigestCap is refused), IWant what an IWANT is
//     served (each held rumor once, at most DigestCap), and ReleaseStale,
//     which an ending announce round runs, which fetches are taken for
//     lost. Its store writes the one digest both bindings send (Digest: the
//     sums of the newest DigestCap held values, and whether it holds more)
//     and answers one: Missing returns at most DigestCap held values whose
//     sum is not listed, and for a truncated digest only those newer than
//     its oldest listed sum. ParseSums reads a digest's sums back. The
//     engine's pull request carries them raw, a SOAP digest in base64.
//   - Engine — the Machine bound to a transport.Endpoint, what the simulator
//     runs (core.Disseminator binds it over SOAP); Publish injects a rumor,
//     Tick ends a request round and, for the styles that pull, runs an
//     anti-entropy round. A lazy-push receipt is an announce round of one.
//   - Bimodal Multicast (pbcast) is a configuration, not a type: a
//     StyleFlood publisher with Hops 1 and StylePull receivers
//     (experiments.pbcastGroup, E4).
//   - PeerProvider — the peer source abstraction (StaticPeers for fixed
//     sets, UniformPeers at simulator scale, membership.Service for live
//     views); SamplePeers is the shared uniform-without-replacement sampler
//     every layer draws through, and AppendSample the same draw into a
//     caller's buffer. The Engine draws a send's peers from a UniformPeers
//     into a buffer on its stack (UniformPeers.AppendPeers), so a forward
//     allocates nothing once its store slot and body buffer are reused.
//   - SeenSet — the machine's seen cache behind a lock of its own, for
//     deduplication without a machine.
//   - Rumor / Style — the unit of dissemination and the spread discipline.
//
// The wire form (wire.go) is one length-prefixed binary codec — a kind byte
// (rumors | refs), a uvarint count, then per rumor len‖id, len‖origin,
// uvarint hops, len‖payload and per ref len‖id, uvarint hops; a pull request
// is the kind byte, a truncated byte and len‖sums — appended to a caller's
// buffer, a pooled one in the engine. There is no second format and no fallback: the body
// of a transport.Message is opaque to everything but the engine.
//
// The view-reader contract. Handlers do not decode a body into a struct; they
// walk it with a reader whose fields alias msg.Body. The whole body is
// validated before the first state change, so a malformed tail never leaves a
// half-applied message (and a rejection allocates nothing). The Machine is
// asked with the ID as it lies in the body, so a duplicate — two receipts in
// three under push — is dropped before anything is built.
//
// The ownership rule is transport's: a body is lent, never given. A handler's
// msg.Body is valid only during the call, so views die with it: the Machine
// keeps only their sums, and a first receipt is copied once into a store slot
// that owns one slab, ID | origin | payload. Publish and Inject copy the
// caller's payload the same way. Deliver is handed a Rumor built from the
// slot: its ID and Origin are views of the slab, strings over its bytes
// rather than copies, which a callback may keep, and its Payload aliases the
// slab, valid only during the callback. A kept ID keeps its rumor's whole
// slab alive. A delivered slab is never rewritten: an engine with a Deliver
// callback writes each slab once, and only an engine without one refills the
// slab of the slot its store evicts in place. Send does not keep the body it
// is handed, so the engine writes every body it sends into a pooled buffer,
// zeroed and returned once its sends are done, and IWANT and pull responses
// are written straight from the slots. So no slab is rewritten while anything
// reads it, which is why a slot needs no reference count.
package gossip
