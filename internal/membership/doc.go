// Package membership implements a WS-Membership-style service (Vogels &
// van Renesse, reference [10] of the paper): a gossip-based membership view
// with heartbeat failure detection. It is the runtime's live peer-view
// layer — core.PeerView is satisfied by Service, so disseminators,
// aggregation services, and initiators can sample the current overlay for
// every fan-out instead of a coordinator-frozen target list — and
// decentralized deployments use it directly as the gossip engine's peer
// provider.
//
// The protocol is the classic epidemic membership scheme: each node keeps a
// table of (address, heartbeat, last-refresh); every Tick it increments its
// own heartbeat and pushes its table to a few random peers; receivers merge
// entries with higher heartbeats. Entries not refreshed within SuspectAfter
// become suspects, and within RemoveAfter are removed. Explicit departures
// (Leave) spread as tombstones. With Config.MaxView set the service behaves
// as a partial-view peer-sampling service, keeping per-node state O(MaxView)
// at large scale: a join through more seeds than the cap evicts as a merge
// does. One leave removes at most one member, the one its message
// names as From; entries naming anyone else are ignored and counted in
// membership_leave_rejected_total. That From is the real sender on the
// simulator's transport, but over SOAPEndpoint it is the body's own From
// element, which nothing authenticates: there, a peer can still make a
// receiver tombstone one other member by naming it as From.
//
// # Wire form
//
// An exchange or a leave is one XML element on soap's flat-element codec,
//
//	<Membership xmlns="urn:wsgossip:membership"><From>addr</From><Members>
//	<M><A>addr</A><H>heartbeat</H></M>…</Members></Membership>
//
// without the line breaks: an exchange lists the sender first, then every
// member it knows in address order; a leave lists the sender alone. The
// writer is byte-identical to xml.Marshal of the equivalent struct. The
// Service writes the element once per round as the transport message body,
// which the simulator's transport carries as it is and SOAPEndpoint as the
// SOAP body block, so every target of a round shares one buffer. The
// receiver walks the entries where they lie and copies an address only when
// it becomes a new member; any other spelling is decoded by encoding/xml and
// rewritten canonically first. A body that lists no member is malformed:
// that includes the JSON view a peer from an older build sends inside a
// Data element, which SOAPEndpoint answers with a Sender fault.
//
// Key types:
//
//   - machine — the protocol without I/O (machine.go): the view, the
//     tombstones and the evictions, and one method per rule — join, tick,
//     exchange, leave, suspect — each taking now and returning its outcome,
//     plus what an exchange and a leave carry. It draws only a capped view's
//     eviction victim, from the Service's RNG.
//   - Service — one node's protocol instance, the machine's binding: its
//     lock, clock, endpoint, counters and fan-out draws. Join/Tick/Leave
//     drive it, Alive/Members/SelectPeers read it. Tick is a core.Loop's
//     round body, so view exchanges self-clock on the same clock.Clock as
//     every other gossip round.
//   - SOAPEndpoint — carries the view exchanges over the node's SOAP
//     binding (MemBus, HTTP, or a test bus), so the membership overlay and
//     the WS-Gossip services share one endpoint address space.
//   - Member / State — one view entry and its alive/suspect classification.
package membership
