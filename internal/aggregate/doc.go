// Package aggregate implements WS-Gossip aggregation: a push-sum engine
// (Kempe et al., FOCS 2003) lifted to the WS layer as a coordination
// protocol (core.ProtocolAggregate). Where the dissemination protocols move
// one notification to many services, aggregation moves a *summary* of many
// services' local values to whoever asks: count, sum, average, minimum, or
// maximum over thousands of subscribers, computed with nothing but gossip
// exchanges of (sum, weight) pairs.
//
// Roles:
//
//   - A Service participates: it holds local values, joins an aggregation
//     interaction on first contact (registering with the Coordinator's
//     Registration service exactly like a Disseminator does), and exchanges
//     push-sum shares each round — with coordinator-assigned peers, or with
//     peers sampled from a live membership view when ServiceConfig.Peers is
//     set (core.PeerView). It is the SOAP binding of the task machine.
//   - A Querier is a Service that also activates an aggregation
//     interaction, seeds the weight that anchors count/sum queries, and
//     disseminates the start message over the assigned overlay. It embeds
//     its Service, so it exchanges like any other node.
//   - A Window keeps a set of queries (ContinuousQuery) fresh: driven as the
//     querier's Runner loop, it starts each once and reports the frozen
//     estimate of every closed epoch.
//   - A SimNode is the simnet binding of the same task machine, with one
//     configured task, for simulator-scale runs (cmd/wsgossip-sim -mode
//     aggregate).
//
// Exchange rounds fire from a core.Runner loop that ticks the Service (or
// the Window); with wsgossip.NodeConfig.QuiescentMax set, NewNode makes that
// loop back off exponentially while no task is exchanging, snapping back
// when a task or share arrives (Service.ActivityCount / OnActivity).
//
// There is one push-sum protocol. Time is cut into epochs on a shared clock
// (EpochAt: epoch k occupies [(k-1)·w, k·w)), and every task carries its
// window w. Crossing a boundary freezes the closing epoch's estimate — the
// stable value consumers read — and re-contributes the node's live local
// value into fresh state, so the estimate tracks churn window by window; a
// deployment that wants one answer runs a window longer than it waits. A node
// that joins mid-window relays passively until the next boundary and only
// then contributes (contributeFrom), never retroactively.
//
// Mass conservation is the engine's invariant: shares are only ever moved,
// never created or destroyed, so within an epoch the sums Σsᵢ and Σwᵢ are
// constant and every estimate sᵢ/wᵢ converges to Σs/Σw. The analytic
// convergence rate lives in internal/epidemic (PushSumContraction and
// friends); experiment e10 cross-checks the implementation against it. It
// holds under loss because the exchange is pairwise-atomic: a sent share
// stays in the sender's outstanding ledger until the receiver's ack commits
// it, absorb+ack is idempotent under (sender, seq) dedup, and only a
// synchronous first-send failure may recover mass locally (a retry failure
// never does — an earlier attempt may have been delivered). The
// aggregate_mass_error gauge is evaluated after every transition and reads
// exactly zero at every observable instant; the property-based suite in
// internal/scenario holds it there under generated loss/churn/partition
// schedules.
//
// The protocol is written once, in two sans-IO layers with no lock, clock
// or I/O. The task machine (machine.go) is the node's policy: the task
// table — install, passive join (contributeFrom) and drop — each round's
// fan-out and every task's prefix of the round's one draw, the verdict on
// each send (sent; a refused retry counted; a refused first send
// reclaimed), and the count of every event, one Stats for both bindings.
// Under it, the unexported exchange type (exchange.go) is one task's State,
// ledger, epoch, pending and seen shares behind the transitions roll, tick,
// absorb (which answers with the ack), commit and reclaim. Service and
// SimNode are bindings of the machine and decide nothing: they read the
// clock, supply the contribution at a roll, and move bytes. The Service
// keeps its mutex, with sends outside it, the Register calls, the start
// flood, and the SOAP framing of a round as one envelope per peer
// (sendShareBatch, sendAcks); the SimNode runs inline on the simulator's
// event loop and sends each share and ack as its own message, in machine
// order. A share and its ack have one wire form (wire.go), on soap's
// flat-element codec: the SimNode sends one as the transport.Message body,
// the Service as children of a SOAP body.
//
// A Service round is one envelope per peer. The machine draws the round's
// targets from the live view once, at the largest fanout any task asks
// for, and each task takes its prefix of that sample; the round's shares
// for one peer, every task's, travel in one envelope. A task's coordination-context
// header rides along only when the peer may lack the task: the machine keeps
// the peers with recent evidence of holding it (an ack from the peer
// committing a share sent to it, or a share absorbed from it), and a fresh
// share to one of them goes without; a retry, or a share to any other peer,
// carries it. A peer that lost the task refuses a share without its context
// as a Sender fault, and the per-share rule above recovers the mass either
// way. The receiver reads every child before applying any — one bad child
// faults the whole envelope — and answers with one ack envelope without a
// context. A refused envelope reclaims each first send in it, forgetting
// that its peer held the task, and counts each retry as a send error; a
// share whose refusal the binding never sees (a delivery plane queued it)
// stays pending and is retried, with the context, the next round.
package aggregate
