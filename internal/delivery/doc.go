// Package delivery is the failure-aware outbound plane between the gossip
// roles and the SOAP binding: the explicit policy layer between "fire" and
// "forget". The paper's dissemination model treats a lost send as something
// epidemic redundancy will repair; under production load a node also needs
// bounded buffering, bounded retry, and a way to stop hammering peers that
// are down or drowning. Plane supplies exactly that, as a transparent
// soap.Caller wrapper, so the data plane's fan-outs — gossip
// forward/announce/repair/pull and push-sum traffic — route through it
// unchanged. Membership exchanges and indirect probes do not: a Node puts
// them on the raw binding on purpose, because the failure detector must see
// the real link, not a retried view of it.
//
// Per peer, a Plane keeps a bounded FIFO queue with at most one one-way
// attempt in flight (which is what keeps delivery FIFO; Calls bypass the
// queue and that limit), attempts each message with a per-attempt timeout,
// retries transient failures on jittered exponential backoff up to a
// per-message attempt budget, and runs a circuit breaker: consecutive
// transport failures open the circuit (fast-failing fresh sends so epidemic
// redundancy reroutes while queued messages wait), a cooldown later one
// half-open probe decides between closing and re-opening. A receiver that
// sheds load with a retry-after fault (soap.NewOverloadedFault, produced
// by Gate) defers the peer's whole queue for the hinted duration instead
// of counting toward the breaker — an overloaded peer is alive, just busy.
//
// That policy is a machine with no I/O (machine.go): per-peer queue,
// in-flight count, deferral, backoff and breaker, with every instant passed
// in. It decides admission (attempt now, as the half-open probe, queue, or
// refuse), the outcome of an attempt (landed, rejected, shed or failed, with
// any circuit transition and the message's fate) and the instant the head of
// a queue is next due, each in one place. The Plane is its binding: the
// mutex, one pump timer per peer armed at the machine's next-due instant,
// the attempts and their contexts, the item free list, the metrics and the
// OnPeerDown/OnPeerUp hooks.
//
// Every policy timer rides the shared clock.Clock, so the full retry /
// backoff / breaker / deferral state machine is deterministic under
// clock.Virtual — the chaos scenarios in internal/scenario drive it
// through flapping links and saturated receivers and assert exact metric
// counts, and TestPlaneLaws holds it to its laws over random schedules.
//
// The context a binding receives for one attempt carries the caller's
// values. Its deadline is the caller's, or, when the plane's clock is wall
// time (clock.Real), the instant AttemptTimeout elapses if that is earlier —
// so soap.HTTPClient adds no timeout context of its own. It is cancelled
// when the caller's context ends, when AttemptTimeout has elapsed on the
// plane's clock, or when the attempt returns. Err reports that without
// arming anything. The first Done makes a context.WithCancel child of the
// caller's context and arms the timeout timer that cancels it, so a
// synchronous binding that never asks for Done (MemBus, the virtual fabric)
// pays for neither; net/http asks on every request. A binding may keep the context past return: it stays cancelled,
// and a retry gets a fresh one. So no context is ever handed out twice; each
// is carved from a slab of 64, so an attempt does not allocate one of its
// own. The item that carries a message through its peer's queue never
// reaches a binding, and is recycled through the plane's free list once the
// message settles: a send that lands through a synchronous binding
// allocates nothing.
//
// Key types:
//
//   - Plane — the outbound plane; implements soap.Caller, and queues and
//     retries a message as the bytes it was handed (an envelope is encoded
//     once, on the way in). FilterView demotes open-circuit peers from peer
//     sampling; OnPeerDown reports breaker trips to the membership layer
//     (repeated delivery failure → suspect).
//   - Gate — the inbound half: a token-bucket admission gate, exposed as
//     soap.Middleware, that sheds excess requests with a Receiver fault
//     carrying the retry-after hint Plane honors.
//
// Instrumentation (via the node's metrics.Registry): delivery_attempts_total,
// delivery_retries_total, delivery_attempt_failures_total{kind},
// delivery_drops_total{reason}, delivery_deferrals_total,
// delivery_queue_depth, delivery_inflight, delivery_breaker_open,
// delivery_breaker_transitions_total{to}, delivery_attempt_seconds, and on
// the gate delivery_shed_total plus shed_requests_total{result}. All
// series are pre-resolved at construction, so the families are visible at
// boot and the hot path never touches a registry map.
package delivery
