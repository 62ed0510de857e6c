package delivery

import "wsgossip/internal/metrics"

// planeMetrics holds the plane's pre-resolved series. Labels are bounded
// (failure kind, drop reason, breaker transition) — never per-peer, which
// would make cardinality grow with the overlay; per-peer detail is served
// by Plane.States for the health endpoint instead.
type planeMetrics struct {
	attempts      *metrics.Counter         // delivery_attempts_total
	retries       *metrics.Counter         // delivery_retries_total
	failTransport *metrics.Counter         // delivery_attempt_failures_total{kind="transport"}
	failShed      *metrics.Counter         // delivery_attempt_failures_total{kind="shed"}
	failSender    *metrics.Counter         // delivery_attempt_failures_total{kind="sender_fault"}
	dropQueueFull *metrics.Counter         // delivery_drops_total{reason="queue_full"}
	dropCircuit   *metrics.Counter         // delivery_drops_total{reason="circuit_open"}
	dropBudget    *metrics.Counter         // delivery_drops_total{reason="budget"}
	dropSender    *metrics.Counter         // delivery_drops_total{reason="sender_fault"}
	dropClosed    *metrics.Counter         // delivery_drops_total{reason="closed"}
	deferrals     *metrics.Counter         // delivery_deferrals_total
	queueDepth    *metrics.Gauge           // delivery_queue_depth (all peers)
	inflight      *metrics.Gauge           // delivery_inflight (all peers)
	breakerOpen   *metrics.Gauge           // delivery_breaker_open (open circuits)
	transOpen     *metrics.Counter         // delivery_breaker_transitions_total{to="open"}
	transClosed   *metrics.Counter         // delivery_breaker_transitions_total{to="closed"}
	attemptSec    *metrics.BucketHistogram // delivery_attempt_seconds
}

// newPlaneMetrics resolves every plane series from reg; a nil reg gets a
// private throwaway registry so the hot path never branches on "metrics
// installed?".
func newPlaneMetrics(reg *metrics.Registry) *planeMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	fail := reg.CounterVec("delivery_attempt_failures_total", "kind")
	drop := reg.CounterVec("delivery_drops_total", "reason")
	trans := reg.CounterVec("delivery_breaker_transitions_total", "to")
	return &planeMetrics{
		attempts:      reg.Counter("delivery_attempts_total"),
		retries:       reg.Counter("delivery_retries_total"),
		failTransport: fail.With("transport"),
		failShed:      fail.With("shed"),
		failSender:    fail.With("sender_fault"),
		dropQueueFull: drop.With("queue_full"),
		dropCircuit:   drop.With("circuit_open"),
		dropBudget:    drop.With("budget"),
		dropSender:    drop.With("sender_fault"),
		dropClosed:    drop.With("closed"),
		deferrals:     reg.Counter("delivery_deferrals_total"),
		queueDepth:    reg.Gauge("delivery_queue_depth"),
		inflight:      reg.Gauge("delivery_inflight"),
		breakerOpen:   reg.Gauge("delivery_breaker_open"),
		transOpen:     trans.With("open"),
		transClosed:   trans.With("closed"),
		attemptSec:    reg.BucketHistogram("delivery_attempt_seconds", metrics.DefLatencyBuckets),
	}
}

// settled counts one attempt's outcome and its circuit transition.
func (m *planeMetrics) settled(o outcome, t transition) {
	switch o {
	case rejected:
		m.failSender.Inc()
	case shed:
		m.failShed.Inc()
		m.deferrals.Inc()
	case failed:
		m.failTransport.Inc()
	}
	switch t {
	case wentDown:
		m.transOpen.Inc()
		m.breakerOpen.Add(1)
	case wentUp:
		m.transClosed.Inc()
		m.breakerOpen.Add(-1)
	}
}

// drop counts a message the plane refused or dropped, by the error it
// surfaced: one of the sentinels, or a receiver's Sender fault. nil counts
// nothing.
func (m *planeMetrics) drop(err error) {
	switch err {
	case nil:
	case ErrClosed:
		m.dropClosed.Inc()
	case ErrCircuitOpen:
		m.dropCircuit.Inc()
	case ErrQueueFull:
		m.dropQueueFull.Inc()
	case ErrBudgetExhausted:
		m.dropBudget.Inc()
	default:
		m.dropSender.Inc()
	}
}

// gateMetrics holds the admission gate's pre-resolved series.
type gateMetrics struct {
	shed     *metrics.Counter // delivery_shed_total
	admitted *metrics.Counter // shed_requests_total{result="admitted"}
	refused  *metrics.Counter // shed_requests_total{result="shed"}
	exempt   *metrics.Counter // shed_requests_total{result="exempt"}
}

func newGateMetrics(reg *metrics.Registry) *gateMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	res := reg.CounterVec("shed_requests_total", "result")
	return &gateMetrics{
		shed:     reg.Counter("delivery_shed_total"),
		admitted: res.With("admitted"),
		refused:  res.With("shed"),
		exempt:   res.With("exempt"),
	}
}
