package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/core"
	"wsgossip/internal/epidemic"
	"wsgossip/internal/membership"
	"wsgossip/internal/wscoord"
)

// options is one run's input.
type options struct {
	workload string
	seed     int64
	seconds  int  // the measured phase is sized to take about this long on the reference box
	trace    bool // record spans on alternate batches and report per-layer metrics
	quick    bool // CI sizes, for go test
	noTaps   bool // build the system without the harness decorators (tests only)
	// traceFile, when set with trace, receives every span as a JSON line.
	traceFile string
	// start is when this run's first set-up began: the process start for a
	// run in a process of its own.
	start time.Time
}

// result is one run's output.
type result struct {
	// metrics holds every metric the run took, end-to-end and per-layer,
	// by its catalog name.
	metrics           map[string]float64
	attempted, failed int64
	problems          []string // self-check failures; empty means correct
	// exact lists the metrics that are pure functions of the seed on this
	// workload; TestRunTwiceIdentity compares them across two runs.
	exact []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark scenario. setup builds the system, subscribes,
// starts the interaction and warms up; measure runs the measured phase.
type workload interface {
	setup(traced bool) error
	measure(res *result) error
	teardown()
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "mem-push-64":
		return newMemWorkload(o), nil
	case "http-node-16":
		return newHTTPWorkload(o), nil
	case "virt-node-faulty-32":
		return newVirtWorkload(o), nil
	case "sim-push-100k":
		return newSimWorkload(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// procs is the GOMAXPROCS every run uses: the reference box has two cores.
const procs = 2

// setupRepeats is how many times a run sets the system up; setup_s is the
// median, so one cold or disturbed set-up does not move it.
const setupRepeats = 3

// runWorkload sets the workload up setupRepeats times, keeps the last
// system, and measures it.
func runWorkload(o options) (*result, error) {
	runtime.GOMAXPROCS(procs)
	res := newResult()
	var setups []float64
	var w workload
	start := o.start
	repeats := setupRepeats
	if o.quick {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		var err error
		if w, err = newWorkload(o); err != nil {
			return nil, err
		}
		last := i == repeats-1
		if err := w.setup(o.trace && last); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if !last {
			w.teardown()
			w = nil
			runtime.GC()
			start = time.Now()
		}
	}
	res.metrics["setup_s"] = median(setups)
	defer w.teardown()
	if err := w.measure(res); err != nil {
		return nil, fmt.Errorf("%s: measure: %w", o.workload, err)
	}
	return res, nil
}

// observed is what a workload hands over after its measured phase.
type observed struct {
	ph                  *phase
	totals              phaseTotals
	subs, notifications int
	deliver, spread     []float64 // ms, measured notifications only
	pairs, incomplete   int
	wireMsgs, wireBytes float64
	// expected is the analytic coverage the run must reach within 0.02.
	expected float64
	// timedShare is the share of the phase's work done inside timed
	// batches; 0 means all of it.
	timedShare float64
}

// fill computes the end-to-end metrics and the harness and runtime layer
// metrics every workload shares.
func (r *result) fill(o observed, trace bool) {
	d := float64(o.pairs)
	bs := o.ph.batches
	if trace {
		bs = o.ph.only(false)
	}
	wallNs, cpuNs := robustTotals(bs)
	// Robust totals cover the batches used; scale deliveries to match.
	scale := float64(len(bs)) / float64(len(o.ph.batches))
	if o.timedShare > 0 {
		scale *= o.timedShare
	}
	r.metrics["allocs_per_delivery"] = ratio(o.totals.mallocs, d)
	r.metrics["wire_bytes_per_delivery"] = ratio(o.wireBytes, d)
	r.metrics["msgs_per_delivery"] = ratio(o.wireMsgs, d)
	r.metrics["coverage"] = ratio(d, float64(o.subs*o.notifications))
	r.metrics["heap_live_mib"] = o.totals.heapLiveMiB

	r.metrics["soap.bytes_per_msg"] = ratio(o.wireBytes, o.wireMsgs)
	r.metrics["runtime.gc_cpu_share"] = o.totals.gcCPUShare
	r.metrics["runtime.gc_cycles"] = o.totals.gcCycles
	r.metrics["runtime.alloc_bytes_per_delivery"] = ratio(o.totals.allocBytes, d)
	r.metrics["runtime.peak_rss_mib"] = peakRSSMiB()
	r.metrics["runtime.goroutines_peak"] = float64(o.ph.goroutinesMax)
	// Everything derived from wall or CPU time is reported here, not gated
	// end to end: the reference box does not repeat it within any bound
	// the contract allows (CALIBRATION.md).
	r.metrics["harness.deliveries_per_s"] = ratio(d*scale, wallNs/1e9)
	r.metrics["harness.cpu_us_per_delivery"] = ratio(cpuNs/1e3, d*scale)
	r.metrics["harness.deliver_p50_ms"] = quantile(o.deliver, 0.5)
	r.metrics["harness.spread_p50_ms"] = quantile(o.spread, 0.5)
	r.metrics["harness.deliver_p90_ms"] = quantile(o.deliver, 0.9)
	r.metrics["harness.deliver_p99_ms"] = quantile(o.deliver, 0.99)
	r.metrics["harness.spread_p99_ms"] = quantile(o.spread, 0.99)
	r.metrics["harness.spread_incomplete"] = float64(o.incomplete)
	if traced := o.ph.only(true); trace && len(traced) > 0 && cpuNs > 0 {
		// Equal work per batch, so the median batch's CPU compares directly.
		_, on := robustTotals(traced)
		r.metrics["harness.trace_overhead_share"] = (on/float64(len(traced)))/(cpuNs/float64(len(bs))) - 1
	}
	r.checkCoverage(r.metrics["coverage"], o.expected)
}

// expectedCoverage is the epidemic model's prediction for infect-and-die
// push with the given loss; 0 when the model rejects the parameters.
func expectedCoverage(n, fanout, hops int, loss float64) float64 {
	c, err := epidemic.ExpectedCoverageLossy(n, fanout, hops, loss)
	if err != nil {
		return 0
	}
	return c
}

// soapLayers fills the counter-, span- and replay-derived layer metrics of
// a SOAP cluster. d is the counter delta over the measured phase.
func (r *result) soapLayers(c *cluster, d counts, pairs float64, storeSize int) {
	l := r.metrics
	decodes := d.sum("soap_decode_total{scanner}", "soap_decode_total{zerocopy}", "soap_decode_total{legacy}")
	l["soap.fastpath_share"] = ratio(d["soap_decode_total{scanner}"], decodes)
	l["soap.pool_hit_share"] = share(d["soap_pool_gets_total{hit}"], d["soap_pool_gets_total{miss}"])
	l["wscoord.registrations"] = c.snapshot()["coord_registrations_total"]
	l["core.dup_share"] = share(d["gossip_duplicates_total"], d["gossip_delivered_total"])
	l["core.retransmits_per_delivery"] = ratio(d.sum("gossip_retransmits_total{lazypush}",
		"gossip_retransmits_total{pull}", "gossip_retransmits_total{repair}"), pairs)
	for _, ds := range c.dissems {
		l["core.store_entries"] += math.Min(float64(ds.Stats().Delivered), float64(storeSize))
	}
	l["delivery.retry_share"] = ratio(d["delivery_retries_total"], d["delivery_attempts_total"])
	l["delivery.drop_share"] = ratio(d.sum("delivery_drops_total{queue_full}", "delivery_drops_total{circuit_open}",
		"delivery_drops_total{budget}", "delivery_drops_total{sender_fault}"), d["role.sends"])
	l["delivery.breaker_opens"] = d["delivery_breaker_transitions_total{open}"]
	l["delivery.shed_share"] = share(d["shed_requests_total{shed}"], d["shed_requests_total{admitted}"])
	for _, p := range c.planes {
		l["delivery.peer_entries"] += float64(p.Stats().Peers)
	}
	l["membership.suspects"] = d["membership_suspects_total"]
	rounds := d.sum("delivery_indirect_probes_total{averted}", "delivery_indirect_probes_total{timeout}",
		"delivery_indirect_probes_total{no_helpers}")
	l["probe.rounds"] = rounds
	l["probe.msgs_per_round"] = ratio(d.sum("probe_messages_total{ping_req}", "probe_messages_total{ping}",
		"probe_messages_total{ping_ack}", "probe_messages_total{ping_req_ack}"), rounds)
	l["probe.averted_share"] = ratio(d["delivery_indirect_probes_total{averted}"], rounds)
	l["aggregate.retry_share"] = ratio(d["aggregate_exchange_retries_total"], d["aggregate_shares_sent_total"])
	replayMetrics(l)
	if c.t != nil {
		r.spanLayers(c.t)
		replaySOAP(l, c.t.sample[core.ActionNotify])
		replayAggregate(l, c.t.sample[aggregate.ActionExchange])
	}
}

// spanLayers fills the span-derived layer metrics.
func (r *result) spanLayers(t *tracer) {
	l := r.metrics
	handler := func(action string) spanStats {
		return t.stats(func(s *span) bool { return s.kind == spanHandler && s.label == action })
	}
	loop := func(name string) float64 {
		return t.stats(func(s *span) bool { return s.kind == spanLoop && s.label == name }).meanDurUs()
	}
	l["core.notify_us"] = t.stats(func(s *span) bool { return s.kind == spanNotify }).meanDurUs()
	l["core.handler_self_us"] = handler(core.ActionNotify).meanSelfUs()
	l["core.announce_tick_us"] = loop("announce")
	l["core.repair_tick_us"] = loop("repair")
	l["core.pull_tick_us"] = loop("pull")
	l["wscoord.register_us"] = handler(wscoord.ActionRegister).meanDurUs()
	l["membership.exchange_us"] = handler(membership.ActionExchange).meanSelfUs()
	l["aggregate.exchange_us"] = handler(aggregate.ActionExchange).meanSelfUs()
	l["delivery.send_self_us"] = t.stats(func(s *span) bool { return s.kind == spanRoleSend }).meanSelfUs()
	l["delivery.queue_wait_us_p50"] = quantile(t.waits, 0.5)
	l["delivery.queue_wait_us_p99"] = quantile(t.waits, 0.99)
	var all, member, agg float64
	for action, c := range t.byAct {
		all += float64(c.bytes)
		switch action {
		case membership.ActionExchange, membership.ActionLeave:
			member += float64(c.bytes)
		case aggregate.ActionExchange, aggregate.ActionExchangeAck:
			agg += float64(c.bytes)
		}
	}
	l["membership.bytes_share"] = ratio(member, all)
	l["aggregate.bytes_share"] = ratio(agg, all)
}
