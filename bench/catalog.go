package main

import "encoding/json"

// The benchmark's vocabulary: workloads, end-to-end metrics with their
// bounds, per-layer metrics. BENCHMARK.json at the repository root is the
// contract the driver reads; it is what -contract prints, and
// TestCatalogMatchesContract keeps the two in step.

type workloadInfo struct {
	name, why string
}

var workloads = []workloadInfo{
	{"mem-push-64", "64 disseminators on one MemBus, 256 B body, closed loop, one goroutine: soap codec, core intercept/forward and wscoord header parsing do all the work, undiluted"},
	{"http-node-16", "16 nodes over loopback HTTP with delivery plane and admission gate, 1 KiB body, open loop at 120/s: net/http, connection reuse and the plane dominate; codec gains are diluted"},
	{"virt-node-faulty-32", "32 full nodes on a virtual clock under a fault plan (loss, one-way cut, NAT, crash/recover): lazy push, repair, membership, probes, windowed push-sum, delivery retries and breakers do the work"},
	{"sim-push-100k", "100000 gossip engines on simnet over the sharded virtual clock, 1% loss: the scale path (gossip, transport, simnet, clock); soap, core and delivery do nothing"},
}

type metricInfo struct {
	name, unit string
	higher     bool    // higher is better
	bound      float64 // end-to-end only: tolerated worsening, share of the parent's median
	meaning    string
}

var endToEnd = []metricInfo{
	{"setup_s", "s", false, 0.25, "median of three set-ups: build the system, subscribe, start the interaction, register every disseminator at first contact, warm up until every envelope store is full"},
	{"allocs_per_delivery", "count", false, 0.05, "heap objects allocated in the measured phase per delivery"},
	{"wire_bytes_per_delivery", "B", false, 0.05, "bytes handed to the binding (payload, duplicates, digests, membership, probes, shares, acks, retries) per delivery"},
	{"msgs_per_delivery", "count", false, 0.05, "messages handed to the binding per delivery: attempts per useful outcome"},
	{"coverage", "share", true, 0.03, "delivered pairs / (notifications x subscribers) after the drain; failure share is 1 - coverage"},
	{"heap_live_mib", "MiB", false, 0.05, "HeapAlloc after two forced collections at the end of the measured phase, before teardown"},
}

var perLayer = []metricInfo{
	{name: "soap.decode_ns", unit: "ns", meaning: "replay: soap.Decode of a captured notification"},
	{name: "soap.decode_allocs", unit: "count", meaning: "replay: heap objects per soap.Decode"},
	{name: "soap.encode_ns", unit: "ns", meaning: "replay: Envelope.Encode of a decoded captured notification"},
	{name: "soap.render_ns", unit: "ns", meaning: "replay: WireTemplate.RenderTo, one target"},
	{name: "soap.addressing_ns", unit: "ns", meaning: "replay: first Envelope.Addressing on a decoded notification"},
	{name: "soap.clone_ns", unit: "ns", meaning: "replay: Envelope.Clone of a decoded notification"},
	{name: "soap.fastpath_share", unit: "share", higher: true, meaning: "soap_decode_total{rung=scanner} / all decodes"},
	{name: "soap.pool_hit_share", unit: "share", higher: true, meaning: "soap_pool_gets_total{hit} / all pool gets"},
	{name: "soap.bytes_per_msg", unit: "B", meaning: "bytes / messages at the binding"},
	{name: "soap.membus.send_self_us", unit: "us", meaning: "span: MemBus send self time (queueing and decode) per message"},
	{name: "soap.http.post_us_p50", unit: "us", meaning: "span: HTTP POST duration, median"},
	{name: "soap.http.post_us_p99", unit: "us", meaning: "span: HTTP POST duration, 99th percentile"},
	{name: "soap.http.server_self_us", unit: "us", meaning: "span: POST minus the handler span it caused, mean"},
	{name: "soap.http.dials_per_kmsg", unit: "count", meaning: "TCP dials per 1000 messages, counted in the harness's DialContext"},
	{name: "wscoord.context_parse_ns", unit: "ns", meaning: "replay: wscoord.ContextFrom on a captured notification"},
	{name: "wscoord.register_us", unit: "us", meaning: "span: coordinator Register handler, mean (first contact, in set-up)"},
	{name: "wscoord.registrations", unit: "count", meaning: "coord_registrations_total"},
	{name: "core.header_parse_ns", unit: "ns", meaning: "replay: core.GossipHeaderFrom"},
	{name: "core.header_set_ns", unit: "ns", meaning: "replay: Snapshot + SetGossipHeader + SetAddressing, as a forward does"},
	{name: "core.notify_us", unit: "us", meaning: "span: Initiator.Notify, mean"},
	{name: "core.handler_self_us", unit: "us", meaning: "span: notify-action handler minus its child sends, mean"},
	{name: "core.dup_share", unit: "share", meaning: "redundant intakes: gossip_duplicates_total / (duplicates + gossip_delivered_total); announcements of known notifications count"},
	{name: "core.retransmits_per_delivery", unit: "count", meaning: "gossip_retransmits_total (lazypush, repair, pull) / deliveries"},
	{name: "core.announce_tick_us", unit: "us", meaning: "span: announce loop fire, mean"},
	{name: "core.repair_tick_us", unit: "us", meaning: "span: repair loop fire, mean"},
	{name: "core.pull_tick_us", unit: "us", meaning: "span: pull loop fire, mean"},
	{name: "core.store_entries", unit: "count", meaning: "envelopes retained across nodes: sum of min(unique deliveries, StoreSize)"},
	{name: "delivery.send_self_us", unit: "us", meaning: "span: role send minus the binding send inside it, mean"},
	{name: "delivery.queue_wait_us_p50", unit: "us", meaning: "role send to first hand-off to the binding, median"},
	{name: "delivery.queue_wait_us_p99", unit: "us", meaning: "role send to first hand-off to the binding, 99th percentile"},
	{name: "delivery.retry_share", unit: "share", meaning: "delivery_retries_total / delivery_attempts_total"},
	{name: "delivery.drop_share", unit: "share", meaning: "delivery_drops_total / messages submitted to the plane"},
	{name: "delivery.breaker_opens", unit: "count", meaning: "delivery_breaker_transitions_total{to=open}"},
	{name: "delivery.gate_admit_ns", unit: "ns", meaning: "replay: Gate middleware admitting one request"},
	{name: "delivery.shed_share", unit: "share", meaning: "shed / (admitted + shed) at the admission gates"},
	{name: "delivery.peer_entries", unit: "count", meaning: "per-peer plane entries across nodes"},
	{name: "membership.exchange_us", unit: "us", meaning: "span: membership exchange handler, mean"},
	{name: "membership.select_peers_ns", unit: "ns", meaning: "replay: Service.SelectPeers on a node's live view"},
	{name: "membership.bytes_share", unit: "share", meaning: "membership bytes / all bytes at the binding"},
	{name: "membership.suspects", unit: "count", meaning: "membership_suspects_total"},
	{name: "probe.rounds", unit: "count", meaning: "delivery_indirect_probes_total"},
	{name: "probe.msgs_per_round", unit: "count", meaning: "probe_messages_total / rounds"},
	{name: "probe.averted_share", unit: "share", meaning: "averted rounds / rounds"},
	{name: "aggregate.exchange_us", unit: "us", meaning: "span: aggregate exchange handler, mean"},
	{name: "aggregate.codec_ns", unit: "ns", meaning: "replay: Share body SetBody + DecodeBody"},
	{name: "aggregate.bytes_share", unit: "share", meaning: "aggregate exchange and ack bytes / all bytes at the binding"},
	{name: "aggregate.retry_share", unit: "share", meaning: "aggregate_exchange_retries_total / shares sent"},
	{name: "aggregate.mass_error_max", unit: "count", meaning: "largest |aggregate_mass_error| seen on any node at any sample"},
	{name: "aggregate.rel_err_max", unit: "share", meaning: "max over settled closed epochs of |frozen estimate - truth| / truth for count:nodes and avg:load (the issue's agg_rel_err)"},
	{name: "metrics.counter_inc_ns", unit: "ns", meaning: "replay: Counter.Inc"},
	{name: "metrics.histogram_observe_ns", unit: "ns", meaning: "replay: BucketHistogram.Observe"},
	{name: "clock.timer_ns_1", unit: "ns", meaning: "replay: Virtual schedule+fire with one timer pending (one shard occupied)"},
	{name: "clock.timer_ns_16", unit: "ns", meaning: "replay: Virtual schedule+fire with 4096 timers pending (all 16 shards occupied)"},
	{name: "clock.timers_fired", unit: "count", meaning: "timers fired in the measured phase"},
	{name: "clock.pending_max", unit: "count", meaning: "largest Virtual.Pending seen at a batch boundary"},
	{name: "simnet.msgs_per_s", unit: "1/s", higher: true, meaning: "simnet sends per second of robust wall time"},
	{name: "simnet.send_deliver_ns", unit: "ns", meaning: "replay: one simnet send and delivery to a no-op handler"},
	{name: "simnet.drop_share", unit: "share", meaning: "simnet dropped / sent"},
	{name: "transport.dispatch_ns", unit: "ns", meaning: "replay: Mux.Dispatch to a no-op handler"},
	{name: "gossip.handle_push_ns", unit: "ns", meaning: "span: engine inbound handler minus its sends, mean"},
	{name: "gossip.seen_add_ns", unit: "ns", meaning: "replay: SeenSet.Add of a fresh id"},
	{name: "gossip.select_peers_ns", unit: "ns", meaning: "replay: UniformPeers.SelectPeers, fanout of the workload"},
	{name: "faults.check_ns", unit: "ns", meaning: "replay: Table.Check + Lossy under the workload's rules"},
	{name: "faults.dropped", unit: "count", meaning: "sends the fault table dropped or lost"},
	{name: "faults.refused", unit: "count", meaning: "sends the fault table refused"},
	{name: "runtime.gc_cpu_share", unit: "share", meaning: "GC CPU seconds / all CPU seconds over the measured phase"},
	{name: "runtime.gc_cycles", unit: "count", meaning: "collections in the measured phase"},
	{name: "runtime.alloc_bytes_per_delivery", unit: "B", meaning: "TotalAlloc delta / deliveries"},
	{name: "runtime.peak_rss_mib", unit: "MiB", meaning: "VmHWM"},
	{name: "runtime.goroutines_peak", unit: "count", meaning: "largest goroutine count seen at a batch boundary"},
	{name: "harness.deliveries_per_s", unit: "1/s", higher: true, meaning: "unique (notification, subscriber) application deliveries per second of robust wall time; on the open-loop workload, achieved < offered is the backlog tripwire"},
	{name: "harness.cpu_us_per_delivery", unit: "us", meaning: "getrusage user+system time over the measured phase (robust total) per delivery"},
	{name: "harness.deliver_p50_ms", unit: "ms", meaning: "median time from a notification's due time to an application delivery, over all delivered pairs (wall ms on mem and http, virtual ms on virt and sim)"},
	{name: "harness.spread_p50_ms", unit: "ms", meaning: "median over notifications of the time from due time until ceil(0.9 N) subscribers had it"},
	{name: "harness.deliver_p90_ms", unit: "ms", meaning: "90th percentile delivery latency"},
	{name: "harness.deliver_p99_ms", unit: "ms", meaning: "99th percentile delivery latency (exact on the virtual-time workloads)"},
	{name: "harness.spread_p99_ms", unit: "ms", meaning: "99th percentile t90 (exact on the virtual-time workloads)"},
	{name: "harness.sched_late_p99_ms", unit: "ms", meaning: "open loop: 99th percentile of publish start minus due time"},
	{name: "harness.spread_incomplete", unit: "count", meaning: "notifications that never reached ceil(0.9 N) subscribers"},
	{name: "harness.trace_overhead_share", unit: "share", meaning: "CPU per delivery of traced batches over untraced batches, minus one"},
}

// runSeconds is the --seconds the driver passes.
const runSeconds = 10

// contractJSON renders the catalog as BENCHMARK.json.
func contractJSON() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	better := map[bool]string{true: "higher", false: "lower"}
	out := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, workload{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		out.EndToEnd = append(out.EndToEnd, metric{m.name, m.unit, better[m.higher], &bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, metric{m.name, m.unit, better[m.higher], nil})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	return append(data, '\n'), err
}
