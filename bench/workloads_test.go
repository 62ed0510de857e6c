package main

import (
	"testing"
	"time"
)

func quickOptions(workload string, seed int64) options {
	return options{workload: workload, seed: seed, seconds: 1, quick: true, start: time.Now()}
}

func mustRun(t *testing.T, o options) *result {
	t.Helper()
	o.start = time.Now()
	res, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		t.Errorf("%s: self-check failed: %s", o.workload, p)
	}
	return res
}

// The single-goroutine workloads are pure functions of their seed: two
// runs agree to the digit on every count and every virtual latency, and a
// different seed gives different inputs.
func TestRunTwiceIdentity(t *testing.T) {
	for _, name := range []string{"mem-push-64", "virt-node-faulty-32", "sim-push-100k"} {
		t.Run(name, func(t *testing.T) {
			a := mustRun(t, quickOptions(name, 7))
			b := mustRun(t, quickOptions(name, 7))
			other := mustRun(t, quickOptions(name, 8))
			if len(a.exact) == 0 {
				t.Fatal("workload names no exact metrics")
			}
			same := true
			for _, m := range a.exact {
				if a.metrics[m] != b.metrics[m] {
					t.Errorf("%s: %v then %v with the same seed", m, a.metrics[m], b.metrics[m])
				}
				same = same && a.metrics[m] == other.metrics[m]
			}
			if same {
				t.Errorf("seed 8 reproduced seed 7 on every one of %v: the seed does not reach the inputs", a.exact)
			}
			for _, m := range endToEnd {
				if v, ok := a.metrics[m.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", m.name, v)
				}
			}
			if a.attempted < 1 || a.failed != 0 {
				t.Errorf("attempted %d, failed %d", a.attempted, a.failed)
			}
		})
	}
}

// A traced run reports every per-layer metric by name, and the layers a
// workload exercises read non-zero.
func TestTracedRunsReportLayers(t *testing.T) {
	busy := map[string][]string{
		"mem-push-64": {"soap.decode_ns", "soap.encode_ns", "soap.render_ns", "soap.addressing_ns", "soap.clone_ns",
			"soap.fastpath_share", "soap.bytes_per_msg", "soap.membus.send_self_us", "wscoord.context_parse_ns",
			"wscoord.register_us", "wscoord.registrations", "core.header_parse_ns", "core.header_set_ns",
			"core.notify_us", "core.handler_self_us", "core.dup_share", "core.store_entries",
			"metrics.counter_inc_ns", "runtime.alloc_bytes_per_delivery", "harness.deliver_p99_ms"},
		"virt-node-faulty-32": {"core.announce_tick_us", "core.repair_tick_us", "core.pull_tick_us",
			"core.retransmits_per_delivery", "delivery.send_self_us", "delivery.queue_wait_us_p50",
			"delivery.retry_share", "delivery.breaker_opens", "delivery.peer_entries", "membership.exchange_us",
			"membership.select_peers_ns", "membership.bytes_share", "probe.rounds", "probe.msgs_per_round",
			"aggregate.exchange_us", "aggregate.codec_ns", "aggregate.bytes_share", "aggregate.retry_share",
			"clock.timer_ns_1", "clock.timer_ns_16", "clock.timers_fired", "clock.pending_max",
			"faults.check_ns", "faults.dropped", "faults.refused"},
		"sim-push-100k": {"simnet.msgs_per_s", "simnet.send_deliver_ns", "simnet.drop_share", "transport.dispatch_ns",
			"gossip.handle_push_ns", "gossip.seen_add_ns", "gossip.select_peers_ns", "clock.timers_fired",
			"clock.pending_max", "clock.timer_ns_16"},
	}
	for name, want := range busy {
		t.Run(name, func(t *testing.T) {
			o := quickOptions(name, 3)
			o.trace = true
			res := mustRun(t, o)
			for _, m := range perLayer {
				if _, ok := res.metrics[m.name]; !ok {
					res.metrics[m.name] = 0 // an idle layer reads zero
				}
			}
			for _, m := range want {
				if res.metrics[m] <= 0 {
					t.Errorf("%s = %v, want a positive value: the layer runs on this workload", m, res.metrics[m])
				}
			}
			if name == "sim-push-100k" && res.metrics["soap.decode_ns"] != 0 {
				t.Error("soap.decode_ns is non-zero on the simulator, where soap does nothing")
			}
		})
	}
}

// The harness decorators implement soap.EncodedSender as well as
// soap.Caller, so the system takes the same wire path with them as
// without: the decode fast-path share and the gossip send counts do not
// move. (A decorator without SendEncoded would push soap.Fanout onto its
// per-target re-encode.)
func TestTapsAreTransparent(t *testing.T) {
	run := func(noTaps bool) counts {
		o := quickOptions("mem-push-64", 5)
		o.noTaps = noTaps
		w := newMemWorkload(o)
		if err := w.setup(false); err != nil {
			t.Fatal(err)
		}
		defer w.teardown()
		res := newResult()
		if err := w.measure(res); err != nil {
			t.Fatal(err)
		}
		return w.c.snapshot()
	}
	with, without := run(false), run(true)
	for _, k := range []string{"gossip_sends_total{push}", "gossip_delivered_total", "gossip_duplicates_total",
		"soap_decode_total{scanner}", "soap_decode_total{zerocopy}", "soap_decode_total{legacy}"} {
		if with[k] != without[k] {
			t.Errorf("%s = %v with the taps, %v without", k, with[k], without[k])
		}
	}
	if with["gossip_sends_total{push}"] == 0 || with["soap_decode_total{scanner}"] == 0 {
		t.Error("the run sent nothing")
	}
	if with["wire.msgs"] == 0 || without["wire.msgs"] != 0 {
		t.Errorf("taps counted %v messages when on and %v when off", with["wire.msgs"], without["wire.msgs"])
	}
}
