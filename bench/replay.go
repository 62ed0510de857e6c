package main

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/faults"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/simnet"
	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
	"wsgossip/internal/wsa"
	"wsgossip/internal/wscoord"
)

// Replays time one public function of one layer on inputs captured from the
// run (or, for layers without inputs, on a private instance), after the
// measured phase. Each is the median over replayBatches batches.

const (
	replayBatches = 15
	replayBatchNs = 2e6
)

// nsPerOp times op, which is called with 0, 1, 2, ... and must be safe to
// call any number of times.
func nsPerOp(op func(i int)) float64 {
	count, i := 1, 0
	for {
		start := time.Now()
		for k := 0; k < count; k++ {
			op(i)
			i++
		}
		if el := time.Since(start); el >= replayBatchNs/4 || count >= 1<<24 {
			count = int(float64(count)*replayBatchNs/float64(el+1)) + 1
			break
		}
		count *= 4
	}
	per := make([]float64, replayBatches)
	for b := range per {
		start := time.Now()
		for k := 0; k < count; k++ {
			op(i)
			i++
		}
		per[b] = float64(time.Since(start)) / float64(count)
	}
	return median(per)
}

// allocsPerOp counts heap objects per call of op.
func allocsPerOp(op func(i int)) float64 {
	const n = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n
}

var sink any

// replayRNG drives replays that sample.
var replayRNG = rand.New(rand.NewSource(1))

// replayAddrs are precomputed so address formatting stays out of the timed loops.
var replayAddrs = func() (a [64]string) {
	for i := range a {
		a[i] = nodeAddr(i)
	}
	return a
}()

// replaySOAP fills the soap, wscoord and core replay metrics from captured
// notify-action messages.
func replaySOAP(out map[string]float64, notifies [][]byte) {
	if len(notifies) == 0 {
		return
	}
	pick := func(i int) []byte { return notifies[i%len(notifies)] }
	out["soap.decode_ns"] = nsPerOp(func(i int) { sink, _ = soap.Decode(pick(i)) })
	out["soap.decode_allocs"] = allocsPerOp(func(i int) { sink, _ = soap.Decode(pick(i)) })

	envs := make([]*soap.Envelope, len(notifies))
	for i, data := range notifies {
		env, err := soap.Decode(data)
		if err != nil {
			return
		}
		envs[i] = env
	}
	env := func(i int) *soap.Envelope { return envs[i%len(envs)] }
	out["soap.encode_ns"] = nsPerOp(func(i int) { sink, _ = env(i).Encode() })
	out["soap.clone_ns"] = nsPerOp(func(i int) { sink = env(i).Clone() })
	if tmpl, err := envs[0].EncodeTemplate(); err == nil {
		out["soap.render_ns"] = nsPerOp(func(i int) { sink = tmpl.RenderTo(replayAddrs[i&63]) })
	}
	// Addressing is parsed once and cached on the envelope, so each timed
	// call needs an envelope nobody has asked yet: decode a batch untimed,
	// then time the first Addressing of each.
	per := make([]float64, replayBatches)
	fresh := make([]*soap.Envelope, 1024)
	for b := range per {
		for i := range fresh {
			fresh[i], _ = soap.Decode(pick(i))
		}
		start := time.Now()
		for _, e := range fresh {
			sink = e.Addressing()
		}
		per[b] = float64(time.Since(start)) / float64(len(fresh))
	}
	out["soap.addressing_ns"] = median(per)
	out["wscoord.context_parse_ns"] = nsPerOp(func(i int) { sink, _ = wscoord.ContextFrom(env(i)) })
	out["core.header_parse_ns"] = nsPerOp(func(i int) { sink, _ = core.GossipHeaderFrom(env(i)) })
	gh, err := core.GossipHeaderFrom(envs[0])
	if err != nil {
		return
	}
	out["core.header_set_ns"] = nsPerOp(func(i int) {
		fwd := env(i).Snapshot()
		next := gh
		next.Hops--
		_ = core.SetGossipHeader(fwd, next)
		_ = fwd.SetAddressing(wsa.Headers{Action: core.ActionNotify, MessageID: wsa.MessageID(gh.MessageID)})
		sink = fwd
	})
}

// replayAggregate times the push-sum share codec on captured exchanges.
func replayAggregate(out map[string]float64, exchanges [][]byte) {
	if len(exchanges) == 0 {
		return
	}
	env, err := soap.Decode(exchanges[0])
	if err != nil {
		return
	}
	var share aggregate.Share
	if env.DecodeBody(&share) != nil {
		return
	}
	out["aggregate.codec_ns"] = nsPerOp(func(int) {
		e := soap.NewEnvelope()
		_ = e.SetBody(share)
		var back aggregate.Share
		_ = e.DecodeBody(&back)
		sink = back
	})
}

func replayMetrics(out map[string]float64) {
	reg := metrics.NewRegistry()
	c := reg.Counter("bench_counter")
	h := reg.BucketHistogram("bench_histogram", metrics.DefLatencyBuckets)
	out["metrics.counter_inc_ns"] = nsPerOp(func(int) { c.Inc() })
	out["metrics.histogram_observe_ns"] = nsPerOp(func(i int) { h.Observe(float64(i&1023) * 1e-5) })
}

func replayGate(out map[string]float64) {
	gate := delivery.NewGate(delivery.GateConfig{Clock: clock.NewReal(), Rate: gateRate, Burst: gateBurst})
	next := soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) { return nil, nil })
	h := gate.Middleware()(next)
	req := &soap.Request{Envelope: soap.NewEnvelope()}
	ctx := context.Background()
	out["delivery.gate_admit_ns"] = nsPerOp(func(int) { sink, _ = h.HandleSOAP(ctx, req) })
}

// replayClock times one schedule+fire on a private Virtual with pending
// other timers queued behind it.
func replayClock(out map[string]float64) {
	for _, c := range []struct {
		name    string
		pending int
	}{{"clock.timer_ns_1", 0}, {"clock.timer_ns_16", 4096}} {
		clk := clock.NewVirtual()
		for i := 0; i < c.pending; i++ {
			clk.AfterFunc(time.Duration(1<<40+i), func() {})
		}
		fn := func() {}
		out[c.name] = nsPerOp(func(int) {
			clk.AfterFunc(time.Microsecond, fn)
			clk.Step()
		})
	}
}

func replaySimnet(out map[string]float64, seed int64) {
	net := simnet.New(simnet.DefaultConfig(seed))
	a, b := net.Node("a"), net.Node("b")
	b.SetHandler(func(context.Context, transport.Message) error { return nil })
	msg := transport.Message{To: "b", Action: "x", Body: []byte("payload")}
	ctx := context.Background()
	out["simnet.send_deliver_ns"] = nsPerOp(func(int) {
		_ = a.Send(ctx, msg)
		net.Step()
	})
	mux := transport.NewMux()
	mux.Handle("x", func(context.Context, transport.Message) error { return nil })
	out["transport.dispatch_ns"] = nsPerOp(func(int) { _ = mux.Dispatch(ctx, msg) })
}

func replayGossip(out map[string]float64, n, fanout int, seed int64) {
	// A 1024-entry set fed a cycle of 16384 ids: every Add is of an id the
	// set has long evicted, so each is a fresh insert with an eviction.
	seen := gossip.NewSeenSet(1024)
	ids := make([]string, 1<<14)
	for i := range ids {
		ids[i] = "urn:uuid:" + strconv.Itoa(1e9+i)
	}
	out["gossip.seen_add_ns"] = nsPerOp(func(i int) { seen.Add(ids[i&(len(ids)-1)]) })
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = simAddr(i)
	}
	peers := gossip.NewUniformPeers(addrs)
	rng := simnet.NewCompactRNG(seed)
	out["gossip.select_peers_ns"] = nsPerOp(func(int) { sink = peers.SelectPeers(rng, fanout, addrs[0]) })
}

// replayFaults times a send's worth of fault-table work under rules like
// the workload's: background loss, a cut, a NAT.
func replayFaults(out map[string]float64, seed int64) {
	tbl := faults.NewTable()
	tbl.SetLoss(0.05)
	tbl.Cut("cut", replayAddrs[1:2], replayAddrs[2:3])
	tbl.SetNAT(replayAddrs[3], replayAddrs[4], replayAddrs[5])
	rng := rand.New(rand.NewSource(seed))
	out["faults.check_ns"] = nsPerOp(func(i int) {
		from, to := replayAddrs[i&31], replayAddrs[(i>>5)&31]
		if tbl.Check(from, to).Outcome == faults.Deliver {
			tbl.Lossy(from, to, rng)
		}
	})
}
