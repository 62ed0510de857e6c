package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"wsgossip/internal/gossip"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// sim-push-100k: gossip.Engines (push) on simnet over the sharded
// clock.Virtual with 1% loss, built directly from the memory-diet
// primitives (compact per-node RNG, rejection-sampling peer set, interned
// rumor ids) — not through experiments.ScaleCoverage, whose quantile is an
// insertion sort that goes quadratic on a hundred thousand latencies. The
// measured events are published a few virtual milliseconds apart from
// different origins, so their epidemics overlap in flight and the timer
// heap runs deep. soap, core and delivery do nothing here.

type simSizes struct {
	nodes, fanout, hops int
	loss                float64
	events              int
	stagger             time.Duration
	batchSteps          int // timers fired per batch
}

func simSizesFor(o options) simSizes {
	s := simSizes{nodes: 100000, fanout: 3, loss: 0.01, stagger: 5 * time.Millisecond, batchSteps: 1 << 15}
	s.events = (simEventsPer10s*o.seconds + 5) / 10
	if s.events < 1 {
		s.events = 1
	}
	if o.quick {
		s.nodes, s.events, s.batchSteps = 4000, 4, 1<<11
	}
	s.hops = int(math.Ceil(math.Log2(float64(s.nodes)))) + 2
	return s
}

// simEventsPer10s is how many events the reference box disseminates to the
// whole population in ten seconds.
const simEventsPer10s = 3

func simAddr(i int) string { return fmt.Sprintf("n%07d", i) }

type simWorkload struct {
	o       options
	s       simSizes
	t       *tracer
	net     *simnet.Network
	engines []*gossip.Engine
	track   *tracker
	idx     *gossip.IDIndex
}

func newSimWorkload(o options) *simWorkload {
	return &simWorkload{o: o, s: simSizesFor(o)}
}

// tappedEndpoint decorates a transport.Endpoint: one span per send, one
// per inbound message.
type tappedEndpoint struct {
	transport.Endpoint
	t    *tracer
	node int
}

func (e *tappedEndpoint) Send(ctx context.Context, msg transport.Message) error {
	if !e.t.enabled() {
		return e.Endpoint.Send(ctx, msg)
	}
	s, ctx := e.t.begin(ctx, spanWireSend, e.node)
	err := e.Endpoint.Send(ctx, msg)
	e.t.end(s)
	return err
}

func (e *tappedEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(ctx context.Context, msg transport.Message) error {
		if !e.t.enabled() {
			return h(ctx, msg)
		}
		s, ctx := e.t.begin(ctx, spanHandler, e.node)
		s.label = msg.Action
		err := h(ctx, msg)
		e.t.end(s)
		return err
	})
}

func (w *simWorkload) setup(traced bool) error {
	if traced {
		w.t = newTracer(false)
	}
	cfg := simnet.DefaultConfig(w.o.seed)
	cfg.LossRate = w.s.loss
	w.net = simnet.New(cfg)
	w.idx = gossip.NewIDIndex()
	w.track = newTracker(w.s.nodes, 1+w.s.events, func() int64 { return int64(w.net.Now()) })
	addrs := make([]string, w.s.nodes)
	for i := range addrs {
		addrs[i] = simAddr(i)
	}
	peers := gossip.NewUniformPeers(addrs)
	w.engines = make([]*gossip.Engine, w.s.nodes)
	for i := range addrs {
		i := i
		var ep transport.Endpoint = w.net.Node(addrs[i])
		if w.t != nil {
			ep = &tappedEndpoint{Endpoint: ep, t: w.t, node: i}
		}
		eng, err := gossip.New(gossip.Config{
			Style:    gossip.StylePush,
			Fanout:   w.s.fanout,
			Hops:     w.s.hops,
			Endpoint: ep,
			Peers:    peers,
			RNG:      simnet.NewCompactRNG(w.o.seed*7919 + int64(i)),
			// A run disseminates a handful of events; the defaults are
			// sized for long-lived nodes.
			SeenCacheSize: 256,
			StoreSize:     64,
			Deliver:       func(r gossip.Rumor) { w.track.record(w.idx.Index(r.ID), i) },
		})
		if err != nil {
			return err
		}
		mux := transport.NewMux()
		eng.Register(mux)
		mux.Bind(ep)
		w.engines[i] = eng
	}
	// Warm-up: one event to quiescence.
	if err := w.publish(0, 0); err != nil {
		return err
	}
	w.net.Run()
	return nil
}

// publish injects event seq at node origin, due now.
func (w *simWorkload) publish(seq, origin int) error {
	w.track.publish(seq, int64(w.net.Now()))
	payload := []byte("event " + fmt.Sprint(seq))
	if !w.t.enabled() {
		_, err := w.engines[origin].Publish(context.Background(), payload)
		return err
	}
	s, ctx := w.t.begin(context.Background(), spanNotify, origin)
	_, err := w.engines[origin].Publish(ctx, payload)
	w.t.end(s)
	return err
}

func (w *simWorkload) measure(res *result) error {
	var failed int64
	for k := 0; k < w.s.events; k++ {
		k := k
		// Origins are spread over the population; the warm-up used node 0.
		origin := (k + 1) * (w.s.nodes / (w.s.events + 1))
		w.net.AfterFunc(time.Duration(k)*w.s.stagger, func() {
			if err := w.publish(1+k, origin); err != nil {
				failed++
			}
		})
	}
	before := w.net.Stats()
	pendingMax, steps := 0, 0
	ph := beginPhase()
	for b := 0; ; b++ {
		traced := w.o.trace && b%2 == 1
		if w.t != nil {
			w.t.on.Store(traced)
		}
		n := 0
		for n < w.s.batchSteps && w.net.Step() {
			n++
		}
		steps += n
		if n < w.s.batchSteps {
			break // the tail batch is short; its work counts, its time does not
		}
		ph.mark(traced)
		if p := w.net.Pending(); p > pendingMax {
			pendingMax = p
		}
	}
	if w.t != nil {
		w.t.on.Store(false)
	}
	totals := ph.finish()
	after := w.net.Stats()

	res.attempted, res.failed = int64(w.s.events), failed
	obs := observed{
		ph: ph, totals: totals,
		subs: w.s.nodes, notifications: w.s.events,
		wireMsgs:  float64(after.Sent - before.Sent),
		wireBytes: float64(after.Bytes - before.Bytes),
		expected:  expectedCoverage(w.s.nodes, w.s.fanout, w.s.hops, w.s.loss),
	}
	obs.deliver, obs.spread, obs.pairs, obs.incomplete = w.track.latencies(1, 1+w.s.events)
	// The short tail batch is left out of the time; leave its share of the
	// deliveries out too.
	full := float64(len(ph.batches)*w.s.batchSteps) / float64(steps)
	obs.timedShare = full
	res.fill(obs, w.o.trace)
	res.checkTracker(w.track)

	l := res.metrics
	wallNs, _ := robustTotals(ph.batches)
	l["simnet.msgs_per_s"] = ratio(obs.wireMsgs*full, wallNs/1e9)
	l["simnet.drop_share"] = ratio(float64(after.Dropped-before.Dropped), obs.wireMsgs)
	l["clock.timers_fired"] = float64(steps)
	l["clock.pending_max"] = float64(pendingMax)
	replayMetrics(l)
	if w.t != nil {
		l["gossip.handle_push_ns"] = 1000 * w.t.stats(func(s *span) bool {
			return s.kind == spanHandler && s.label == gossip.ActionPush
		}).meanSelfUs()
		l["core.notify_us"] = w.t.stats(func(s *span) bool { return s.kind == spanNotify }).meanDurUs()
		replayClock(l)
		replaySimnet(l, w.o.seed)
		replayGossip(l, w.s.nodes, w.s.fanout, w.o.seed)
		if w.o.traceFile != "" {
			if err := w.t.writeFile(w.o.traceFile); err != nil {
				return err
			}
		}
	}
	res.exact = []string{"wire_bytes_per_delivery", "msgs_per_delivery", "coverage", "harness.deliver_p50_ms", "harness.spread_p50_ms",
		"harness.deliver_p99_ms", "harness.spread_p99_ms"}
	return nil
}

func (w *simWorkload) teardown() {
	w.net, w.engines, w.track = nil, nil, nil
}
