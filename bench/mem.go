package main

import (
	"context"
	"time"

	"wsgossip/internal/core"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// mem-push-64: Disseminators, Coordinator and Initiator on one soap.MemBus,
// WS-PushGossip with the fanout set through CoordinatorConfig.Params and
// everything else default except StoreSize. One publisher in a closed
// loop: Notify returns when the bus has drained the cascade, so the whole
// run is one goroutine with no sockets and no timers — the codec, the
// gossip layer's intercept/forward and the header parsing are all there is.

type memSizes struct {
	nodes, fanout, body int
	store, warm         int // envelope store size; warm-up notifications (fills every store)
	batches, perBatch   int
}

func memSizesFor(o options) memSizes {
	s := memSizes{nodes: 64, fanout: 4, body: 256, store: storeSize, warm: memWarmNotifications, batches: 32}
	// About 137 notifications a second on the reference box.
	s.perBatch = (137*o.seconds + s.batches/2) / s.batches
	if o.quick {
		s.nodes, s.warm, s.batches, s.perBatch = 16, 32, 16, 4
		s.store = 24
	}
	return s
}

const (
	// storeSize is the envelope store of every SOAP workload's nodes: the
	// largest store a repair digest can describe (core's digest cap is 128;
	// a larger store makes every digest trigger 128 retransmissions of
	// notifications the sender merely no longer lists).
	storeSize = 128
	// warmNotifications fills every node's store: coverage is a little under
	// one, so it takes a few more notifications than the store holds.
	warmNotifications = 160
)

// The socket-free and loopback set-ups take well under a second with that
// warm-up, and a set-up that short lands wholly inside one fast or slow
// stretch of the box: setup_s then swings by a third from run to run, where
// the 2.5 s set-ups of the other two workloads stay within a tenth. So these
// two warm up for longer — every store wraps at least once more — sized to
// bring their set-up to about 2.5 s on the reference box too.
const (
	memWarmNotifications  = 3 * warmNotifications
	httpWarmNotifications = 4 * warmNotifications
)

type memWorkload struct {
	o    options
	s    memSizes
	c    *cluster
	hops int
	next int
}

func newMemWorkload(o options) *memWorkload {
	return &memWorkload{o: o, s: memSizesFor(o)}
}

func (w *memWorkload) setup(traced bool) error {
	ctx := context.Background()
	var t *tracer
	if traced {
		t = newTracer(false)
		t.on.Store(true)
	}
	epoch := time.Now()
	total := w.s.warm + w.s.batches*w.s.perBatch
	c := newCluster(w.o, t, w.s.nodes, total, w.s.body, func() int64 { return int64(time.Since(epoch)) })
	w.c = c
	bus := soap.NewMemBus()
	_, w.hops = core.DefaultParamPolicy(w.s.nodes)
	fanout, hops := w.s.fanout, w.hops
	c.coord = core.NewCoordinator(core.CoordinatorConfig{
		Address: coordinatorAddr,
		Params:  func(int) (int, int) { return fanout, hops },
		RNG:     c.rng(1, 0),
		Metrics: c.coordReg,
	})
	bus.Register(coordinatorAddr, tapHandler(c.coord.Handler(), t, -1))
	for i := 0; i < w.s.nodes; i++ {
		addr := nodeAddr(i)
		reg := metrics.NewRegistry()
		var caller soap.Caller = bus
		if !w.o.noTaps {
			caller = c.wire(bus, i)
		}
		d, err := core.NewDisseminator(core.DisseminatorConfig{
			Address:   addr,
			Caller:    caller,
			App:       c.track.app(i),
			RNG:       c.rng(2, i),
			StoreSize: w.s.store,
			Metrics:   reg,
		})
		if err != nil {
			return err
		}
		handler := d.Handler()
		if !w.o.noTaps {
			handler = tapHandler(handler, t, i)
		}
		bus.Register(addr, handler)
		c.addrs = append(c.addrs, addr)
		c.regs = append(c.regs, reg)
		c.dissems = append(c.dissems, d)
	}
	if err := c.subscribeAll(ctx, bus, coordinatorAddr); err != nil {
		return err
	}
	var initCaller soap.Caller = bus
	if !w.o.noTaps {
		initCaller = c.wire(bus, -1)
	}
	if err := c.start(ctx, initCaller, "mem://initiator", coordinatorAddr, metrics.NewRegistry()); err != nil {
		return err
	}
	for ; w.next < w.s.warm; w.next++ {
		if err := c.notify(ctx, w.next, c.track.now()); err != nil {
			return err
		}
	}
	if t != nil {
		t.on.Store(false)
	}
	return nil
}

func (w *memWorkload) measure(res *result) error {
	ctx := context.Background()
	c := w.c
	before := c.snapshot()
	ph := beginPhase()
	for b := 0; b < w.s.batches; b++ {
		traced := w.o.trace && b%2 == 1
		if c.t != nil {
			c.t.on.Store(traced)
		}
		for k := 0; k < w.s.perBatch; k++ {
			res.attempted++
			if err := c.notify(ctx, w.next, c.track.now()); err != nil {
				res.failed++
			}
			w.next++
		}
		ph.mark(traced)
	}
	if c.t != nil {
		c.t.on.Store(false)
	}
	totals := ph.finish()
	d := c.snapshot().minus(before)

	obs := observed{
		ph: ph, totals: totals,
		subs: w.s.nodes, notifications: w.s.batches * w.s.perBatch,
		wireMsgs: d["wire.msgs"], wireBytes: d["wire.bytes"],
		expected: expectedCoverage(w.s.nodes, w.s.fanout, w.hops, 0),
	}
	obs.deliver, obs.spread, obs.pairs, obs.incomplete = c.track.latencies(w.s.warm, w.next)
	res.fill(obs, w.o.trace)
	res.checkTracker(c.track)
	res.soapLayers(c, d, float64(obs.pairs), w.s.store)
	if c.t != nil {
		wire := c.t.stats(func(s *span) bool { return s.kind == spanWireSend })
		res.metrics["soap.membus.send_self_us"] = wire.meanSelfUs()
		if w.o.traceFile != "" {
			if err := c.t.writeFile(w.o.traceFile); err != nil {
				return err
			}
		}
	}
	res.exact = []string{"wire_bytes_per_delivery", "msgs_per_delivery", "coverage"}
	return nil
}

func (w *memWorkload) teardown() {
	soap.InstallWireMetrics(nil)
	w.c = nil
}
