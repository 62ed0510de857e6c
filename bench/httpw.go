package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/membership"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// http-node-16: nodes wired as `wsgossip-node -delivery -admit-rate` wires
// them (runner loops off): per node a loopback http.Server feeding a
// soap.Dispatcher behind a delivery.Gate, and a Disseminator sending
// through a delivery.Plane over the node's own soap.HTTPClient, whose
// Transport is a clone of http.DefaultTransport — a shared transport would
// pool connections across all sixteen "processes". Open loop: two publisher
// goroutines dispatch notifications on a fixed schedule, and latency is
// counted from each notification's due time. The run does not wait for
// full coverage: infect-and-die push leaves a few notifications short for
// ever, and waiting for them would measure timeouts.

const (
	gateRate  = 1e6     // admissions per second: sized never to shed
	gateBurst = 1 << 20 // token bucket depth
)

type httpSizes struct {
	nodes, fanout, body int
	store, warm         int
	rate                int // notifications per second
	windows             int // sampling windows in the measured phase
	window              time.Duration
	publishers          int
}

func httpSizesFor(o options) httpSizes {
	s := httpSizes{
		nodes: 16, fanout: 4, body: 1024, store: storeSize, warm: httpWarmNotifications,
		rate: 120, window: 500 * time.Millisecond, publishers: 2,
	}
	s.windows = 2 * o.seconds
	if o.quick {
		s.nodes, s.warm, s.store, s.windows = 8, 32, 24, 4
	}
	return s
}

func (s httpSizes) measured() int {
	return int(time.Duration(s.windows) * s.window * time.Duration(s.rate) / time.Second)
}

type httpWorkload struct {
	o       options
	s       httpSizes
	c       *cluster
	hops    int
	servers []*http.Server
	serving sync.WaitGroup
	trs     []*http.Transport
	dials   atomic.Int64
	epoch   time.Time
}

func newHTTPWorkload(o options) *httpWorkload {
	return &httpWorkload{o: o, s: httpSizesFor(o)}
}

// serve starts a loopback SOAP endpoint and returns its URL.
func (w *httpWorkload) serve(h soap.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: soap.NewHTTPServer(h), ReadHeaderTimeout: 5 * time.Second}
	w.servers = append(w.servers, srv)
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed at teardown
	}()
	return "http://" + ln.Addr().String() + "/", nil
}

// client returns a SOAP client with a connection pool of its own, counting
// the TCP connections it opens.
func (w *httpWorkload) client() *soap.HTTPClient {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		w.dials.Add(1)
		return dial(ctx, network, addr)
	}
	w.trs = append(w.trs, tr)
	return soap.NewHTTPClient(&http.Client{Transport: tr, Timeout: 10 * time.Second})
}

// sender builds one process's outbound stack: client, binding tap, delivery
// plane, role tap.
func (w *httpWorkload) sender(node int, reg *metrics.Registry) soap.Caller {
	c := w.c
	var b binding = w.client()
	if !w.o.noTaps {
		b = c.wire(b, node)
	}
	plane := delivery.NewPlane(delivery.Config{
		Caller:  b,
		Clock:   clock.NewReal(),
		RNG:     c.rng(4, node),
		Metrics: reg,
	})
	c.planes = append(c.planes, plane)
	if w.o.noTaps {
		return plane
	}
	return c.role(plane, node)
}

func (w *httpWorkload) setup(traced bool) error {
	ctx := context.Background()
	var t *tracer
	if traced {
		t = newTracer(true)
		t.on.Store(true)
	}
	w.epoch = time.Now()
	total := w.s.warm + w.s.measured()
	c := newCluster(w.o, t, w.s.nodes, total, w.s.body, func() int64 { return int64(time.Since(w.epoch)) })
	w.c = c
	_, w.hops = core.DefaultParamPolicy(w.s.nodes)
	fanout, hops := w.s.fanout, w.hops

	// The coordinator needs its address before it can serve, and the
	// server needs the handler before it can start: route through a
	// dispatcher that is filled in once the address is known.
	coordMux := soap.NewDispatcher()
	coordURL, err := w.serve(tapHandler(coordMux, t, -1))
	if err != nil {
		return err
	}
	c.coord = core.NewCoordinator(core.CoordinatorConfig{
		Address: coordURL,
		Params:  func(int) (int, int) { return fanout, hops },
		RNG:     c.rng(1, 0),
		Metrics: c.coordReg,
	})
	coordMux.SetFallback(c.coord.Handler())

	for i := 0; i < w.s.nodes; i++ {
		reg := metrics.NewRegistry()
		dispatcher := soap.NewDispatcher()
		gate := delivery.NewGate(delivery.GateConfig{
			Clock:   clock.NewReal(),
			Rate:    gateRate,
			Burst:   gateBurst,
			Metrics: reg,
			Exempt: func(action string) bool {
				return action == membership.ActionExchange || action == membership.ActionLeave
			},
		})
		var handler soap.Handler = soap.Chain(dispatcher, gate.Middleware())
		if !w.o.noTaps {
			handler = tapHandler(handler, t, i)
		}
		addr, err := w.serve(handler)
		if err != nil {
			return err
		}
		d, err := core.NewDisseminator(core.DisseminatorConfig{
			Address:   addr,
			Caller:    w.sender(i, reg),
			App:       c.track.app(i),
			RNG:       c.rng(2, i),
			StoreSize: w.s.store,
			Metrics:   reg,
		})
		if err != nil {
			return err
		}
		d.RegisterActions(dispatcher)
		c.addrs = append(c.addrs, addr)
		c.regs = append(c.regs, reg)
		c.dissems = append(c.dissems, d)
	}
	control := w.client()
	if err := c.subscribeAll(ctx, control, coordURL); err != nil {
		return err
	}
	initReg := metrics.NewRegistry()
	if err := c.start(ctx, w.sender(-1, initReg), "urn:wsgossip:bench:initiator", coordURL, initReg); err != nil {
		return err
	}
	for seq := 0; seq < w.s.warm; seq++ {
		if err := c.notify(ctx, seq, c.track.now()); err != nil {
			return err
		}
	}
	w.drain(2 * time.Second)
	if t != nil {
		t.on.Store(false)
	}
	return nil
}

// drain waits until no plane holds queued or in-flight messages.
func (w *httpWorkload) drain(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		busy := false
		for _, p := range w.c.planes {
			if st := p.Stats(); st.Queued+st.Inflight > 0 {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *httpWorkload) measure(res *result) error {
	ctx := context.Background()
	c := w.c
	total := w.s.measured()
	interval := time.Second / time.Duration(w.s.rate)
	late := make([]float64, total) // ms, per notification; each written by one publisher
	var failed atomic.Int64

	before := c.snapshot()
	dials0 := w.dials.Load()
	ph := beginPhase()
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var pubs sync.WaitGroup
	for p := 0; p < w.s.publishers; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= total {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late[k] = float64(time.Since(due)) / 1e6
				if err := c.notify(ctx, w.s.warm+k, int64(due.Sub(w.epoch))); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	// The sampler closes one window of the schedule after another, and in a
	// traced run turns spans on for every second window.
	for j := 0; j < w.s.windows; j++ {
		traced := w.o.trace && j%2 == 1
		if c.t != nil {
			c.t.on.Store(traced)
		}
		time.Sleep(time.Until(start.Add(time.Duration(j+1) * w.s.window)))
		ph.mark(traced)
	}
	pubs.Wait()
	w.drain(2 * time.Second)
	if c.t != nil {
		c.t.on.Store(false)
	}
	totals := ph.finish()
	d := c.snapshot().minus(before)

	res.attempted, res.failed = int64(total), failed.Load()
	obs := observed{
		ph: ph, totals: totals,
		subs: w.s.nodes, notifications: total,
		wireMsgs: d["wire.msgs"], wireBytes: d["wire.bytes"],
		expected: expectedCoverage(w.s.nodes, w.s.fanout, w.hops, 0),
	}
	obs.deliver, obs.spread, obs.pairs, obs.incomplete = c.track.latencies(w.s.warm, w.s.warm+total)
	res.fill(obs, w.o.trace)
	res.checkTracker(c.track)
	res.soapLayers(c, d, float64(obs.pairs), w.s.store)
	replayGate(res.metrics)

	res.metrics["harness.sched_late_p99_ms"] = quantile(late, 0.99)
	res.checkLate(late)
	res.checkShed(d["shed_requests_total{shed}"])
	res.metrics["soap.http.dials_per_kmsg"] = ratio(float64(w.dials.Load()-dials0)*1000, d["wire.msgs"])
	if c.t != nil {
		post := c.t.stats(func(s *span) bool { return s.kind == spanWireSend })
		res.metrics["soap.http.post_us_p50"] = quantile(post.durs, 0.5)
		res.metrics["soap.http.post_us_p99"] = quantile(post.durs, 0.99)
		res.metrics["soap.http.server_self_us"] = c.t.serverSelfUs()
		if w.o.traceFile != "" {
			if err := c.t.writeFile(w.o.traceFile); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *httpWorkload) teardown() {
	if w.c != nil {
		for _, p := range w.c.planes {
			p.Close()
		}
	}
	for _, srv := range w.servers {
		_ = srv.Close()
	}
	w.serving.Wait()
	for _, tr := range w.trs {
		tr.CloseIdleConnections()
	}
	soap.InstallWireMetrics(nil)
	w.c = nil
}
