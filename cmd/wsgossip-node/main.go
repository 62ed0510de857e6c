// Command wsgossip-node runs one WS-Gossip node over real SOAP 1.2 / HTTP in
// any of the paper's four roles.
//
// A minimal cluster on one machine:
//
//	wsgossip-node -role coordinator -listen :8070 &
//	wsgossip-node -role disseminator -listen :8071 -coordinator http://localhost:8070/ &
//	wsgossip-node -role disseminator -listen :8072 -coordinator http://localhost:8070/ &
//	wsgossip-node -role consumer     -listen :8073 -coordinator http://localhost:8070/ &
//	wsgossip-node -role initiator -coordinator http://localhost:8070/ -message "hello gossip"
//
// Disseminators and consumers print every notification they deliver.
//
// Every server role serves its SOAP endpoint, with /metrics and /healthz
// mounted beside it (and, with -metrics-addr, on a listener of their own),
// through soap.Serve until SIGINT or SIGTERM, so a peer gets the HTTP
// binding's bounds: a request must arrive whole within 10 s, as long as
// every role's own POSTs wait.
package main

import (
	"context"
	"encoding/xml"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wsgossip"
	"wsgossip/internal/aggregate"
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/obs"
	"wsgossip/internal/soap"
)

// noteBody is the demonstration notification payload.
type noteBody struct {
	XMLName xml.Name `xml:"urn:wsgossip:demo Note"`
	Text    string   `xml:"Text"`
}

func main() {
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})))
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wsgossip-node:", err)
		os.Exit(1)
	}
}

func run() error {
	o, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		return err
	}
	client := soap.NewHTTPClient(nil)
	switch o.role {
	case "coordinator":
		return runCoordinator(o.listen, o.node.Address, o.style, o.activityTTL, o.pruneEvery, o.metricsAddr)
	case "initiator":
		return runInitiator(o.node.Coordinator, o.message, o.count, client, o.node.Delivery)
	default:
		return runNode(o, client)
	}
}

// options is what the command line resolves to: the role, the listeners,
// the coordinator's and the initiator's own settings, and — for the
// disseminator and consumer roles — the node's whole configuration. For
// every role node.Address is the public URL, node.Coordinator the
// -coordinator URL and node.Delivery the -delivery* budgets (nil when off).
type options struct {
	role                    string
	listen, metricsAddr     string
	node                    wsgossip.NodeConfig
	style                   string
	activityTTL, pruneEvery time.Duration
	message                 string
	count                   int
}

// parseArgs defines the flags on fs, parses args and resolves them into
// options, refusing flag combinations no role can run. It touches nothing
// outside fs: the binding and the application handler are the caller's to
// fill in.
func parseArgs(fs *flag.FlagSet, args []string) (options, error) {
	var (
		role        = fs.String("role", "", "coordinator | disseminator | consumer | initiator")
		listen      = fs.String("listen", ":8070", "listen address (server roles)")
		public      = fs.String("public", "", "public base URL of this node (default http://<listen>/)")
		coordinator = fs.String("coordinator", "", "coordinator base URL (non-coordinator roles)")
		message     = fs.String("message", "hello from wsgossip", "notification text (initiator)")
		count       = fs.Int("count", 1, "notifications to send (initiator)")
		style       = fs.String("style", "push", "dissemination style handed to registrants: push or lazypush (coordinator)")
		pull        = fs.Duration("pull", 0, "WS-PullGossip round interval, 0 disables (disseminator)")
		repair      = fs.Duration("repair", 2*time.Second, "anti-entropy digest interval, 0 disables (disseminator)")
		announce    = fs.Duration("announce", 0, "deferred lazy-push announce interval, 0 announces on receipt (disseminator)")
		aggEvery    = fs.Duration("aggregate", time.Second, "push-sum exchange interval when -value is set (disseminator)")
		value       = fs.Float64("value", math.NaN(), "local measurement: joins aggregation interactions as a participant (disseminator)")
		clusterQ    = fs.String("cluster-queries", "", "comma-separated continuous cluster queries as func:metric pairs (e.g. count:nodes,avg:load): runs this node as the querier restarting each query every -cluster-window; participants resolve the metric name against their local value sources, falling back to -value (disseminator)")
		clusterWin  = fs.Duration("cluster-window", 10*time.Second, "epoch window for -cluster-queries; every node re-contributes at each window boundary so estimates track churn (disseminator)")
		jitter      = fs.Float64("jitter", 0.1, "round jitter as a fraction of each period, in [0,1) (disseminator)")
		seed        = fs.Int64("seed", 0, "round-schedule seed, 0 derives one from the address (disseminator)")
		members     = fs.String("members", "", "comma-separated membership seed URLs: runs a live peer view that fan-outs sample instead of coordinator target lists (disseminator)")
		memberEvery = fs.Duration("membership", time.Second, "membership view-exchange interval when -members is set (disseminator)")
		quiescent   = fs.Duration("quiescent-max", 0, "adaptive pacing cap: pull/repair/aggregate rounds back off toward this period while idle, 0 keeps them fixed (disseminator)")
		activityTTL = fs.Duration("activity-ttl", 0, "default expiry stamped on coordination activities, 0 = never (coordinator)")
		pruneEvery  = fs.Duration("prune", 0, "activity-expiry pruning round interval, 0 disables (coordinator)")
		metricsAddr = fs.String("metrics-addr", "", "extra listen address dedicated to /metrics and /healthz; they are always also served on -listen (server roles)")
		deliver     = fs.Bool("delivery", false, "route outbound gossip through the failure-aware delivery plane: per-peer queues, retries with backoff, circuit breaking (disseminator, initiator)")
		delTries    = fs.Int("delivery-attempts", 0, "per-message attempt budget on the delivery plane, 0 = default 4 (disseminator, initiator)")
		delTimeout  = fs.Duration("delivery-timeout", 0, "per-attempt send timeout on the delivery plane, 0 = default 2s (disseminator, initiator)")
		brkThresh   = fs.Int("breaker-threshold", 0, "consecutive failures that open a peer's circuit, 0 = default 5 (disseminator, initiator)")
		brkCooldown = fs.Duration("breaker-cooldown", 0, "open-circuit cooldown before a half-open probe, 0 = default 5s (disseminator, initiator)")
		probeK      = fs.Int("probe-k", 3, "helpers asked to confirm a suspect indirectly before it is declared down; needs -delivery and -members, negative asks every helper, 0 disables indirect probing (disseminator)")
		probeWait   = fs.Duration("probe-timeout", 0, "indirect-probe round deadline, 0 = default 2s (disseminator)")
		admitRate   = fs.Float64("admit-rate", 0, "inbound admission rate in requests/second: excess requests are shed with a retry-after fault senders honor, 0 disables (disseminator)")
		admitBurst  = fs.Int("admit-burst", 0, "admission token-bucket depth, 0 = max(1, -admit-rate) (disseminator)")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{
		role: *role, listen: *listen, metricsAddr: *metricsAddr,
		style: *style, activityTTL: *activityTTL, pruneEvery: *pruneEvery,
		message: *message, count: *count,
	}
	o.node.Address = publicURL(*public, *listen)
	o.node.Coordinator = *coordinator
	if *deliver {
		o.node.Delivery = &wsgossip.DeliveryConfig{
			MaxAttempts:      *delTries,
			AttemptTimeout:   *delTimeout,
			BreakerThreshold: *brkThresh,
			BreakerCooldown:  *brkCooldown,
		}
	}
	switch *role {
	case "coordinator":
		return o, nil
	case "disseminator", "consumer", "initiator":
		if *coordinator == "" {
			return options{}, fmt.Errorf("-coordinator is required for role %s", *role)
		}
	default:
		return options{}, fmt.Errorf("unknown role %q (want coordinator, disseminator, consumer, or initiator)", *role)
	}
	if *role == "initiator" {
		return o, nil
	}
	n := &o.node
	n.Role = *role // the flag spells wsgossip.RoleDisseminator / RoleConsumer
	if *role == "consumer" {
		return o, nil
	}
	n.Seed = *seed
	n.PullEvery, n.RepairEvery, n.AnnounceEvery = *pull, *repair, *announce
	n.JitterFrac, n.QuiescentMax = *jitter, *quiescent
	n.ProbeK, n.ProbeTimeout = *probeK, *probeWait
	n.AdmitRate, n.AdmitBurst = *admitRate, *admitBurst
	n.AggregateEvery = *aggEvery
	if *members != "" {
		if *memberEvery <= 0 {
			return options{}, fmt.Errorf("-members requires a positive -membership interval")
		}
		m := &wsgossip.NodeMembership{Every: *memberEvery, SuspectAfter: 5 * *memberEvery, RemoveAfter: 10 * *memberEvery}
		for _, s := range strings.Split(*members, ",") {
			if s = strings.TrimSpace(s); s != "" {
				m.Seeds = append(m.Seeds, s)
			}
		}
		n.Membership = m
	}
	if !math.IsNaN(*value) {
		v := *value
		n.Value = func() float64 { return v }
	}
	if *clusterQ != "" {
		var err error
		if n.Queries, err = parseClusterQueries(*clusterQ); err != nil {
			return options{}, err
		}
		if *aggEvery <= 0 {
			return options{}, fmt.Errorf("-cluster-queries requires a positive -aggregate interval")
		}
		if *clusterWin < 4**aggEvery {
			// An epoch needs several exchange rounds to mix before the
			// boundary freezes it, or every frozen estimate is garbage.
			return options{}, fmt.Errorf("-cluster-window %v is too short for -aggregate %v (want at least 4 rounds per window)",
				*clusterWin, *aggEvery)
		}
		n.QueryWindow = *clusterWin
	} else if n.Value != nil && *aggEvery <= 0 {
		// An advertised aggregation participant that never runs exchange
		// rounds parks every share it absorbs: the cluster's estimates
		// would silently exclude that mass.
		return options{}, fmt.Errorf("-value requires a positive -aggregate interval")
	}
	return o, nil
}

// drainPlane waits until the plane's queues and in-flight window are empty,
// so a short-lived role does not exit with retries still pending. Returns
// false when the timeout expired with work outstanding.
func drainPlane(p *delivery.Plane, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		st := p.Stats()
		if st.Queued == 0 && st.Inflight == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func publicURL(public, listen string) string {
	if public != "" {
		return public
	}
	host, port, err := net.SplitHostPort(listen)
	if err != nil || host == "" {
		host = "localhost"
	}
	if err == nil {
		return fmt.Sprintf("http://%s:%s/", host, port)
	}
	return "http://localhost" + listen + "/"
}

// serve runs the node's SOAP endpoint, with the observability endpoints
// (/metrics, /healthz) mounted on the same binding, until SIGINT or SIGTERM;
// a non-empty metricsAddr also serves them on a listener of its own, the
// usual arrangement when the scrape port must stay off the service port. The
// first listener to fail stops both.
func serve(listen string, handler soap.Handler, reg *metrics.Registry, health func() obs.Health, metricsAddr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errs, serving := make(chan error, 2), 0
	start := func(addr string, h http.Handler) error {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		serving++
		go func() {
			errs <- soap.Serve(ctx, ln, h)
			stop()
		}()
		return nil
	}
	err := start(listen, obs.Mount(soap.NewHTTPServer(handler), reg, health))
	if err == nil && metricsAddr != "" {
		slog.Info("metrics at /metrics, health at /healthz", "addr", metricsAddr)
		err = start(metricsAddr, obs.Handler(reg, health))
	}
	if err != nil {
		stop()
	}
	for ; serving > 0; serving-- {
		if e := <-errs; err == nil {
			err = e
		}
	}
	return err
}

func runCoordinator(listen, addr, styleName string, activityTTL, pruneEvery time.Duration, metricsAddr string) error {
	style, err := gossip.ParseStyle(styleName)
	if err != nil {
		return err
	}
	if style != gossip.StylePush && style != gossip.StyleLazyPush {
		return fmt.Errorf("coordinator style must be push or lazypush, got %s", style)
	}
	reg := metrics.NewRegistry()
	soap.InstallWireMetrics(reg)
	coord := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{
		Address:     addr,
		Style:       style,
		ActivityTTL: activityTTL,
		Metrics:     reg,
	})
	var runner *core.Runner
	if pruneEvery > 0 {
		// Expiry pruning is a self-clocking coordinator round, scheduled by
		// the same Runner the gossip services use for theirs.
		runner, err = core.NewRunner(core.RunnerConfig{
			RNG:     rand.New(rand.NewSource(wsgossip.AddressSeed(addr))),
			Metrics: reg,
			Loops: []core.Loop{{
				Name:   "prune",
				Period: pruneEvery,
				Jitter: pruneEvery / 10,
				Tick:   coord.Tick,
			}},
		})
		if err != nil {
			return err
		}
		if err := runner.Start(context.Background()); err != nil {
			return err
		}
		defer runner.Stop()
		slog.Info("coordinator pruning expired activities", "every", pruneEvery, "ttl", activityTTL)
	}
	health := func() obs.Health {
		h := obs.Health{
			Node:       addr,
			Role:       "coordinator",
			Activities: uint64(coord.LiveActivities()),
		}
		if runner != nil {
			h.Loops = obs.LoopsFrom(runner.LoopStates())
		}
		return h
	}
	slog.Info("coordinator serving", "addr", addr, "listen", listen, "style", style)
	return serve(listen, coord.Handler(), reg, health, metricsAddr)
}

// printingApp logs every notification body.
type printingApp struct {
	role string
}

func (p *printingApp) HandleSOAP(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var note noteBody
	if err := req.Envelope.DecodeBody(&note); err != nil {
		slog.Warn("notification with unreadable body", "role", p.role, "err", err)
		return nil, nil
	}
	slog.Info("delivered", "role", p.role, "text", note.Text, "message", req.Addressing().MessageID)
	return nil, nil
}

// runNode serves a disseminator or consumer: the whole middleware stack —
// and, for disseminators, its self-clocking rounds — is the library's
// wsgossip.Node; this binary adds the HTTP binding and the log handler.
func runNode(o options, client *soap.HTTPClient) error {
	cfg := o.node
	cfg.Caller = client
	cfg.App = &printingApp{role: o.role}
	cfg.Metrics = metrics.NewRegistry()
	soap.InstallWireMetrics(cfg.Metrics)
	node, err := wsgossip.NewNode(cfg)
	if err != nil {
		return err
	}
	// Start never waits on the network: it subscribes (and joins) in the
	// background, retrying until the peers it needs are up, so start order
	// does not matter and the listener below opens at once.
	if err := node.Start(context.Background()); err != nil {
		return err
	}
	defer node.Stop()
	slog.Info("serving", "role", o.role, "addr", cfg.Address, "listen", o.listen)
	return serve(o.listen, node.Handler(), node.Registry(), node.Health, o.metricsAddr)
}

// parseClusterQueries reads the -cluster-queries spec: comma-separated
// func:metric pairs, e.g. "count:nodes,avg:load". The function names are the
// aggregate functions (count, sum, avg, min, max); the metric labels the
// query and selects each participant's local value source.
func parseClusterQueries(spec string) ([]aggregate.ContinuousQuery, error) {
	var out []aggregate.ContinuousQuery
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fnName, metric, ok := strings.Cut(part, ":")
		if !ok || strings.TrimSpace(metric) == "" {
			return nil, fmt.Errorf("-cluster-queries entry %q: want func:metric (e.g. count:nodes)", part)
		}
		fn, err := aggregate.ParseFunc(strings.TrimSpace(fnName))
		if err != nil {
			return nil, fmt.Errorf("-cluster-queries entry %q: %w", part, err)
		}
		out = append(out, aggregate.ContinuousQuery{Name: strings.TrimSpace(metric), Func: fn})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-cluster-queries is empty")
	}
	return out, nil
}

// runInitiator issues the notifications; a non-nil df routes them through a
// delivery plane with those budgets.
func runInitiator(coordinator, message string, count int, client *soap.HTTPClient, df *delivery.Config) error {
	const initAddr = "urn:wsgossip:initiator"
	reg := metrics.NewRegistry()
	var caller soap.Caller = client
	var plane *delivery.Plane
	if df != nil {
		pc := *df
		pc.Caller, pc.Clock, pc.Metrics = client, clock.NewReal(), reg
		pc.RNG = rand.New(rand.NewSource(wsgossip.AddressSeed(initAddr)))
		plane = delivery.NewPlane(pc)
		defer plane.Close()
		caller = plane
	}
	init, err := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
		Address:    initAddr,
		Caller:     caller,
		Activation: coordinator,
		Metrics:    reg,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	inter, err := init.StartInteraction(ctx)
	if err != nil {
		return err
	}
	slog.Info("interaction started", "id", inter.Context.Identifier,
		"fanout", inter.Params.Fanout, "hops", inter.Params.Hops, "targets", inter.Params.Targets)
	for i := 0; i < count; i++ {
		text := message
		if count > 1 {
			text = fmt.Sprintf("%s [%d/%d]", message, i+1, count)
		}
		msgID, sent, err := init.Notify(ctx, inter, noteBody{Text: text})
		if err != nil {
			return err
		}
		slog.Info("notified", "targets", sent, "message", msgID)
	}
	if plane != nil {
		// A plane Send returning nil may mean "queued for retry": hold the
		// process open until the queues drain so no accepted notification is
		// abandoned by exit.
		if !drainPlane(plane, 30*time.Second) {
			st := plane.Stats()
			slog.Warn("delivery: exiting with messages undelivered",
				"undelivered", st.Queued+st.Inflight, "open_circuits", st.OpenCircuits)
		}
		if retries := reg.Counter("delivery_retries_total").Value(); retries > 0 {
			slog.Info("delivery: retried attempts during fan-out", "retries", retries)
		}
	}
	return nil
}
