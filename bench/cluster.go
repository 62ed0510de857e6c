package main

import (
	"context"
	"fmt"
	"math/rand"

	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// cluster is what the three SOAP workloads share: a Coordinator, an
// Initiator with one gossip interaction, n Disseminators each with its own
// metrics registry, the harness taps, and the delivery tracker.
type cluster struct {
	o     options
	t     *tracer
	n     int
	addrs []string

	wireReg  *metrics.Registry // process-wide soap wire-path series
	coordReg *metrics.Registry
	coord    *core.Coordinator
	init     *core.Initiator
	inter    *core.Interaction
	regs     []*metrics.Registry // per node, then the initiator's
	dissems  []*core.Disseminator
	planes   []*delivery.Plane
	wires    []*wireTap
	roles    []*roleTap

	track *tracker
	pay   *payloads
}

const coordinatorAddr = "mem://coordinator"

func newCluster(o options, t *tracer, n, notifications, bodySize int, now func() int64) *cluster {
	c := &cluster{
		o: o, t: t, n: n,
		wireReg:  metrics.NewRegistry(),
		coordReg: metrics.NewRegistry(),
		track:    newTracker(n, notifications, now),
		pay:      newPayloads(o.seed, bodySize),
	}
	soap.InstallWireMetrics(c.wireReg)
	return c
}

// rng returns a stream seeded from the run seed, a per-purpose salt and a
// node index, so every component of every node draws from its own stream.
func (c *cluster) rng(salt, node int) *rand.Rand {
	return rand.New(rand.NewSource(c.o.seed*1000003 + int64(salt)*7919 + int64(node)))
}

// wire wraps a binding in a counting tap and remembers it.
func (c *cluster) wire(b binding, node int) *wireTap {
	w := newWireTap(b, c.t, node)
	c.wires = append(c.wires, w)
	return w
}

// role wraps a role's caller in a span tap and remembers it.
func (c *cluster) role(b binding, node int) *roleTap {
	r := newRoleTap(b, c.t, node)
	c.roles = append(c.roles, r)
	return r
}

// subscribeAll subscribes every node as a disseminator for the protocols.
func (c *cluster) subscribeAll(ctx context.Context, caller soap.Caller, coordinator string, protocols ...string) error {
	for _, addr := range c.addrs {
		if err := core.SubscribeClient(ctx, caller, coordinator, addr, core.RoleDisseminator, protocols...); err != nil {
			return err
		}
	}
	return nil
}

// start builds the initiator on caller, counting into reg (which a stack
// with a delivery plane shares with the initiator's plane), and activates
// the one interaction every notification of the run belongs to.
func (c *cluster) start(ctx context.Context, caller soap.Caller, address, coordinator string, reg *metrics.Registry) error {
	c.regs = append(c.regs, reg)
	var err error
	c.init, err = core.NewInitiator(core.InitiatorConfig{
		Address:    address,
		Caller:     caller,
		Activation: coordinator,
		Metrics:    reg,
	})
	if err != nil {
		return err
	}
	c.inter, err = c.init.StartInteraction(ctx)
	return err
}

// notify publishes notification seq, due at time due on the tracker's
// clock, under one root span.
func (c *cluster) notify(ctx context.Context, seq int, due int64) error {
	c.track.publish(seq, due)
	body := c.pay.note(seq)
	if !c.t.enabled() {
		_, _, err := c.init.Notify(ctx, c.inter, body)
		return err
	}
	s, ctx := c.t.begin(ctx, spanNotify, -1)
	msgID, _, err := c.init.Notify(ctx, c.inter, body)
	s.msgID = string(msgID)
	c.t.end(s)
	return err
}

// counterSpec names one series summed over every registry of the cluster.
type counterSpec struct{ name, label, value string }

func (s counterSpec) key() string {
	if s.label == "" {
		return s.name
	}
	return s.name + "{" + s.value + "}"
}

var clusterCounters = []counterSpec{
	{name: "gossip_received_total"},
	{name: "gossip_duplicates_total"},
	{name: "gossip_delivered_total"},
	{name: "gossip_send_errors_total"},
	{"gossip_sends_total", "protocol", "push"},
	{"gossip_sends_total", "protocol", "lazypush"},
	{"gossip_sends_total", "protocol", "pull"},
	{"gossip_sends_total", "protocol", "repair"},
	{"gossip_retransmits_total", "protocol", "lazypush"},
	{"gossip_retransmits_total", "protocol", "pull"},
	{"gossip_retransmits_total", "protocol", "repair"},
	{name: "delivery_attempts_total"},
	{name: "delivery_retries_total"},
	{"delivery_attempt_failures_total", "kind", "transport"},
	{"delivery_drops_total", "reason", "queue_full"},
	{"delivery_drops_total", "reason", "circuit_open"},
	{"delivery_drops_total", "reason", "budget"},
	{"delivery_drops_total", "reason", "sender_fault"},
	{"delivery_breaker_transitions_total", "to", "open"},
	{"shed_requests_total", "result", "admitted"},
	{"shed_requests_total", "result", "shed"},
	{name: "membership_suspects_total"},
	{name: "membership_suspicions_averted_total"},
	{"delivery_indirect_probes_total", "result", "averted"},
	{"delivery_indirect_probes_total", "result", "timeout"},
	{"delivery_indirect_probes_total", "result", "no_helpers"},
	{"probe_messages_total", "type", "ping_req"},
	{"probe_messages_total", "type", "ping"},
	{"probe_messages_total", "type", "ping_ack"},
	{"probe_messages_total", "type", "ping_req_ack"},
	{name: "aggregate_shares_sent_total"},
	{name: "aggregate_exchange_retries_total"},
	{"soap_decode_total", "rung", "scanner"},
	{"soap_decode_total", "rung", "zerocopy"},
	{"soap_decode_total", "rung", "legacy"},
	{"soap_pool_gets_total", "result", "hit"},
	{"soap_pool_gets_total", "result", "miss"},
	{name: "coord_registrations_total"},
}

// counts is a snapshot of every cluster counter plus the harness's own
// binding-level counts.
type counts map[string]float64

func (c *cluster) snapshot() counts {
	out := make(counts, len(clusterCounters)+4)
	regs := append([]*metrics.Registry{c.wireReg, c.coordReg}, c.regs...)
	for _, spec := range clusterCounters {
		var sum int64
		for _, reg := range regs {
			if spec.label == "" {
				sum += reg.Counter(spec.name).Value()
			} else {
				sum += reg.CounterVec(spec.name, spec.label).With(spec.value).Value()
			}
		}
		out[spec.key()] = float64(sum)
	}
	for _, w := range c.wires {
		out["wire.msgs"] += float64(w.msgs.Load())
		out["wire.bytes"] += float64(w.bytes.Load())
		out["wire.errs"] += float64(w.errs.Load())
	}
	for _, r := range c.roles {
		out["role.sends"] += float64(r.sends.Load())
	}
	return out
}

// minus returns the per-key difference a - b.
func (a counts) minus(b counts) counts {
	out := make(counts, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

func (a counts) sum(keys ...string) float64 {
	var s float64
	for _, k := range keys {
		s += a[k]
	}
	return s
}

// share is a/(a+b), 0 when both are 0.
func share(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nodeAddr(i int) string { return fmt.Sprintf("mem://node%03d", i) }
