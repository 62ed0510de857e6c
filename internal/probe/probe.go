package probe

import (
	"context"
	"encoding/xml"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// Wire actions of the indirect-probe protocol. All four are lightweight
// one-way exchanges; loss in either direction degrades to a timeout.
const (
	// ActionPingReq asks a helper peer to probe a target on the origin's
	// behalf.
	ActionPingReq = "urn:wsgossip:probe:ping-req"
	// ActionPing is a helper's direct liveness probe at the target.
	ActionPing = "urn:wsgossip:probe:ping"
	// ActionPingAck is the target's answer to a ping.
	ActionPingAck = "urn:wsgossip:probe:ping-ack"
	// ActionPingReqAck is a helper's positive report back to the origin:
	// the target answered, the suspicion is refuted.
	ActionPingReqAck = "urn:wsgossip:probe:ping-req-ack"
)

// Round results, the label values of delivery_indirect_probes_total.
const (
	// ResultAverted means a helper confirmed the target reachable.
	ResultAverted = "averted"
	// ResultTimeout means no helper confirmed within the window.
	ResultTimeout = "timeout"
	// ResultNoHelpers means no candidate helpers existed; the suspicion
	// proceeds directly, as it did before indirect probing.
	ResultNoHelpers = "no_helpers"
)

// Config parameterizes a Prober. Self, Caller, and Clock are required.
type Config struct {
	// Self is the local endpoint address, stamped into probe messages so
	// replies route back.
	Self string
	// Caller sends probe traffic. Wire the RAW binding here, not the
	// delivery plane: probes must bypass the very circuit whose opening
	// triggered them, and helper pings must observe the real link.
	Caller soap.Caller
	// Clock arms the confirmation timeout; under clock.Virtual the whole
	// protocol is deterministic.
	Clock clock.Clock
	// Peers supplies helper candidates — normally the membership service's
	// live view. Nil means no helpers are ever available: every Confirm
	// falls through to OnDown immediately (the pre-probe behaviour).
	Peers gossip.PeerProvider
	// K caps how many helpers one confirmation round enlists; <= 0 asks
	// every available candidate.
	K int
	// Timeout is how long the origin waits for a positive indirect ack
	// before conceding the suspicion. Default 2s.
	Timeout time.Duration
	// RNG drives helper sampling. Nil falls back to a fixed seed.
	RNG *rand.Rand
	// Metrics receives delivery_indirect_probes_total,
	// membership_suspicions_averted_total, and probe_messages_total.
	// Nil uses a private registry.
	Metrics *metrics.Registry
	// OnDown runs (outside the prober's lock) when a confirmation round
	// ends without a positive ack — the point to call membership.Suspect.
	OnDown func(target string)
	// OnAverted, when set, runs (outside the lock) when an indirect ack
	// cancels a suspicion.
	OnAverted func(target string)
}

// Prober is the SWIM-style indirect reachability confirmer: when a
// delivery circuit opens for a peer, Confirm asks K other peers to ping
// the target on our behalf before the failure is escalated to membership.
// A positive indirect ack means the target is alive but our link to it is
// broken — an asymmetric failure — so the suspicion is averted and the
// link recorded as degraded instead of the healthy peer being evicted
// from every sampler.
//
// All four wire actions are served by the same Prober, so every node that
// registers one can originate confirmations, relay pings, and answer them.
// It is the binding of its machine (machine.go) to a lock, a clock timer,
// the caller, the counters and the callbacks.
type Prober struct {
	cfg     Config
	rounds  *metrics.CounterVec // delivery_indirect_probes_total{result}
	averted *metrics.Counter    // membership_suspicions_averted_total
	msgs    *metrics.CounterVec // probe_messages_total{type}

	mu    sync.Mutex
	rng   *rand.Rand
	m     *machine
	armed bool        // a timer is armed at or before the machine's due instant
	stop  func() bool // cancels it
	// busy counts the sends and callbacks under way outside the lock, so
	// Close can wait them out; it only grows while the machine is open.
	busy sync.WaitGroup
}

// New returns a Prober for cfg.
func New(cfg Config) *Prober {
	if cfg.Self == "" {
		panic("probe: Config.Self is required")
	}
	if cfg.Caller == nil {
		panic("probe: Config.Caller is required")
	}
	if cfg.Clock == nil {
		panic("probe: Config.Clock is required")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Peers == nil {
		cfg.Peers = gossip.NewStaticPeers(nil)
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Prober{
		cfg:     cfg,
		rounds:  reg.CounterVec("delivery_indirect_probes_total", "result"),
		averted: reg.Counter("membership_suspicions_averted_total"),
		msgs:    reg.CounterVec("probe_messages_total", "type"),
		rng:     rng,
		m:       newMachine(cfg.Self, cfg.K, cfg.Timeout),
	}
}

// RegisterActions installs the four probe actions on the node's SOAP
// dispatcher.
func (p *Prober) RegisterActions(d *soap.Dispatcher) {
	h := soap.HandlerFunc(p.handleSOAP)
	d.Register(ActionPingReq, h)
	d.Register(ActionPing, h)
	d.Register(ActionPingAck, h)
	d.Register(ActionPingReqAck, h)
}

// SOAP bodies. The origin/sender address rides in the body (like the
// membership envelope's From) because one-way sends have no back-channel.
type pingReqBody struct {
	XMLName xml.Name `xml:"urn:wsgossip:probe PingReq"`
	Origin  string   `xml:"Origin"`
	Target  string   `xml:"Target"`
	Nonce   string   `xml:"Nonce"`
}

type pingBody struct {
	XMLName xml.Name `xml:"urn:wsgossip:probe Ping"`
	From    string   `xml:"From"`
	Nonce   string   `xml:"Nonce"`
}

type pingAckBody struct {
	XMLName xml.Name `xml:"urn:wsgossip:probe PingAck"`
	From    string   `xml:"From"`
	Nonce   string   `xml:"Nonce"`
}

type pingReqAckBody struct {
	XMLName xml.Name `xml:"urn:wsgossip:probe PingReqAck"`
	From    string   `xml:"From"`
	Target  string   `xml:"Target"`
	Nonce   string   `xml:"Nonce"`
}

// Confirm opens an indirect confirmation round for target: K helper peers
// are asked to ping it on our behalf. If any positive ack arrives within
// the timeout the suspicion is averted and the target marked degraded;
// otherwise OnDown fires. A round already open for target is left to run —
// repeated circuit openings do not stack suspicions. Confirm returns
// immediately; resolution happens on the clock's firing goroutine.
func (p *Prober) Confirm(target string) {
	// The candidates are the whole view but self, shuffled: any prefix is a
	// uniform sample.
	draw := func() []string { return p.cfg.Peers.SelectPeers(p.rng, -1, p.cfg.Self) }
	p.step(func(now time.Duration) outcome { return p.m.confirm(target, draw, now) })
}

// step applies one input to the machine under the lock and keeps the one
// timer armed at or before the machine's next due instant. It then carries
// the outcome out unlocked: each ended round counted and called back, then
// each message sent. Close waits for that part through busy.
func (p *Prober) step(input func(now time.Duration) outcome) {
	p.mu.Lock()
	now := p.cfg.Clock.Now()
	o := input(now)
	if at, ok := p.m.due(); ok && !p.armed {
		p.armed, p.stop = true, p.cfg.Clock.AfterFunc(at-now, p.fire)
	}
	act := len(o.sends) > 0 || len(o.targets) > 0
	if act {
		p.busy.Add(1)
	}
	p.mu.Unlock()
	if !act {
		return
	}
	defer p.busy.Done()
	for _, target := range o.targets {
		p.rounds.With(o.result).Inc()
		fn := p.cfg.OnDown
		if o.result == ResultAverted {
			p.averted.Inc()
			fn = p.cfg.OnAverted
		}
		if fn != nil {
			fn(target)
		}
	}
	for _, msg := range o.sends {
		p.send(msg.action, msg.to, msg.body, msg.typ)
	}
}

// fire is the timer: it ends whatever is due, and step re-arms it.
func (p *Prober) fire() {
	p.step(func(now time.Duration) outcome {
		p.armed = false
		return p.m.expire(now)
	})
}

// handleSOAP serves all four probe actions.
func (p *Prober) handleSOAP(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var body any
	var input func(now time.Duration) outcome
	switch req.Action() {
	case ActionPingReq:
		b := new(pingReqBody)
		body, input = b, func(now time.Duration) outcome { return p.m.pingReq(*b, now) }
	case ActionPing:
		b := new(pingBody)
		body, input = b, func(time.Duration) outcome { return p.m.ping(*b) }
	case ActionPingAck:
		b := new(pingAckBody)
		body, input = b, func(time.Duration) outcome { return p.m.pingAck(*b) }
	case ActionPingReqAck:
		b := new(pingReqAckBody)
		body, input = b, func(time.Duration) outcome { return p.m.pingReqAck(*b) }
	default:
		return nil, nil
	}
	if err := req.Envelope.DecodeBody(body); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed "+strings.TrimPrefix(req.Action(), "urn:wsgossip:probe:")+": "+err.Error())
	}
	p.step(input)
	return nil, nil
}

// send writes and fires one one-way probe message, counting it by type.
// Send errors are swallowed: a refused ping is exactly the negative signal
// the protocol's timeouts encode. The body is marshalled by encoding/xml,
// once per confirmation round; the message around it is written straight
// into the binding's wire buffer (soap.Message).
func (p *Prober) send(action, to string, body any, typ string) {
	p.msgs.With(typ).Inc()
	var id [wsa.MessageIDLen]byte
	m := soap.Message{To: to, Action: action, ID: wsa.AppendMessageID(id[:0])}
	b, err := soap.MarshalBlock(body)
	if err != nil {
		return
	}
	m.Body = []soap.Block{b}
	_ = m.Send(context.Background(), p.cfg.Caller, to)
}

// Close ends the prober's part in every exchange: every open confirmation
// round and relayed ping is dropped unresolved and the timer cancelled, so
// no round resolves afterwards — neither OnDown nor OnAverted runs again —
// and later Confirm calls and probe messages are ignored. Close returns once
// the sends and callbacks already under way have finished, and from then on
// the prober sends nothing; so OnDown and OnAverted must not call it. A node
// calls it when it stops; it is idempotent.
func (p *Prober) Close() {
	p.mu.Lock()
	p.m.close()
	if p.armed {
		p.stop()
	}
	p.mu.Unlock()
	p.busy.Wait()
}

// ClearDegraded drops target from the degraded-link set — wire it to the
// delivery plane's OnPeerUp so a recovered direct path clears the flag.
func (p *Prober) ClearDegraded(target string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.m.clearDegraded(target)
}

// Degraded returns the sorted peers whose direct link is marked
// asymmetric-degraded: confirmed alive via helpers while our own sends
// fail.
func (p *Prober) Degraded() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.m.degraded))
	for a := range p.m.degraded {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// IsDegraded reports whether target is currently marked degraded.
func (p *Prober) IsDegraded(target string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.m.degraded[target]
}

// Stats is the prober's health-endpoint summary.
type Stats struct {
	// Pending is the number of confirmation rounds currently open.
	Pending int `json:"pending"`
	// Degraded lists peers with an asymmetric-degraded direct link.
	Degraded []string `json:"degraded,omitempty"`
	// Averted counts suspicions cancelled by a positive indirect ack.
	Averted int64 `json:"averted"`
	// ConfirmedDown counts rounds that timed out and escalated to OnDown.
	ConfirmedDown int64 `json:"confirmed_down"`
	// NoHelpers counts rounds that had no helper candidates to ask.
	NoHelpers int64 `json:"no_helpers"`
}

// Stats summarizes the prober for /healthz.
func (p *Prober) Stats() Stats {
	st := Stats{
		Degraded:      p.Degraded(),
		Averted:       p.averted.Value(),
		ConfirmedDown: p.rounds.With(ResultTimeout).Value(),
		NoHelpers:     p.rounds.With(ResultNoHelpers).Value(),
	}
	p.mu.Lock()
	st.Pending = len(p.m.rounds)
	p.mu.Unlock()
	return st
}
