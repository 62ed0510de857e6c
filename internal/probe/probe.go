package probe

import (
	"context"
	"encoding/xml"
	"fmt"
	"math/rand"
	"sort"
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

// proberMetrics is the prober's registry-resolved series.
type proberMetrics struct {
	rounds  *metrics.CounterVec // delivery_indirect_probes_total{result}
	averted *metrics.Counter    // membership_suspicions_averted_total
	msgs    *metrics.CounterVec // probe_messages_total{type}
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
type Prober struct {
	cfg Config
	m   proberMetrics

	mu       sync.Mutex
	closed   bool
	rng      *rand.Rand
	seq      uint64
	pending  map[string]*pendingConfirm
	relayed  map[string]relayEntry
	degraded map[string]bool
}

// pendingConfirm is one open confirmation round at the origin.
type pendingConfirm struct {
	nonce string
	stop  func() bool
}

// relayEntry is one forwarded ping awaiting its ack at a helper.
type relayEntry struct {
	origin string
	target string
	nonce  string      // the origin's round nonce, echoed back on success
	stop   func() bool // cancels the entry's expiry timer
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
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Prober{
		cfg: cfg,
		m: proberMetrics{
			rounds:  reg.CounterVec("delivery_indirect_probes_total", "result"),
			averted: reg.Counter("membership_suspicions_averted_total"),
			msgs:    reg.CounterVec("probe_messages_total", "type"),
		},
		rng:      rng,
		pending:  make(map[string]*pendingConfirm),
		relayed:  make(map[string]relayEntry),
		degraded: make(map[string]bool),
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
	p.mu.Lock()
	if _, open := p.pending[target]; open || p.closed {
		p.mu.Unlock()
		return
	}
	helpers := p.helpersLocked(target)
	if len(helpers) == 0 {
		p.mu.Unlock()
		p.m.rounds.With(ResultNoHelpers).Inc()
		if p.cfg.OnDown != nil {
			p.cfg.OnDown(target)
		}
		return
	}
	p.seq++
	nonce := fmt.Sprintf("%s#%d", p.cfg.Self, p.seq)
	pc := &pendingConfirm{nonce: nonce}
	p.pending[target] = pc
	pc.stop = p.cfg.Clock.AfterFunc(p.cfg.Timeout, func() { p.expire(target, nonce) })
	p.mu.Unlock()
	for _, h := range helpers {
		p.send(ActionPingReq, h, pingReqBody{Origin: p.cfg.Self, Target: target, Nonce: nonce}, "ping_req")
	}
}

// helpersLocked samples up to K helper candidates, excluding self and the
// target.
func (p *Prober) helpersLocked(target string) []string {
	if p.cfg.Peers == nil {
		return nil
	}
	cands := p.cfg.Peers.SelectPeers(p.rng, -1, p.cfg.Self)
	out := cands[:0]
	for _, c := range cands {
		if c != target && c != p.cfg.Self {
			out = append(out, c)
		}
	}
	if p.cfg.K > 0 && len(out) > p.cfg.K {
		out = out[:p.cfg.K] // SelectPeers shuffles, so a prefix is uniform
	}
	return out
}

// expire concedes a confirmation round: no helper vouched for the target
// within the window.
func (p *Prober) expire(target, nonce string) {
	p.mu.Lock()
	pc := p.pending[target]
	if pc == nil || pc.nonce != nonce {
		p.mu.Unlock()
		return
	}
	delete(p.pending, target)
	p.mu.Unlock()
	p.m.rounds.With(ResultTimeout).Inc()
	if p.cfg.OnDown != nil {
		p.cfg.OnDown(target)
	}
}

// handleSOAP serves all four probe actions.
func (p *Prober) handleSOAP(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	switch req.Action() {
	case ActionPingReq:
		var body pingReqBody
		if err := req.Envelope.DecodeBody(&body); err != nil {
			return nil, soap.NewFault(soap.CodeSender, "malformed ping-req: "+err.Error())
		}
		p.relayPing(body)
	case ActionPing:
		var body pingBody
		if err := req.Envelope.DecodeBody(&body); err != nil {
			return nil, soap.NewFault(soap.CodeSender, "malformed ping: "+err.Error())
		}
		p.send(ActionPingAck, body.From, pingAckBody{From: p.cfg.Self, Nonce: body.Nonce}, "ping_ack")
	case ActionPingAck:
		var body pingAckBody
		if err := req.Envelope.DecodeBody(&body); err != nil {
			return nil, soap.NewFault(soap.CodeSender, "malformed ping-ack: "+err.Error())
		}
		p.reportBack(body)
	case ActionPingReqAck:
		var body pingReqAckBody
		if err := req.Envelope.DecodeBody(&body); err != nil {
			return nil, soap.NewFault(soap.CodeSender, "malformed ping-req-ack: "+err.Error())
		}
		p.avert(body)
	}
	return nil, nil
}

// relayPing serves the helper half: forward a direct ping to the target
// and remember the round so the target's ack can be reported back.
func (p *Prober) relayPing(body pingReqBody) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.seq++
	relayNonce := fmt.Sprintf("%s*%d", p.cfg.Self, p.seq)
	p.relayed[relayNonce] = relayEntry{
		origin: body.Origin, target: body.Target, nonce: body.Nonce,
		stop: p.cfg.Clock.AfterFunc(p.cfg.Timeout, func() {
			p.mu.Lock()
			delete(p.relayed, relayNonce)
			p.mu.Unlock()
		}),
	}
	p.mu.Unlock()
	p.send(ActionPing, body.Target, pingBody{From: p.cfg.Self, Nonce: relayNonce}, "ping")
}

// reportBack serves the helper's second half: the target answered, tell
// the origin.
func (p *Prober) reportBack(body pingAckBody) {
	p.mu.Lock()
	e, ok := p.relayed[body.Nonce]
	if ok {
		delete(p.relayed, body.Nonce)
	}
	p.mu.Unlock()
	if !ok {
		return
	}
	p.send(ActionPingReqAck, e.origin, pingReqAckBody{From: p.cfg.Self, Target: e.target, Nonce: e.nonce}, "ping_req_ack")
}

// avert resolves an open round positively: the target is reachable via the
// helper, so the failure is our link, not the peer.
func (p *Prober) avert(body pingReqAckBody) {
	p.mu.Lock()
	pc := p.pending[body.Target]
	if pc == nil || pc.nonce != body.Nonce {
		p.mu.Unlock()
		return
	}
	delete(p.pending, body.Target)
	p.degraded[body.Target] = true
	stop := pc.stop
	p.mu.Unlock()
	if stop != nil {
		stop()
	}
	p.m.rounds.With(ResultAverted).Inc()
	p.m.averted.Inc()
	if p.cfg.OnAverted != nil {
		p.cfg.OnAverted(body.Target)
	}
}

// send writes and fires one one-way probe message, counting it by type.
// Send errors are swallowed: a refused ping is exactly the negative signal
// the protocol's timeouts encode. The body is marshalled by encoding/xml,
// once per confirmation round; the message around it is written straight
// into the binding's wire buffer (soap.Message).
func (p *Prober) send(action, to string, body any, typ string) {
	p.m.msgs.With(typ).Inc()
	var id [wsa.MessageIDLen]byte
	m := soap.Message{To: to, Action: action, ID: wsa.AppendMessageID(id[:0])}
	b, err := soap.MarshalBlock(body)
	if err != nil {
		return
	}
	m.Body = []soap.Block{b}
	_ = m.Send(context.Background(), p.cfg.Caller, to)
}

// Close ends the prober's part in every exchange: the timeout timer of each
// open confirmation round and of each relayed ping is cancelled, so no round
// resolves afterwards — neither OnDown nor OnAverted runs again — and later
// Confirm calls and ping requests are ignored. A node calls it when it stops;
// it is idempotent.
func (p *Prober) Close() {
	p.mu.Lock()
	p.closed = true
	stops := make([]func() bool, 0, len(p.pending)+len(p.relayed))
	for target, pc := range p.pending {
		stops = append(stops, pc.stop)
		delete(p.pending, target)
	}
	for nonce, e := range p.relayed {
		stops = append(stops, e.stop)
		delete(p.relayed, nonce)
	}
	p.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
}

// ClearDegraded drops target from the degraded-link set — wire it to the
// delivery plane's OnPeerUp so a recovered direct path clears the flag.
func (p *Prober) ClearDegraded(target string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.degraded, target)
}

// Degraded returns the sorted peers whose direct link is marked
// asymmetric-degraded: confirmed alive via helpers while our own sends
// fail.
func (p *Prober) Degraded() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.degraded))
	for a := range p.degraded {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// IsDegraded reports whether target is currently marked degraded.
func (p *Prober) IsDegraded(target string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degraded[target]
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
		Averted:       p.m.averted.Value(),
		ConfirmedDown: p.m.rounds.With(ResultTimeout).Value(),
		NoHelpers:     p.m.rounds.With(ResultNoHelpers).Value(),
	}
	p.mu.Lock()
	st.Pending = len(p.pending)
	p.mu.Unlock()
	return st
}
