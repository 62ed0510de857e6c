package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
	"wsgossip/internal/wscoord"
)

// addressingFor builds one-way addressing headers for an outbound message.
func addressingFor(to, action string) wsa.Headers {
	return wsa.Headers{To: to, Action: action, MessageID: wsa.NewMessageID()}
}

// Interaction is one activated gossip dissemination: the coordination
// context, the coordination protocol it runs, and the parameters and
// targets the Coordinator assigned to the initiator.
type Interaction struct {
	Context  wscoord.CoordinationContext
	Protocol string
	Params   GossipParameters

	// contextBlock is blockContext as the header block every notification
	// of the interaction carries, marshaled once by StartProtocolInteraction
	// and written by each Notify as it is. The context of an Interaction
	// assembled by hand, or whose Context was changed since, is marshaled by
	// each Notify call instead (wscoord.ContextBlock).
	contextBlock soap.Block
	blockContext wscoord.CoordinationContext
}

// InitiatorConfig configures an Initiator.
type InitiatorConfig struct {
	// Address is the initiator's own endpoint address (used in addressing
	// headers and as its registration participant address).
	Address string
	// Caller sends SOAP messages.
	Caller soap.Caller
	// Activation is the Coordinator's Activation service address.
	Activation string
	// Peers, when set, is the live peer view the notification fan-out is
	// sampled from in place of the coordinator-assigned target list (which
	// remains the fallback while the view is empty). Nil keeps the classic
	// static behaviour.
	Peers PeerView
	// RNG drives live-view sampling; nil falls back to a fixed seed. Unused
	// when Peers is nil.
	RNG *rand.Rand
	// Metrics, when set, records notification fan-out failures under
	// gossip_send_errors_total (sharing the disseminator's family when the
	// registry is shared). Nil means unobserved.
	Metrics *metrics.Registry
}

// Initiator is the one role whose application code changes (paper,
// Section 3): it activates a gossip interaction, registers, and then issues
// a single notification per data item; the middleware does the rest.
type Initiator struct {
	cfg        InitiatorConfig
	activation *wscoord.ActivationClient
	register   *wscoord.RegistrationClient
	sendErrors *metrics.Counter

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// NewInitiator returns an initiator.
func NewInitiator(cfg InitiatorConfig) (*Initiator, error) {
	if cfg.Address == "" || cfg.Caller == nil || cfg.Activation == "" {
		return nil, fmt.Errorf("core: initiator config requires address, caller, and activation address")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Initiator{
		cfg:        cfg,
		activation: wscoord.NewActivationClient(cfg.Caller, cfg.Address),
		register:   wscoord.NewRegistrationClient(cfg.Caller, cfg.Address),
		sendErrors: reg.Counter("gossip_send_errors_total"),
		rng:        rng,
	}, nil
}

// StartInteraction activates a gossip coordination context and registers the
// initiator for the push-gossip protocol, obtaining its parameters and
// initial targets.
func (i *Initiator) StartInteraction(ctx context.Context) (*Interaction, error) {
	return i.StartProtocolInteraction(ctx, ProtocolPushGossip)
}

// StartProtocolInteraction activates a gossip coordination context and
// registers the initiator for the given coordination protocol (any URI the
// Coordinator's registry accepts — e.g. ProtocolPushGossip or
// ProtocolPullGossip), obtaining its parameters and initial targets.
func (i *Initiator) StartProtocolInteraction(ctx context.Context, protocol string) (*Interaction, error) {
	cctx, err := i.activation.Create(ctx, i.cfg.Activation, CoordinationTypeGossip)
	if err != nil {
		return nil, fmt.Errorf("core: activate gossip interaction: %w", err)
	}
	resp, err := i.register.Register(ctx, cctx, protocol, i.cfg.Address)
	if err != nil {
		return nil, fmt.Errorf("core: register initiator: %w", err)
	}
	params, err := GossipParametersFrom(resp)
	if err != nil {
		return nil, fmt.Errorf("core: registration response without gossip parameters: %w", err)
	}
	block, err := wscoord.ContextBlock(cctx)
	if err != nil {
		return nil, fmt.Errorf("core: coordination context of %s: %w", cctx.Identifier, err)
	}
	return &Interaction{Context: cctx, Protocol: protocol, Params: params, contextBlock: block, blockContext: cctx}, nil
}

// Notify issues a single notification carrying body, fanning it out to the
// initiator's assigned targets with the interaction's full hop budget. It
// returns the notification's message ID and the number of targets the send
// succeeded to (gossip redundancy tolerates individual failures). The
// notification is written, not built: its message ID and gossip header into
// scratch on the stack, the body marshaled once into pooled scratch
// (soap.AppendMarshal), and all of it, with the interaction's context block,
// straight into one pooled template (soap.Message.Fanout) that is rendered
// per target with only its wsa:To added. With the assigned targets, the
// returned ID is the one allocation left.
func (i *Initiator) Notify(ctx context.Context, inter *Interaction, body any) (wsa.MessageID, int, error) {
	if inter == nil {
		return "", 0, fmt.Errorf("core: notify without an interaction")
	}
	var idBuf [wsa.MessageIDLen]byte
	id := wsa.AppendMessageID(idBuf[:0])
	msgID := wsa.MessageID(id)
	cb := inter.contextBlock
	if cb.Raw == nil || inter.blockContext != inter.Context {
		var err error
		if cb, err = wscoord.ContextBlock(inter.Context); err != nil {
			return msgID, 0, err
		}
	}
	scratch := bodyScratch.Get().(*[]byte)
	defer bodyScratch.Put(scratch)
	b, err := soap.AppendMarshal((*scratch)[:0], body)
	if err != nil {
		return msgID, 0, err
	}
	*scratch = b.Raw[:0]
	protocol := inter.Protocol
	if protocol == ProtocolPushGossip {
		protocol = "" // wire compatibility: empty means push
	}
	var gossipBuf [512]byte
	header := [2]soap.Block{cb, {XMLName: gossipName, Raw: appendGossipBlock(gossipBuf[:0], inter.Context.Identifier, inter.Params.Hops, protocol, "")}}
	m := soap.Message{Action: ActionNotify, ID: id, Header: header[:], Body: []soap.Block{b}}
	targets := i.seedTargets(inter)
	sent, failed := m.Fanout(ctx, i.cfg.Caller, targets)
	i.sendErrors.Add(int64(len(failed)))
	if len(targets) > 0 && sent == 0 {
		return msgID, 0, fmt.Errorf("core: notification reached none of %d targets", len(targets))
	}
	return msgID, sent, nil
}

// bodyScratch holds the buffers Notify marshals a body into. A buffer goes
// back once the fan-out has returned: the template copied the body, and every
// rendered copy the template.
var bodyScratch = sync.Pool{New: func() any { return new([]byte) }}

// seedTargets picks the endpoints the initial notification is sent to. The
// classic path uses the coordinator-assigned target list verbatim; with a
// live peer view installed, the same number of seeds is drawn from the view
// (falling back to the assigned list while the view is empty).
func (i *Initiator) seedTargets(inter *Interaction) []string {
	if i.cfg.Peers == nil {
		return inter.Params.Targets
	}
	want := len(inter.Params.Targets)
	if want == 0 {
		want = 2 * inter.Params.Fanout
	}
	if want <= 0 {
		return inter.Params.Targets
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return SelectTargets(nil, nil, i.cfg.Peers, i.rng, want, i.cfg.Address, inter.Params.Targets)
}

// SubscribeClient sends a Subscribe to a Coordinator on behalf of endpoint.
// protocols lists the coordination protocols the endpoint's stack serves;
// none means every protocol.
func SubscribeClient(ctx context.Context, caller soap.Caller, coordinator, endpoint, role string, protocols ...string) error {
	env := soap.NewEnvelope()
	from := wsa.NewEPR(endpoint)
	if err := env.SetAddressing(wsa.Headers{
		To:        coordinator,
		Action:    ActionSubscribe,
		MessageID: wsa.NewMessageID(),
		ReplyTo:   &from,
	}); err != nil {
		return err
	}
	if err := env.SetBody(SubscribeRequest{Endpoint: endpoint, Role: role, Protocols: protocols}); err != nil {
		return err
	}
	resp, err := caller.Call(ctx, coordinator, env)
	if err != nil {
		return fmt.Errorf("core: subscribe %s at %s: %w", endpoint, coordinator, err)
	}
	var ack SubscribeResponse
	if resp == nil {
		return fmt.Errorf("core: subscribe %s: empty response", endpoint)
	}
	if err := resp.DecodeBody(&ack); err != nil {
		return fmt.Errorf("core: subscribe %s: %w", endpoint, err)
	}
	if !ack.Accepted {
		return fmt.Errorf("core: subscribe %s: rejected", endpoint)
	}
	return nil
}
