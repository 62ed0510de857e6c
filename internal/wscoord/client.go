package wscoord

import (
	"context"
	"fmt"

	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// ActivationClient calls a remote Activation service.
type ActivationClient struct {
	caller soap.Caller
	from   string
}

// NewActivationClient returns a client sending via caller, identifying
// itself as from in addressing headers.
func NewActivationClient(caller soap.Caller, from string) *ActivationClient {
	return &ActivationClient{caller: caller, from: from}
}

// Create invokes CreateCoordinationContext at the activation address.
func (a *ActivationClient) Create(ctx context.Context, activationAddr, coordType string) (CoordinationContext, error) {
	env := soap.NewEnvelope()
	from := wsa.NewEPR(a.from)
	if err := env.SetAddressing(wsa.Headers{
		To:        activationAddr,
		Action:    ActionCreate,
		MessageID: wsa.NewMessageID(),
		ReplyTo:   &from,
	}); err != nil {
		return CoordinationContext{}, err
	}
	if err := env.SetBody(CreateCoordinationContext{CoordinationType: coordType}); err != nil {
		return CoordinationContext{}, err
	}
	resp, err := a.caller.Call(ctx, activationAddr, env)
	if err != nil {
		return CoordinationContext{}, fmt.Errorf("activation call: %w", err)
	}
	if resp == nil {
		return CoordinationContext{}, fmt.Errorf("activation call: empty response")
	}
	var body CreateCoordinationContextResponse
	if err := resp.DecodeBody(&body); err != nil {
		return CoordinationContext{}, fmt.Errorf("activation response: %w", err)
	}
	if err := body.CoordinationContext.Validate(); err != nil {
		return CoordinationContext{}, err
	}
	return body.CoordinationContext, nil
}

// RegistrationClient calls a remote Registration service.
type RegistrationClient struct {
	caller soap.Caller
	from   string
}

// NewRegistrationClient returns a client sending via caller.
func NewRegistrationClient(caller soap.Caller, from string) *RegistrationClient {
	return &RegistrationClient{caller: caller, from: from}
}

// Register invokes Register at the context's registration service and
// returns the full response envelope so callers can read extension headers.
func (r *RegistrationClient) Register(ctx context.Context, cctx CoordinationContext, protocol, participantAddr string) (*soap.Envelope, error) {
	env := soap.NewEnvelope()
	from := wsa.NewEPR(r.from)
	if err := env.SetAddressing(wsa.Headers{
		To:        cctx.RegistrationService.Address,
		Action:    ActionRegister,
		MessageID: wsa.NewMessageID(),
		ReplyTo:   &from,
	}); err != nil {
		return nil, err
	}
	if err := AttachContext(env, cctx); err != nil {
		return nil, err
	}
	if err := env.SetBody(Register{
		ProtocolIdentifier:         protocol,
		ParticipantProtocolService: ServiceRef{Address: participantAddr},
	}); err != nil {
		return nil, err
	}
	resp, err := r.caller.Call(ctx, cctx.RegistrationService.Address, env)
	if err != nil {
		return nil, fmt.Errorf("registration call: %w", err)
	}
	if resp == nil {
		return nil, fmt.Errorf("registration call: empty response")
	}
	return resp, nil
}
