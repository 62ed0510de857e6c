package wscoord

import (
	"encoding/xml"
	"errors"
	"fmt"

	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// Namespace is the WS-Coordination namespace.
const Namespace = "http://docs.oasis-open.org/ws-tx/wscoor/2006/06"

// WS-Coordination action URIs.
const (
	ActionCreate           = Namespace + "/CreateCoordinationContext"
	ActionCreateResponse   = Namespace + "/CreateCoordinationContextResponse"
	ActionRegister         = Namespace + "/Register"
	ActionRegisterResponse = Namespace + "/RegisterResponse"
)

// ErrNoContext reports a message that should carry a CoordinationContext
// header but does not.
var ErrNoContext = errors.New("wscoord: no coordination context header")

// ErrUnknownActivity reports a registration for an activity the coordinator
// does not know.
var ErrUnknownActivity = errors.New("wscoord: unknown activity")

// ServiceRef is an endpoint reference valued element (WS-Coordination names
// elements like RegistrationService with wsa:EndpointReferenceType content).
type ServiceRef struct {
	Address string `xml:"http://www.w3.org/2005/08/addressing Address"`
}

// EPR converts the reference to a wsa endpoint reference.
func (s ServiceRef) EPR() wsa.EndpointReference { return wsa.NewEPR(s.Address) }

// CoordinationContext identifies one coordinated activity. It travels as a
// SOAP header block on every message belonging to the activity; a sender
// marshals it once per activity (ContextBlock) and attaches that block.
type CoordinationContext struct {
	XMLName             xml.Name   `xml:"http://docs.oasis-open.org/ws-tx/wscoor/2006/06 CoordinationContext"`
	Identifier          string     `xml:"Identifier"`
	ExpiresMillis       uint64     `xml:"Expires,omitempty"`
	CoordinationType    string     `xml:"CoordinationType"`
	RegistrationService ServiceRef `xml:"RegistrationService"`
}

// Validate checks the mandatory context fields.
func (c CoordinationContext) Validate() error {
	if c.Identifier == "" {
		return errors.New("wscoord: context missing identifier")
	}
	if c.CoordinationType == "" {
		return errors.New("wscoord: context missing coordination type")
	}
	if c.RegistrationService.Address == "" {
		return errors.New("wscoord: context missing registration service")
	}
	return nil
}

// AttachContext adds the context as a SOAP header block, replacing any
// existing context header. It marshals ctx; a sender that puts one context
// on many messages marshals the block once (ContextBlock) and writes that.
func AttachContext(env *soap.Envelope, ctx CoordinationContext) error {
	b, err := ContextBlock(ctx)
	if err != nil {
		return err
	}
	env.RemoveHeader(Namespace, "CoordinationContext")
	env.AddHeaderBlock(b)
	return nil
}

// ContextBlock marshals ctx into the header block AttachContext adds. The
// block is immutable and may be attached to any number of envelopes.
func ContextBlock(ctx CoordinationContext) (soap.Block, error) {
	return soap.MarshalBlock(ctx)
}

// ContextFrom extracts the coordination context header from the envelope.
func ContextFrom(env *soap.Envelope) (CoordinationContext, error) {
	var ctx CoordinationContext
	if err := env.DecodeHeader(Namespace, "CoordinationContext", &ctx); err != nil {
		if errors.Is(err, soap.ErrHeaderNotFound) {
			return ctx, ErrNoContext
		}
		return ctx, err
	}
	if err := ctx.Validate(); err != nil {
		return ctx, fmt.Errorf("wscoord: invalid context header: %w", err)
	}
	return ctx, nil
}

// ContextFor extracts the coordination context header whose Identifier is
// id. A message that belongs to several activities carries one context per
// activity, so the first context header need not be the one it is asked
// about; ContextFrom reads that first one.
func ContextFor(env *soap.Envelope, id string) (CoordinationContext, error) {
	if env.Header != nil {
		for _, b := range env.Header.Blocks {
			if b.XMLName.Space != Namespace || b.XMLName.Local != "CoordinationContext" {
				continue
			}
			var ctx CoordinationContext
			if err := b.Decode(&ctx); err != nil {
				return ctx, err
			}
			if ctx.Identifier != id {
				continue
			}
			if err := ctx.Validate(); err != nil {
				return ctx, fmt.Errorf("wscoord: invalid context header: %w", err)
			}
			return ctx, nil
		}
	}
	return CoordinationContext{}, fmt.Errorf("%w for activity %q", ErrNoContext, id)
}

// CreateCoordinationContext is the Activation request body.
type CreateCoordinationContext struct {
	XMLName          xml.Name `xml:"http://docs.oasis-open.org/ws-tx/wscoor/2006/06 CreateCoordinationContext"`
	ExpiresMillis    uint64   `xml:"Expires,omitempty"`
	CoordinationType string   `xml:"CoordinationType"`
}

// CreateCoordinationContextResponse is the Activation response body.
type CreateCoordinationContextResponse struct {
	XMLName             xml.Name            `xml:"http://docs.oasis-open.org/ws-tx/wscoor/2006/06 CreateCoordinationContextResponse"`
	CoordinationContext CoordinationContext `xml:"CoordinationContext"`
}

// Register is the Registration request body.
type Register struct {
	XMLName                    xml.Name   `xml:"http://docs.oasis-open.org/ws-tx/wscoor/2006/06 Register"`
	ProtocolIdentifier         string     `xml:"ProtocolIdentifier"`
	ParticipantProtocolService ServiceRef `xml:"ParticipantProtocolService"`
}

// RegisterResponse is the Registration response body. Extensions (such as
// WS-Gossip's parameter block) travel as additional SOAP headers.
type RegisterResponse struct {
	XMLName                    xml.Name   `xml:"http://docs.oasis-open.org/ws-tx/wscoor/2006/06 RegisterResponse"`
	CoordinatorProtocolService ServiceRef `xml:"CoordinatorProtocolService"`
}
