// Package wscoord is the WS-Coordination 1.1 subset WS-Gossip is built on
// (reference [1] of the paper), as a protocol package: the message types
// of the Activation service (CreateCoordinationContext) and the
// Registration service (Register), the CoordinationContext header that ties
// an activity's messages together, and the caller side of both services.
//
// Key types:
//
//   - CoordinationContext — the context header; ContextBlock marshals it
//     once per activity, AttachContext puts it on an envelope, and
//     ContextFrom/ContextFor read it back.
//   - CreateCoordinationContext, Register and their responses — the
//     request and response bodies.
//   - ActivationClient / RegistrationClient — the caller side.
//
// The services themselves are the WS-Gossip Coordinator's: core.Coordinator
// serves Activation and Registration, holds the activities and their
// expiry, and answers each Register with gossip parameters and peers.
package wscoord
