// Package transport defines the message-passing abstraction shared by the
// gossip, membership, and baseline protocols. The same protocol code runs
// over the deterministic simulator (internal/simnet) and over real SOAP/HTTP
// (via the soap bindings and adapters like membership.SOAPEndpoint), which
// is what makes laptop-scale reproduction of the paper's large-N claims
// faithful: only the wire moves, the protocol logic does not.
//
// Key types: Message (one one-way protocol message), Endpoint (a node's
// attachment: Send + SetHandler), Mux (action-based demultiplexer so
// several protocols share one endpoint) and Handler. Time is not this
// package's concern: protocols that need it take a clock.Clock.
//
// A message body is lent, never given: Send does not keep msg.Body after it
// returns, and a handler's msg.Body is valid only during the call (Message
// states the rule). So a sender writes its bodies into a reused buffer, and a
// fabric delivers from a buffer of its own that it reuses once the handler is
// back.
package transport
