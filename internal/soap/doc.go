// Package soap implements the SOAP 1.2 subset the WS-Gossip middleware is
// built on: envelope encoding/decoding, faults, a server-side handler chain
// (the interception point where the paper's gossip layer sits), an HTTP
// binding, and an in-memory binding (MemBus) for large in-process
// deployments.
//
// Key types:
//
//   - Envelope / Block — a decoded message: header and body blocks captured
//     verbatim as byte slices.
//   - Handler / Middleware / Dispatcher — the server-side stack. The
//     paper's Disseminator is exactly a Middleware: application code
//     unchanged, gossip layer interposed.
//   - Caller — the client side, which HTTPClient and MemBus implement. Every
//     Caller takes bytes (its EncodedSender half): what the stack sends is
//     written into a pooled buffer and handed to SendEncoded.
//   - HTTPClient — the HTTP binding's client. It posts through the
//     http.Client's Transport by RoundTrip and uses nothing else of the
//     client: redirects are not followed, no cookie jar is kept, and the
//     client's Timeout (Serve's 10 s wire bound when it sets none) bounds
//     each request unless the context's deadline is earlier. Only a 2xx answer is delivery; any other status is an error
//     (the fault the body carries, or one naming the status). Every request
//     shares one header map and its address's parsed URL, and a delivered
//     send's buffer goes back to the wire pool. A POST carries Host,
//     Content-Length, Content-Type and Accept-Encoding: identity, and no
//     User-Agent: a compressed answer is neither requested nor decoded, and
//     an intermediary that refuses requests lacking a User-Agent refuses
//     every POST.
//   - HTTPServer — the HTTP binding's server. It reads a request body into a
//     buffer that starts at the declared length, or 64 KiB if less, and
//     grows as its bytes arrive, never past the declared length or
//     MaxEnvelopeBytes; a body read in full is closed before the handler
//     runs, so net/http discards nothing after it.
//   - Serve — the one way to serve the binding: it serves a handler on a
//     net.Listener until a context ends, with the bounds a peer gets (the
//     whole request within the 10 s a sender waits, idle keep-alives closed
//     after 2 min), and then shuts down within a fixed grace.
//   - Fault — SOAP 1.2 faults, with NewFault/AsFault/FaultFrom helpers.
//
// The codec is the gossip hot path. It has one writer out, and one scanner
// plus one fallback capture in, picked by the bytes, not by an option. On
// the canonical format — every block declaring its own default namespace and
// any prefix it uses, which is all this stack ever writes — a hand-rolled
// scanner slices blocks zero-copy out of the input buffer. Every other
// well-formed document — prefixed documents from other SOAP stacks, blocks
// inheriting an outer namespace — takes the one encoding/xml fallback, which
// accepts whatever encoding/xml accepts and captures each block anew as one
// self-contained element in that same canonical form (Block.UnmarshalXML).
// The one writer splices blocks, whichever way they came in, into the
// canonical scaffold: Encode in one exactly-sized allocation,
// EncodeTemplate/RenderTo a fan-out message once, patching only the wsa:To
// header per target (soap.Fanout is the shared fan-out path, and Forward the
// re-headed one), and a Message — a one-way message the stack originates,
// described by its action, ID, To, header blocks and body — from its fields
// straight into a pooled wire buffer handed to SendEncoded, with no Envelope
// built on the way. A block the splice declines, which only a hand can
// build, is ErrNotSpliceable: nothing is re-encoded another way. The
// flat-element codec (AppendFlat*, FlatReader) writes and reads the simple
// blocks a message carries at every hop — addressing properties, the gossip
// header, the protocol bodies down to the membership view's nested entries —
// byte-identically to encoding/xml and without its reflection. See
// DESIGN.md, "The wire path" and "The wire scanner".
//
// # Envelope ownership
//
// Receive and render buffers are pooled, and so are decoded requests: a
// binding's one-way delivery (MemBus.SendEncoded, and every exchange the
// HTTPServer serves) draws its Request, Envelope, Header and first blocks
// from a pool and hands them back, zeroed, with the buffer once its handler
// has returned and any response has been written. The contract (documented
// on Handler) is that a request — the Request, its Envelope and every
// Block.Raw — is valid only during HandleSOAP; a handler that retains it past
// that point must Clone it, and one that keeps the pointer finds the
// envelope empty. Envelope.Snapshot shares the captured bytes and is NOT
// sufficient for retention; it exists for fan-out paths that re-head an
// envelope within a delivery. What the caller asked for is the caller's: a
// Call's request and response, and whatever Decode returns, are never
// recycled. A forward re-heads nothing in memory at all: Forward writes the
// copy from the received blocks straight into the pooled fan-out template,
// and a Message is written from its fields, read during the call only.
// Strings are different: every string the
// decoder hands out — a block's local name and namespace, Envelope.Action and
// Request.Action, the Addressing properties — is interned or copied, never a
// view of the buffer, so a handler may keep them past the delivery. So is
// every string a flat read returns: FlatReader.String copies, and
// FlatReader.Symbol / FlatText.Symbol return the intern table's string for a
// value whose number the deployment bounds (a peer address, an aggregate
// function, a protocol name) and a copy of anything else; an identifier
// minted at run time is read with String. The views are FlatText, which
// die with the delivery.
package soap
