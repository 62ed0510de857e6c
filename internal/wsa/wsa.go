package wsa

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Namespace is the WS-Addressing 1.0 namespace URI.
const Namespace = "http://www.w3.org/2005/08/addressing"

// Well-known addresses defined by WS-Addressing.
const (
	// AnonymousURI marks the reply endpoint as the transport back-channel.
	AnonymousURI = Namespace + "/anonymous"
	// NoneURI marks a message that must not be replied to.
	NoneURI = Namespace + "/none"
)

// ErrMissingAddress reports an endpoint reference without an Address element.
var ErrMissingAddress = errors.New("wsa: endpoint reference has no address")

// EndpointReference identifies a web-service endpoint, optionally with
// reference parameters that the receiver echoes back in subsequent messages
// (WS-Coordination uses them to carry registration state).
type EndpointReference struct {
	XMLName             xml.Name            `xml:"http://www.w3.org/2005/08/addressing EndpointReference"`
	Address             string              `xml:"Address"`
	ReferenceParameters *ReferenceParameter `xml:"ReferenceParameters,omitempty"`
}

// ReferenceParameter holds opaque per-endpoint XML that must be echoed back.
type ReferenceParameter struct {
	Inner string `xml:",innerxml"`
}

// NewEPR returns an endpoint reference for the given address URI.
func NewEPR(address string) EndpointReference {
	return EndpointReference{Address: address}
}

// Validate checks that the endpoint reference is usable as a message target.
func (e EndpointReference) Validate() error {
	if strings.TrimSpace(e.Address) == "" {
		return ErrMissingAddress
	}
	return nil
}

// IsAnonymous reports whether the reference denotes the anonymous endpoint.
func (e EndpointReference) IsAnonymous() bool { return e.Address == AnonymousURI }

// IsNone reports whether the reference denotes the "none" endpoint.
func (e EndpointReference) IsNone() bool { return e.Address == NoneURI }

// String returns the address for logging.
func (e EndpointReference) String() string { return e.Address }

// MessageID is a WS-Addressing message identifier header value.
type MessageID string

// NewMessageID returns a fresh urn:uuid message identifier. Identifiers are
// random 128-bit values; collisions are negligible at any realistic scale.
// It is AppendMessageID's text as a string, that string its one allocation.
func NewMessageID() MessageID {
	var buf [MessageIDLen]byte
	return MessageID(AppendMessageID(buf[:0]))
}

// MessageIDLen is the length of the text AppendMessageID writes: a buffer of
// this size on a sender's stack holds one identifier.
const MessageIDLen = len(idPrefix) + 2*16

const idPrefix = "urn:uuid:"

// AppendMessageID appends a fresh urn:uuid message identifier's text to dst:
// what a sender that writes the identifier straight onto the wire uses, so
// the identifier costs no allocation.
//
// The 16 random bytes are read with exactly one io.ReadFull of rand.Reader
// into pooled scratch, and the digits are encoded straight into dst — also
// when rand.Reader has been substituted, where crypto/rand.Read would bounce
// through a heap buffer of its own. A substituted reader sees the same
// stream of 16-byte reads either way.
func AppendMessageID(dst []byte) []byte {
	b := idScratch.Get().(*[16]byte)
	defer idScratch.Put(b)
	if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
		// crypto/rand failure is unrecoverable program state; fall back to a
		// zero ID rather than panicking in library code.
		return append(dst, "urn:uuid:00000000000000000000000000000000"...)
	}
	dst = append(dst, idPrefix...)
	return hex.AppendEncode(dst, b[:])
}

// idScratch holds AppendMessageID's read buffers: a buffer handed to an
// arbitrary io.Reader escapes, so it comes from here rather than the stack.
var idScratch = sync.Pool{New: func() any { return new([16]byte) }}

// Headers bundles the WS-Addressing message-addressing properties carried in
// a SOAP header block.
type Headers struct {
	To        string    `xml:"To,omitempty"`
	Action    string    `xml:"Action,omitempty"`
	MessageID MessageID `xml:"MessageID,omitempty"`
	RelatesTo MessageID `xml:"RelatesTo,omitempty"`
	ReplyTo   *EndpointReference
	From      *EndpointReference
}

// Validate checks the mandatory addressing properties for a request message.
func (h Headers) Validate() error {
	if h.Action == "" {
		return fmt.Errorf("wsa: missing Action header")
	}
	return nil
}

// Reply derives addressing headers for a reply to h with the given action.
func (h Headers) Reply(action string) Headers {
	to := AnonymousURI
	if h.ReplyTo != nil && h.ReplyTo.Address != "" {
		to = h.ReplyTo.Address
	}
	return Headers{
		To:        to,
		Action:    action,
		MessageID: NewMessageID(),
		RelatesTo: h.MessageID,
	}
}
