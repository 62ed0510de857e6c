package core

import (
	"encoding/xml"
	"errors"

	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// Namespace is the WS-Gossip extension namespace.
const Namespace = "urn:wsgossip:2008"

// Coordination protocol identifiers. The paper frames WS-Gossip as a family
// of gossip-structured protocols; the Coordinator validates registrations
// against a fixed table of these URIs (SupportedProtocols lists them).
const (
	// CoordinationTypeGossip is the WS-Gossip coordination type URI used
	// with WS-Coordination Activation.
	CoordinationTypeGossip = Namespace + ":gossip"
	// ProtocolPushGossip is the WS-PushGossip coordination protocol:
	// eager (or lazy) hop-bounded push dissemination.
	ProtocolPushGossip = Namespace + ":gossip:push"
	// ProtocolPullGossip is the WS-PullGossip coordination protocol: a
	// puller periodically requests digests/batches from coordinator-
	// assigned peers; notifications spread only through pull rounds.
	ProtocolPullGossip = Namespace + ":gossip:pull"
	// ProtocolAggregate is the WS-Gossip aggregation protocol: push-sum
	// value/weight exchanges converging on count/sum/avg/min/max over the
	// subscriber population (see internal/aggregate).
	ProtocolAggregate = Namespace + ":gossip:aggregate"
)

// WS-Gossip action URIs.
const (
	// ActionNotify is the disseminated application operation ("op" in
	// Figure 1).
	ActionNotify = Namespace + ":notify"
	// ActionIHave announces the availability of an announce round's
	// notifications (lazy push).
	ActionIHave = Namespace + ":ihave"
	// ActionIWant requests an announced notification (lazy push).
	ActionIWant = Namespace + ":iwant"
	// ActionSubscribe registers interest with the Coordinator.
	ActionSubscribe = Namespace + ":subscribe"
	// ActionSubscribeResponse acknowledges a subscription.
	ActionSubscribeResponse = Namespace + ":subscribeResponse"
	// ActionReplicate propagates subscription records between the members
	// of a distributed Coordinator.
	ActionReplicate = Namespace + ":replicateSubscription"
	// ActionReplicateActivity propagates created coordination activities
	// between the members of a distributed Coordinator, enabling failover
	// registration at a successor (CoordinatorConfig.ReplicateActivities).
	ActionReplicateActivity = Namespace + ":replicateActivity"
	// ActionPullRequest asks a peer for stored notifications absent from
	// the requester's digest (WS-PullGossip).
	ActionPullRequest = Namespace + ":pullRequest"
)

// Subscriber roles.
const (
	// RoleDisseminator marks a subscriber running a compliant middleware
	// stack that forwards notifications.
	RoleDisseminator = "disseminator"
	// RoleConsumer marks an unchanged subscriber that only consumes.
	RoleConsumer = "consumer"
)

// ErrNoGossipHeader reports a notification without the WS-Gossip header.
var ErrNoGossipHeader = errors.New("core: no gossip header")

// GossipHeader is the SOAP header block that rides on every gossiped
// notification: it names the interaction (the coordination activity) and the
// remaining hop budget. Protocol names the coordination protocol the
// interaction runs (empty means WS-PushGossip, for wire compatibility with
// pre-registry senders), so a disseminator's first-contact registration asks
// for the right parameter set. From names the sender on a bare copy — one
// that omits the CoordinationContext because its sender has handed the peer
// the context before — so a peer that does not hold the interaction can
// refuse it (see Disseminator). The notification itself is named by its
// wsa:MessageID: the header's own MessageID child is written by older senders
// only, and GossipHeaderFrom fills the field from wsa:MessageID when the
// header omits it.
type GossipHeader struct {
	XMLName       xml.Name `xml:"urn:wsgossip:2008 Gossip"`
	InteractionID string   `xml:"InteractionID"`
	MessageID     string   `xml:"MessageID,omitempty"`
	Hops          int      `xml:"Hops"`
	Protocol      string   `xml:"Protocol,omitempty"`
	From          string   `xml:"From,omitempty"`
}

// SetGossipHeader writes gh into the envelope, replacing any existing gossip
// header. gh.MessageID is not written: the envelope's wsa:MessageID
// (SetAddressing) names the notification. The error is always nil; the
// signature predates the byte-level writer.
func SetGossipHeader(env *soap.Envelope, gh GossipHeader) error {
	env.RemoveHeader(Namespace, "Gossip")
	env.AddHeaderBlock(gossipBlock(gh.InteractionID, gh.Hops, gh.Protocol, gh.From))
	return nil
}

// GossipHeaderFrom extracts the gossip header, or ErrNoGossipHeader. Its
// MessageID is the envelope's wsa:MessageID unless the header is of the older
// form that carried its own. The returned strings are copies: they stay valid
// after the envelope's receive buffer is recycled.
func GossipHeaderFrom(env *soap.Envelope) (GossipHeader, error) {
	b, ok := env.HeaderBlock(Namespace, "Gossip")
	if !ok {
		return GossipHeader{}, ErrNoGossipHeader
	}
	gh, err := decodeGossipHeader(b)
	if err == nil && gh.MessageID == "" {
		gh.MessageID = string(env.MessageIDKey())
	}
	return gh, err
}

// GossipParameters is the registration-response extension through which the
// Coordinator configures a participant: protocol parameters (the paper's f
// and r) plus the peer targets for its gossip rounds.
type GossipParameters struct {
	XMLName xml.Name `xml:"urn:wsgossip:2008 GossipParameters"`
	Fanout  int      `xml:"Fanout"`
	Hops    int      `xml:"Hops"`
	Style   string   `xml:"Style"`
	Targets []string `xml:"Targets>Target"`
}

// GossipParametersFrom extracts the parameter extension header.
func GossipParametersFrom(env *soap.Envelope) (GossipParameters, error) {
	var gp GossipParameters
	if err := env.DecodeHeader(Namespace, "GossipParameters", &gp); err != nil {
		return gp, err
	}
	return gp, nil
}

// AggregateParameters is the registration-response extension for the
// aggregation protocol: exchange fanout, a hop budget for disseminating the
// start message over the assigned overlay, and the peer targets for
// push-sum exchanges.
type AggregateParameters struct {
	XMLName xml.Name `xml:"urn:wsgossip:2008 AggregateParameters"`
	Fanout  int      `xml:"Fanout"`
	Hops    int      `xml:"Hops"`
	Targets []string `xml:"Targets>Target"`
}

// AggregateParametersFrom extracts the aggregation parameter extension.
func AggregateParametersFrom(env *soap.Envelope) (AggregateParameters, error) {
	var ap AggregateParameters
	if err := env.DecodeHeader(Namespace, "AggregateParameters", &ap); err != nil {
		return ap, err
	}
	return ap, nil
}

// SubscribeRequest is the Subscribe operation body. Protocols lists the
// coordination protocol URIs the subscriber's middleware stack serves; empty
// means every protocol (the pre-registry behaviour).
type SubscribeRequest struct {
	XMLName   xml.Name `xml:"urn:wsgossip:2008 Subscribe"`
	Endpoint  string   `xml:"Endpoint"`
	Role      string   `xml:"Role"`
	Protocols []string `xml:"Protocols>Protocol,omitempty"`
}

// SubscribeResponse acknowledges a Subscribe.
type SubscribeResponse struct {
	XMLName  xml.Name `xml:"urn:wsgossip:2008 SubscribeResponse"`
	Accepted bool     `xml:"Accepted"`
}

// ReplicateSubscription propagates one subscription record inside a
// distributed Coordinator.
type ReplicateSubscription struct {
	XMLName   xml.Name `xml:"urn:wsgossip:2008 ReplicateSubscription"`
	Endpoint  string   `xml:"Endpoint"`
	Role      string   `xml:"Role"`
	Protocols []string `xml:"Protocols>Protocol,omitempty"`
}

// ReplicateActivity propagates one created coordination activity inside a
// distributed Coordinator, so replicas can serve registrations for it after
// the creating coordinator fails.
type ReplicateActivity struct {
	XMLName xml.Name `xml:"urn:wsgossip:2008 ReplicateActivity"`
	// Context keeps its own XML name (the wscoor CoordinationContext
	// element), exactly as it appears in coordination headers.
	Context wscoord.CoordinationContext
}

// Announce is one child of the lazy-push IHAVE body, which holds one per
// notification of the sender's announce round: it names a notification
// without its payload; unseen receivers fetch it with Fetch.
type Announce struct {
	XMLName       xml.Name `xml:"urn:wsgossip:2008 Announce"`
	InteractionID string   `xml:"InteractionID"`
	MessageID     string   `xml:"MessageID"`
	Hops          int      `xml:"Hops"`
	Holder        string   `xml:"Holder"`
}

// Fetch is the lazy-push IWANT body: a request for an announced
// notification.
type Fetch struct {
	XMLName   xml.Name `xml:"urn:wsgossip:2008 Fetch"`
	MessageID string   `xml:"MessageID"`
	Requester string   `xml:"Requester"`
}

// PullRequest is the WS-PullGossip digest request: the puller names the
// notifications it already holds by their sums, as a Digest does; the
// responder retransmits up to Max stored notifications absent from that
// digest. Like Digest it travels on the flat-element codec (codec.go), and
// the struct serves the encoding/xml fallback and the tests.
type PullRequest struct {
	XMLName   xml.Name `xml:"urn:wsgossip:2008 PullRequest"`
	Requester string   `xml:"Requester"`
	Sums      string   `xml:"Sums"`
	Truncated bool     `xml:"Truncated,omitempty"`
	Max       int      `xml:"Max"`
}
