package core

import (
	"fmt"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// protocolExtension builds the registration-response extension headers for
// one coordination protocol. It runs with the coordinator's lock held, so it
// may use the *Locked helpers for target assignment.
type protocolExtension func(c *Coordinator, reg wscoord.Registrant) ([]any, error)

// protocolExtensions is the protocol family the Coordinator serves — WS-PushGossip,
// WS-PullGossip and aggregation — each URI with its registration extension.
// The Coordinator validates every Register call against it: a registration
// naming an unlisted protocol is answered with a Sender fault. This replaces
// the original single hard-coded WS-PushGossip check and makes the WS layer a
// protocol *family*, as the paper frames it.
var protocolExtensions = map[string]protocolExtension{
	ProtocolPushGossip: pushGossipExtension,
	ProtocolPullGossip: pullGossipExtension,
	ProtocolAggregate:  aggregateExtension,
}

// pushGossipExtension configures a WS-PushGossip registrant: (f, r) from the
// parameter policy plus peer targets, in the configured eager or lazy style.
func pushGossipExtension(c *Coordinator, reg wscoord.Registrant) ([]any, error) {
	fanout, hops, targets := c.assignLocked(ProtocolPushGossip, reg.Service)
	style := c.cfg.Style
	if style == 0 {
		style = gossip.StylePush
	}
	return []any{GossipParameters{
		Fanout:  fanout,
		Hops:    hops,
		Style:   style.String(),
		Targets: targets,
	}}, nil
}

// pullGossipExtension configures a WS-PullGossip registrant: the same (f, r)
// sizing, but style pull — the node never forwards eagerly; it spreads and
// repairs through periodic PullRequest digests to its targets.
func pullGossipExtension(c *Coordinator, reg wscoord.Registrant) ([]any, error) {
	fanout, hops, targets := c.assignLocked(ProtocolPullGossip, reg.Service)
	return []any{GossipParameters{
		Fanout:  fanout,
		Hops:    hops,
		Style:   gossip.StylePull.String(),
		Targets: targets,
	}}, nil
}

// aggregateExtension configures an aggregation registrant: exchange fanout,
// the start flood's hop budget, and targets.
func aggregateExtension(c *Coordinator, reg wscoord.Registrant) ([]any, error) {
	fanout, hops, targets := c.assignLocked(ProtocolAggregate, reg.Service)
	return []any{AggregateParameters{
		Fanout:  fanout,
		Hops:    hops,
		Targets: targets,
	}}, nil
}

// unsupportedProtocolFault is the negative path of the protocol table check.
func unsupportedProtocolFault(uri string) *soap.Fault {
	return soap.NewFault(soap.CodeSender,
		fmt.Sprintf("unsupported coordination protocol %q", uri))
}
