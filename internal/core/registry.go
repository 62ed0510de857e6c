package core

import (
	"fmt"
	"sort"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// ProtocolExtension builds the registration-response extension headers for
// one coordination protocol. It runs with the coordinator's lock held, so it
// may use the *Locked helpers for target assignment.
type ProtocolExtension func(c *Coordinator, reg wscoord.Registrant) ([]any, error)

// ProtocolRegistry maps coordination protocol URIs to their registration
// extensions. The Coordinator validates every Register call against it: a
// registration naming an unlisted protocol is answered with a Sender fault.
// This replaces the original single hard-coded WS-PushGossip check and makes
// the WS layer a protocol *family*, as the paper frames it.
type ProtocolRegistry struct {
	exts map[string]ProtocolExtension
}

// NewProtocolRegistry returns an empty registry.
func NewProtocolRegistry() *ProtocolRegistry {
	return &ProtocolRegistry{exts: make(map[string]ProtocolExtension)}
}

// Register binds a protocol URI to its extension, replacing any previous
// binding.
func (r *ProtocolRegistry) Register(uri string, ext ProtocolExtension) {
	r.exts[uri] = ext
}

// Lookup returns the extension for uri.
func (r *ProtocolRegistry) Lookup(uri string) (ProtocolExtension, bool) {
	ext, ok := r.exts[uri]
	return ext, ok
}

// URIs returns the registered protocol URIs, sorted.
func (r *ProtocolRegistry) URIs() []string {
	out := make([]string, 0, len(r.exts))
	for uri := range r.exts {
		out = append(out, uri)
	}
	sort.Strings(out)
	return out
}

// defaultRegistry returns the built-in protocol family: WS-PushGossip,
// WS-PullGossip, and aggregation.
func defaultRegistry() *ProtocolRegistry {
	r := NewProtocolRegistry()
	r.Register(ProtocolPushGossip, pushGossipExtension)
	r.Register(ProtocolPullGossip, pullGossipExtension)
	r.Register(ProtocolAggregate, aggregateExtension)
	return r
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

// unsupportedProtocolFault is the negative path of the registry check.
func unsupportedProtocolFault(uri string) *soap.Fault {
	return soap.NewFault(soap.CodeSender,
		fmt.Sprintf("unsupported coordination protocol %q", uri))
}
