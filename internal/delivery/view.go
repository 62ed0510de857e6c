package delivery

import (
	"math/rand"

	"wsgossip/internal/gossip"
)

// FilterView wraps a peer provider so sampling demotes unhealthy peers:
// addresses whose circuit is open (and not yet due for a probe) are
// excluded before the draw, steering gossip fan-out toward peers that can
// actually receive it. A circuit due for its half-open probe counts as
// healthy again, so regular traffic performs the probe and a recovered
// peer rejoins the overlay without a dedicated pinger. Deferred
// (overloaded-but-alive) peers stay eligible — their queue absorbs the
// pacing.
func (p *Plane) FilterView(inner gossip.PeerProvider) gossip.PeerProvider {
	return &filteredView{plane: p, inner: inner}
}

type filteredView struct {
	plane *Plane
	inner gossip.PeerProvider
}

var _ gossip.PeerProvider = (*filteredView)(nil)

// SelectPeers draws up to n healthy peers: the inner provider's full
// eligible set, minus open circuits, re-sampled uniformly.
func (v *filteredView) SelectPeers(rng *rand.Rand, n int, exclude string) []string {
	return v.AppendPeers(nil, rng, n, exclude)
}

// peerAppender is a provider that draws into a caller's buffer, as
// membership.Service does.
type peerAppender interface {
	AppendPeers(dst []string, rng *rand.Rand, n int, exclude string) []string
}

// AppendPeers is SelectPeers appending its draw to dst, with the same draws
// from rng: the inner provider's whole shuffled set is staged in dst, and
// filtered and re-sampled there in place, so an inner provider that appends
// (membership.Service) makes the draw cost at most one growth of dst.
func (v *filteredView) AppendPeers(dst []string, rng *rand.Rand, n int, exclude string) []string {
	base := len(dst)
	if a, ok := v.inner.(peerAppender); ok {
		dst = a.AppendPeers(dst, rng, -1, exclude)
	} else {
		dst = append(dst, v.inner.SelectPeers(rng, -1, exclude)...)
	}
	// The machine's open-circuit rule, which a circuit due for its probe
	// passes.
	p := v.plane
	healthy := dst[:base]
	p.mu.Lock()
	now := p.cfg.Clock.Now()
	for _, addr := range dst[base:] {
		if p.mach.admits(addr, now) {
			healthy = append(healthy, addr)
		}
	}
	p.mu.Unlock()
	return gossip.AppendSample(dst[:base], rng, healthy[base:], n, "")
}
