package gossip

import (
	"math/rand"
	"slices"
)

// PeerProvider supplies gossip targets. In WS-Gossip the Coordinator's
// Registration service plays this role ("capable of providing adequate
// parameter configurations and peers for each gossip round", Section 3);
// in fully decentralized deployments the membership service does.
type PeerProvider interface {
	// SelectPeers returns up to n distinct peer addresses, excluding the
	// given address (normally the selecting node itself). n < 0 requests
	// all known peers. The rng makes selection reproducible.
	SelectPeers(rng *rand.Rand, n int, exclude string) []string
}

// StaticPeers is a fixed peer set, useful for tests and for disseminators
// that received an explicit target list from the Coordinator.
type StaticPeers struct {
	addrs []string
}

var _ PeerProvider = (*StaticPeers)(nil)

// NewStaticPeers copies addrs into a provider.
func NewStaticPeers(addrs []string) *StaticPeers {
	cp := make([]string, len(addrs))
	copy(cp, addrs)
	return &StaticPeers{addrs: cp}
}

// Addrs returns a copy of the peer set.
func (p *StaticPeers) Addrs() []string {
	cp := make([]string, len(p.addrs))
	copy(cp, p.addrs)
	return cp
}

// Len returns the peer-set size.
func (p *StaticPeers) Len() int { return len(p.addrs) }

// SelectPeers draws up to n distinct peers uniformly without replacement.
func (p *StaticPeers) SelectPeers(rng *rand.Rand, n int, exclude string) []string {
	return SamplePeers(rng, p.addrs, n, exclude)
}

// UniformPeers is a fixed peer set sampled without copying. StaticPeers
// materializes an eligible-list copy per selection — fine when peer sets are
// small, but at simulation scale (10^5..10^6 addresses, one selection per
// forward) that is megabytes copied per message and dominates the run.
// UniformPeers rejection-samples indices instead: O(fanout) per call, no
// allocation beyond the result. Its draw sequence differs from StaticPeers,
// so swapping providers changes seeded runs — it is for new harnesses, not a
// drop-in replacement where byte-identical output matters.
type UniformPeers struct {
	addrs []string
}

var _ PeerProvider = (*UniformPeers)(nil)

// NewUniformPeers copies addrs into a provider.
func NewUniformPeers(addrs []string) *UniformPeers {
	cp := make([]string, len(addrs))
	copy(cp, addrs)
	return &UniformPeers{addrs: cp}
}

// Len returns the peer-set size.
func (p *UniformPeers) Len() int { return len(p.addrs) }

// SelectPeers draws up to n distinct peers uniformly without replacement by
// index rejection. When n asks for a large share of the set (or all of it,
// n < 0) it falls back to the shuffle-based sampler, where rejection would
// thrash. No O(len) work happens on the fast path — not even an
// eligibility count, which is why this scales where StaticPeers does not.
func (p *UniformPeers) SelectPeers(rng *rand.Rand, n int, exclude string) []string {
	if n < 0 || n*4 >= len(p.addrs) {
		return SamplePeers(rng, p.addrs, n, exclude)
	}
	if n == 0 {
		return nil
	}
	return p.AppendPeers(make([]string, 0, n), rng, n, exclude)
}

// AppendPeers is SelectPeers appending its draw to dst, with the same draws
// from rng: a caller drawing into a buffer on its stack allocates nothing
// while the draw fits in it.
func (p *UniformPeers) AppendPeers(dst []string, rng *rand.Rand, n int, exclude string) []string {
	if n < 0 || n*4 >= len(p.addrs) {
		return AppendSample(dst, rng, p.addrs, n, exclude)
	}
	// n*4 < len(addrs), so n distinct non-excluded picks always exist and
	// each draw succeeds with probability > 1/2.
	base := len(dst)
draw:
	for len(dst)-base < n {
		a := p.addrs[rng.Intn(len(p.addrs))]
		if a == exclude {
			continue
		}
		for _, picked := range dst[base:] {
			if picked == a {
				continue draw
			}
		}
		dst = append(dst, a)
	}
	return dst
}

// SamplePeers draws up to n distinct addresses from addrs excluding exclude,
// uniformly without replacement, via a partial Fisher-Yates shuffle. n < 0
// returns all eligible addresses in shuffled order. addrs is not modified.
func SamplePeers(rng *rand.Rand, addrs []string, n int, exclude string) []string {
	return AppendSample(nil, rng, addrs, n, exclude)
}

// AppendSample is SamplePeers appending its draw to dst, with the same draws
// from rng. The eligible addresses are staged in dst past its length, so a
// dst with room for all of them allocates nothing, and any other grows once.
// addrs may be that very room, dst[len(dst):len(dst)+len(addrs)]: each
// address is staged at or before where it is read from, so the sample is
// drawn in place.
func AppendSample(dst []string, rng *rand.Rand, addrs []string, n int, exclude string) []string {
	dst = slices.Grow(dst, len(addrs))
	base := len(dst)
	for _, a := range addrs {
		if a != exclude {
			dst = append(dst, a)
		}
	}
	eligible := dst[base:]
	if n < 0 || n > len(eligible) {
		n = len(eligible)
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(eligible)-i)
		eligible[i], eligible[j] = eligible[j], eligible[i]
	}
	return dst[:base+n]
}
