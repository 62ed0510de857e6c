package core

import (
	"math/rand"

	"wsgossip/internal/gossip"
)

// PeerView supplies gossip fan-out targets at sample time.
//
// The paper's Coordinator hands each registrant a frozen target list with
// its gossip parameters ("peers for each gossip round", Section 3). That is
// the right interface for a managed deployment, but it cannot follow churn:
// a node that joins after the registration is invisible, a node that leaves
// keeps absorbing sends. A PeerView closes the gap — the Disseminator, the
// aggregation Service, and the Initiator consult it every time they sample
// targets, so the fan-out always reflects the current overlay.
//
// Implementations: membership.Service (the live, gossip-maintained view —
// the WS-Membership deployment of reference [10]) and gossip.StaticPeers
// (a fixed set). It is gossip.PeerProvider under the framework layer's name,
// so the framework's callers need not go through the engine package.
type PeerView = gossip.PeerProvider

// SelectTargets draws up to n fan-out targets: from the live view when one
// is installed and currently non-empty, otherwise from the static
// coordinator-assigned list. The fallback rule keeps a node functional
// through the membership bootstrap window (an empty view must not silence
// the node when the Coordinator already assigned it peers) and makes the
// static list the exact zero-churn behaviour: with view == nil the call is
// byte-for-byte the pre-PeerView sampling, drawing identically from rng.
//
// The draw is made in scratch's room, so a buffer on the caller's stack with
// room for it costs nothing. A view that appends (membership.Service, the
// delivery plane's filtered view) draws into live instead, a buffer its
// caller keeps across draws, and the draw is copied into scratch: scratch
// handed to the view through the interface would escape to the heap. A view
// without AppendPeers, or a nil live, draws a slice of its own. Either way
// the view draws from rng exactly as SelectPeers does.
func SelectTargets(scratch []string, live *[]string, view PeerView, rng *rand.Rand, n int, exclude string, static []string) []string {
	var picked []string
	if a, ok := view.(peerAppender); ok && live != nil {
		*live = a.AppendPeers((*live)[:0], rng, n, exclude)
		picked = append(scratch[:0], *live...)
	} else if view != nil {
		picked = view.SelectPeers(rng, n, exclude)
	}
	if len(picked) > 0 {
		return picked
	}
	return gossip.AppendSample(scratch[:0], rng, static, n, exclude)
}

// peerAppender is a PeerView that draws into a caller's buffer.
type peerAppender interface {
	AppendPeers(dst []string, rng *rand.Rand, n int, exclude string) []string
}
