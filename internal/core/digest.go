package core

import (
	"context"
	"encoding/xml"
	"maps"
	"slices"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// The digest exchange: a node periodically sends a digest of the
// notifications it holds to drawn peers, and each peer retransmits the stored
// notifications the digest does not list. Anti-entropy repair — the
// WS-level analogue of Bimodal Multicast's phase 2 — runs it as a backstop
// that closes the gaps push leaves under loss and churn; WS-PullGossip runs
// it as the primary dissemination mechanism. The two differ only in action
// and body, which interactions a round draws targets from, and counter label.

// ActionDigest is the anti-entropy digest exchange action.
const ActionDigest = Namespace + ":digest"

// Digest advertises the notifications a node holds: Sums is the base64 of
// their MessageIDs' sums (gossip.IDSum), newest first, as big-endian bytes,
// and Truncated says the sender holds more than the gossip.DigestCap it lists.
// TickRepair writes it and handleDigest reads it with the flat-element codec
// (codec.go); the struct is the encoding/xml fallback's target and the tests'
// oracle.
type Digest struct {
	XMLName   xml.Name `xml:"urn:wsgossip:2008 Digest"`
	Sender    string   `xml:"Sender"`
	Sums      string   `xml:"Sums"`
	Truncated bool     `xml:"Truncated,omitempty"`
}

// TickRepair runs one anti-entropy round: the node sends a digest of its
// stored notifications to up to fanout peers drawn from every interaction it
// participates in. Call it from a timer at the deployment's repair interval.
func (d *Disseminator) TickRepair(ctx context.Context) { d.digestRound(ctx, false) }

// TickPull runs one WS-PullGossip round: a PullRequest digest to up to
// fanout peers drawn from each pulling interaction the node participates in.
// Call it from a timer at the deployment's pull interval.
func (d *Disseminator) TickPull(ctx context.Context) { d.digestRound(ctx, true) }

// digestRound sends one round of the repair or (pull) the WS-PullGossip
// exchange: the machine's digest to the round's targets, both written into
// scratch on the stack, so a round allocates nothing.
func (d *Disseminator) digestRound(ctx context.Context, pull bool) {
	var (
		scratch [8 * gossip.DigestCap]byte
		buf     [32]string
	)
	d.mu.Lock()
	sums, truncated := d.m.Digest(scratch[:0])
	targets := d.roundTargetsLocked(buf[:0], pull)
	d.mu.Unlock()
	if len(targets) > 0 {
		d.sendDigest(ctx, pull, sums, truncated, targets)
	}
}

// sendDigest sends a digest of sums — a Digest, or with pull a PullRequest —
// to targets: one logical message, its message ID and body written straight
// into the wire buffer once and rendered per target.
func (d *Disseminator) sendDigest(ctx context.Context, pull bool, sums []byte, truncated bool, targets []string) {
	var id [wsa.MessageIDLen]byte
	m := soap.Message{
		Action: ActionDigest, ID: wsa.AppendMessageID(id[:0]),
		Name: digestName, Parts: 1, Size: digestSize(sums) + len(d.cfg.Address),
		Write: func(dst []byte, _ int) []byte { return appendDigest(dst, d.cfg.Address, sums, truncated) },
	}
	sent := d.stats.digestsSent
	if pull {
		m.Action, m.Name, sent = ActionPullRequest, pullName, d.stats.pullsSent
		m.Write = func(dst []byte, _ int) []byte {
			return appendPullRequest(dst, d.cfg.Address, sums, truncated, gossip.DigestCap)
		}
	}
	start := d.now()
	n, failed := m.Fanout(ctx, d.cfg.Caller, targets)
	sent.Add(int64(d.fanned(start, n, failed)))
}

// roundTargetsLocked appends to dst one digest round's targets: up to fanout
// peers per interaction (pulling ones only when pullOnly) from the node's one
// RNG. Interactions are drawn in key order, sorted anew only when one was
// added, and the distinct targets returned sorted, so a seed fixes the draws
// and the sends: map order decides nothing.
func (d *Disseminator) roundTargetsLocked(dst []string, pullOnly bool) []string {
	if len(d.keys) != len(d.interactions) {
		d.keys = slices.Sorted(maps.Keys(d.interactions))
	}
	for _, key := range d.keys {
		state := d.interactions[key]
		if !pullOnly || state.style.Pulls() {
			dst = append(dst, SelectTargets(dst[len(dst):], &d.live, d.cfg.Peers, d.rng, state.params.Fanout, d.cfg.Address, state.params.Targets)...)
		}
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// handleDigest answers an anti-entropy Digest.
func (d *Disseminator) handleDigest(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	return d.respond(ctx, req, false)
}

// handlePullRequest answers a WS-PullGossip PullRequest.
func (d *Disseminator) handlePullRequest(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	return d.respond(ctx, req, true)
}

// respond is the one digest responder: it retransmits to the digest's
// sender what it lacks (gossip.Machine.Missing, bounded by a PullRequest's
// Max). The sums are decoded, and the missing slots collected, into scratch
// on the stack, so a digest allocates nothing of its own.
func (d *Disseminator) respond(ctx context.Context, req *soap.Request, pull bool) (*soap.Envelope, error) {
	body, peerless, served := "Digest", "digest without sender", d.stats.repaired
	if pull {
		body, peerless, served = "PullRequest", "pull request without requester", d.stats.pullServed
	}
	var scratch [gossip.DigestCap]uint64
	peer, held, max, err := digestFrom(req.Envelope, pull, &scratch)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed "+body+": "+err.Error())
	}
	if peer == "" {
		return nil, soap.NewFault(soap.CodeSender, peerless)
	}
	var slots [gossip.DigestCap]*stored
	d.mu.Lock()
	missing := d.m.Missing(slots[:0], held.sums, held.truncated, max)
	pin(missing, 1)
	d.mu.Unlock()
	d.retransmit(ctx, peer, missing, served)
	return nil, nil
}
