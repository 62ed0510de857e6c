package core

import (
	"context"
	"encoding/xml"
	"slices"

	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// Anti-entropy repair: disseminators periodically exchange digests of the
// notifications they hold and retransmit what peers are missing. This is the
// WS-level analogue of Bimodal Multicast's phase 2 and of the engine's pull
// styles — it closes the gaps that one-shot push dissemination leaves under
// loss and churn.

// ActionDigest is the anti-entropy digest exchange action.
const ActionDigest = Namespace + ":digest"

// digestCap bounds the message IDs advertised per digest and the envelopes
// retransmitted per exchange.
const digestCap = 128

// Digest advertises the notifications a node holds. TickRepair writes it and
// handleDigest reads it with the flat-element codec (codec.go); the struct is
// the encoding/xml fallback's target and the tests' oracle.
type Digest struct {
	XMLName    xml.Name `xml:"urn:wsgossip:2008 Digest"`
	Sender     string   `xml:"Sender"`
	MessageIDs []string `xml:"MessageIDs>MessageID"`
}

// TickRepair runs one anti-entropy round: the node sends a digest of its
// stored notifications to up to fanout peers drawn from every interaction it
// participates in. Peers answer by retransmitting notifications absent from
// the digest. Call it from a timer at the deployment's repair interval.
func (d *Disseminator) TickRepair(ctx context.Context) {
	d.mu.Lock()
	ids := d.storedIDsLocked(digestCap)
	targets := d.roundTargetsLocked(false)
	d.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	env, err := digestEnvelope(ActionDigest, digestBlock(d.cfg.Address, ids))
	if err != nil {
		d.stats.sendErrors.Add(int64(len(targets)))
		return
	}
	d.stats.digestsSent.Add(int64(d.fanout(ctx, env, targets)))
}

// digestEnvelope builds a round's digest message — a repair Digest or a
// PullRequest — around its prebuilt body. It is one logical message: the
// addressing omits To, and the fan-out serializes it once and renders a copy
// per target (encode-once wire path).
func digestEnvelope(action string, body soap.Block) (*soap.Envelope, error) {
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		Action:    action,
		MessageID: wsa.NewMessageID(),
	}); err != nil {
		return nil, err
	}
	env.SetBodyBlock(body)
	return env, nil
}

// roundTargetsLocked collects one digest round's targets: up to fanout
// peers per interaction (pull-style ones only when pullOnly), each sampled
// from the node's one RNG. Interactions are visited in sorted key order and
// the distinct targets returned sorted, so a seed fixes both the draws and
// the send sequence — map order decides nothing.
func (d *Disseminator) roundTargetsLocked(pullOnly bool) []string {
	keys := make([]string, 0, len(d.interactions))
	for key, state := range d.interactions {
		if !pullOnly || state.pull() {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	var targets []string
	for _, key := range keys {
		state := d.interactions[key]
		targets = append(targets, d.sampleTargetsLocked(state.params.Fanout, state.params.Targets)...)
	}
	slices.Sort(targets)
	return slices.Compact(targets)
}

// storedIDsLocked lists up to n stored notification IDs, newest first.
func (d *Disseminator) storedIDsLocked(n int) []string {
	if n <= 0 {
		return nil
	}
	if n > d.store.Len() {
		n = d.store.Len()
	}
	ids := make([]string, n)
	for k := range ids {
		ids[k] = d.store.nth(k).id
	}
	return ids
}

// handleDigest retransmits stored notifications the digest's sender lacks.
// Retransmissions consume one hop, like any other transfer, so repaired
// receivers can still contribute to the epidemic if budget remains.
func (d *Disseminator) handleDigest(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	sender, held, err := digestFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Digest: "+err.Error())
	}
	if sender == "" {
		return nil, soap.NewFault(soap.CodeSender, "digest without sender")
	}
	repaired := d.retransmitMissing(ctx, sender, held, digestCap)
	d.stats.repaired.Add(repaired)
	if repaired > 0 {
		d.bumpActivity()
	}
	return nil, nil
}
