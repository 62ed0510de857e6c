package core

import (
	"context"
	"encoding/xml"

	"wsgossip/internal/soap"
)

// A Disseminator elides the coordination context on a copy to a peer it has
// handed the context before (interactionState.given), and names itself in
// the gossip header's From instead. A peer that does not hold the
// interaction all the same — its first copy lost on a binding that reported
// it sent, its registration failed, or the node restarted at the same address
// — delivers the bare copy and answers its sender with one refusal, a one-way
// message like every other the gossip layer sends: on a request-response
// binding a fault would come back only to a sender that waits for it, which a
// delivery plane that queues does not, and would count against the peer in
// the plane's breaker. The sender forgets the peer as given, so its next copy
// carries the context.

// ActionRefuse is the action of a refusal.
const ActionRefuse = Namespace + ":refuse"

// Refusal is a refusal's body: the interaction whose bare copy the peer
// received without holding it, and the peer, spelled as the copy's wsa:To
// spelled it, which is how the copy's sender knows it. The Disseminator writes
// and reads it with the flat-element codec; the struct is the encoding/xml
// fallback's target and the tests' oracle.
type Refusal struct {
	XMLName       xml.Name `xml:"urn:wsgossip:2008 Refuse"`
	InteractionID string   `xml:"InteractionID"`
	Peer          string   `xml:"Peer"`
}

var refuseName = xml.Name{Space: Namespace, Local: "Refuse"}

// appendRefusal writes a Refuse body block to dst.
func appendRefusal[T string | []byte](dst []byte, interactionID, peer T) []byte {
	dst = soap.AppendFlatOpen(dst, Namespace, "Refuse")
	dst = soap.AppendFlatText(dst, "InteractionID", interactionID)
	dst = soap.AppendFlatText(dst, "Peer", peer)
	return soap.AppendFlatClose(dst, "Refuse")
}

// refusalFrom decodes the Refuse body of env: the canonical form in place,
// its fields views of the receive buffer (copied only to unescape), anything
// else through encoding/xml.
func refusalFrom(env *soap.Envelope) (interaction, peer []byte, err error) {
	if len(env.Body.Blocks) > 0 {
		if r, ok := soap.OpenFlat(env.Body.Blocks[0].Raw, Namespace, "Refuse"); ok {
			id, okID := r.Text("InteractionID")
			p, okPeer := r.Text("Peer")
			if okID && okPeer && r.Close("Refuse") {
				return id.Key(), p.Key(), nil
			}
		}
	}
	var ref Refusal
	if err = env.DecodeBody(&ref); err != nil {
		return nil, nil, err
	}
	return []byte(ref.InteractionID), []byte(ref.Peer), nil
}

// refuse answers a copy of env's notification of interaction, which the node
// does not hold, with one refusal to from, the sender a bare copy names. A
// copy that names none (one carrying the context) is not refused, and
// neither is one whose refusal could be no smaller than itself: the refusal
// repeats the copy's InteractionID, its From (as wsa:To) and its wsa:To (as
// Peer), so each must be text the writer spells exactly as the value reads,
// and it carries no MessageID, Hops or payload. A forged From therefore
// costs the named peer at most one refusal per copy, smaller than the copy.
func (d *Disseminator) refuse(ctx context.Context, env *soap.Envelope, interaction, from []byte) {
	if len(from) == 0 {
		return
	}
	to := env.Addressing().To
	if to == "" || !plain(interaction) || !plain(from) || !plain(to) {
		return
	}
	m := soap.Message{
		Action: ActionRefuse, Name: refuseName, Parts: 1,
		Size:  flatOverhead + len(interaction) + len(to),
		Write: func(dst []byte, _ int) []byte { return appendRefusal(dst, string(interaction), to) },
	}
	if m.Send(ctx, d.cfg.Caller, string(from)) == nil {
		d.stats.refused.Inc()
	}
}

// plain reports whether the writer spells s as s.
func plain[T string | []byte](s T) bool {
	var buf [256]byte
	return len(soap.AppendEscaped(buf[:0], s)) == len(s)
}

// handleRefuse takes a peer's refusal: the peer leaves the interaction's
// given peers, so the next copy to it carries the context. A refusal of an
// interaction the node does not hold, or naming a peer it never gave the
// context, changes nothing; a forged one costs the peer one copy with the
// context it did not need.
func (d *Disseminator) handleRefuse(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	interaction, peer, err := refusalFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed Refuse: "+err.Error())
	}
	d.stats.refusals.Inc()
	d.mu.Lock()
	if state := d.interactions[string(interaction)]; state != nil {
		delete(state.given, string(peer))
	}
	d.mu.Unlock()
	return nil, nil
}
