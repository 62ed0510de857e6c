package core

import (
	"encoding/xml"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
)

// Byte-level codecs for the blocks the gossip layer reads or writes on every
// hop and every round — the gossip header, the lazy-push IHAVE/IWANT bodies,
// the repair and pull digests — on soap's flat-element codec. Each writer is
// byte-identical to xml.Marshal of the struct; each reader accepts only that
// canonical form and otherwise reports false, on which the caller decodes the
// block with encoding/xml (TestFlatCodec*, TestDigestCodec*,
// FuzzGossipHeaderCodec and FuzzDigestCodec pin both halves).

var (
	gossipName   = xml.Name{Space: Namespace, Local: "Gossip"}
	announceName = xml.Name{Space: Namespace, Local: "Announce"}
	fetchName    = xml.Name{Space: Namespace, Local: "Fetch"}
	digestName   = xml.Name{Space: Namespace, Local: "Digest"}
	pullName     = xml.Name{Space: Namespace, Local: "PullRequest"}
)

// flatOverhead bounds the markup of one flat block of up to five children
// with the element names used here; the writers size their buffer with it
// plus the text lengths, and append covers escaped text.
const flatOverhead = 160

// gossipBlock writes gh as a header block.
func gossipBlock(gh GossipHeader) soap.Block {
	buf := make([]byte, 0, flatOverhead+len(gh.InteractionID)+len(gh.MessageID)+len(gh.Protocol))
	buf = soap.AppendFlatOpen(buf, Namespace, "Gossip")
	buf = soap.AppendFlatText(buf, "InteractionID", gh.InteractionID)
	buf = soap.AppendFlatText(buf, "MessageID", gh.MessageID)
	buf = soap.AppendFlatInt(buf, "Hops", int64(gh.Hops))
	if gh.Protocol != "" {
		buf = soap.AppendFlatText(buf, "Protocol", gh.Protocol)
	}
	buf = soap.AppendFlatClose(buf, "Gossip")
	return soap.Block{XMLName: gossipName, Raw: buf}
}

// gossipFields is a canonical gossip header read in place: the text fields
// are views of the block's (still escaped) bytes, which alias the
// transport's receive buffer and must not outlive the delivery. header
// materializes them.
type gossipFields struct {
	interactionID, messageID, protocol soap.FlatText
	hops                               int
}

// scanGossipHeader reads a canonical gossip header block without allocating.
func scanGossipHeader(raw []byte) (f gossipFields, ok bool) {
	r, ok := soap.OpenFlat(raw, Namespace, "Gossip")
	if !ok {
		return f, false
	}
	if f.interactionID, ok = r.Text("InteractionID"); !ok {
		return f, false
	}
	if f.messageID, ok = r.Text("MessageID"); !ok {
		return f, false
	}
	if f.hops, ok = r.Int("Hops"); !ok {
		return f, false
	}
	f.protocol, _ = r.Text("Protocol") // omitted when empty
	return f, r.Close("Gossip")
}

// header materializes the fields as a GossipHeader, exactly what
// xml.Unmarshal of the block yields. The MessageID and the InteractionID are
// fresh copies: one is minted per notification, the other per coordination
// context, so interning either would fill the table with values that stop
// recurring. The protocol is one of the few the stack defines and resolves
// through the intern table.
func (f gossipFields) header() GossipHeader {
	return f.headerWithID(f.messageID.String())
}

// headerWithID is header with the MessageID supplied by a caller that
// already holds it as a string.
func (f gossipFields) headerWithID(id string) GossipHeader {
	return GossipHeader{
		XMLName:       gossipName,
		InteractionID: f.interactionID.String(),
		MessageID:     id,
		Hops:          f.hops,
		Protocol:      f.protocol.Symbol(),
	}
}

// decodeGossipHeader decodes a gossip header block: the canonical form in
// place, anything else through encoding/xml.
func decodeGossipHeader(b soap.Block) (GossipHeader, error) {
	if f, ok := scanGossipHeader(b.Raw); ok {
		return f.header(), nil
	}
	var gh GossipHeader
	err := b.Decode(&gh)
	return gh, err
}

// heldHeader reads the gossip header of a notification the store holds
// under id, for a retransmission. A canonical header takes its MessageID
// from id — the string the store already holds, which the header's equals
// since the store is keyed by it — so nothing is copied for it; any other
// spelling decodes through encoding/xml.
func heldHeader(id string, env *soap.Envelope) (GossipHeader, error) {
	b, ok := env.HeaderBlock(Namespace, "Gossip")
	if !ok {
		return GossipHeader{}, ErrNoGossipHeader
	}
	if f, ok := scanGossipHeader(b.Raw); ok {
		return f.headerWithID(id), nil
	}
	return decodeGossipHeader(b)
}

// announceBlock writes a as a body block.
func announceBlock(a Announce) soap.Block {
	buf := make([]byte, 0, flatOverhead+len(a.InteractionID)+len(a.MessageID)+len(a.Holder))
	buf = soap.AppendFlatOpen(buf, Namespace, "Announce")
	buf = soap.AppendFlatText(buf, "InteractionID", a.InteractionID)
	buf = soap.AppendFlatText(buf, "MessageID", a.MessageID)
	buf = soap.AppendFlatInt(buf, "Hops", int64(a.Hops))
	buf = soap.AppendFlatText(buf, "Holder", a.Holder)
	buf = soap.AppendFlatClose(buf, "Announce")
	return soap.Block{XMLName: announceName, Raw: buf}
}

// announceFields is a canonical Announce body read in place, views of the
// receive buffer like gossipFields.
type announceFields struct {
	interactionID, messageID, holder soap.FlatText
	hops                             int
}

// scanAnnounce reads a canonical Announce body block without allocating.
func scanAnnounce(raw []byte) (f announceFields, ok bool) {
	r, ok := soap.OpenFlat(raw, Namespace, "Announce")
	if !ok {
		return f, false
	}
	if f.interactionID, ok = r.Text("InteractionID"); !ok {
		return f, false
	}
	if f.messageID, ok = r.Text("MessageID"); !ok {
		return f, false
	}
	if f.hops, ok = r.Int("Hops"); !ok {
		return f, false
	}
	if f.holder, ok = r.Text("Holder"); !ok {
		return f, false
	}
	return f, r.Close("Announce")
}

// announceFrom decodes the Announce body of env into what handleIHave acts
// on: the announced MessageID as lookup bytes, and the holder, interned. Of
// a canonical body the ID is read in place (see soap.FlatText.Key), a view
// that must not outlive the delivery; anything else decodes through
// encoding/xml.
func announceFrom(env *soap.Envelope) (id []byte, holder string, err error) {
	if len(env.Body.Blocks) > 0 {
		if f, ok := scanAnnounce(env.Body.Blocks[0].Raw); ok {
			return f.messageID.Key(), f.holder.Symbol(), nil
		}
	}
	var a Announce
	err = env.DecodeBody(&a)
	return []byte(a.MessageID), a.Holder, err
}

// fetchBlock writes f as a body block.
func fetchBlock(f Fetch) soap.Block {
	buf := make([]byte, 0, flatOverhead+len(f.MessageID)+len(f.Requester))
	buf = soap.AppendFlatOpen(buf, Namespace, "Fetch")
	buf = soap.AppendFlatText(buf, "MessageID", f.MessageID)
	buf = soap.AppendFlatText(buf, "Requester", f.Requester)
	buf = soap.AppendFlatClose(buf, "Fetch")
	return soap.Block{XMLName: fetchName, Raw: buf}
}

// fetchFields is a canonical Fetch body read in place.
type fetchFields struct {
	messageID, requester soap.FlatText
}

// scanFetch reads a canonical Fetch body block without allocating.
func scanFetch(raw []byte) (f fetchFields, ok bool) {
	r, ok := soap.OpenFlat(raw, Namespace, "Fetch")
	if !ok {
		return f, false
	}
	if f.messageID, ok = r.Text("MessageID"); !ok {
		return f, false
	}
	if f.requester, ok = r.Text("Requester"); !ok {
		return f, false
	}
	return f, r.Close("Fetch")
}

// fetchFrom decodes the Fetch body of env like announceFrom: the requested
// MessageID as lookup bytes, and the requester, interned.
func fetchFrom(env *soap.Envelope) (id []byte, requester string, err error) {
	if len(env.Body.Blocks) > 0 {
		if f, ok := scanFetch(env.Body.Blocks[0].Raw); ok {
			return f.messageID.Key(), f.requester.Symbol(), nil
		}
	}
	var f Fetch
	err = env.DecodeBody(&f)
	return []byte(f.MessageID), f.Requester, err
}

// digestSize sizes the buffer of a digest body listing ids.
func digestSize(peer string, ids []string) int {
	n := flatOverhead + len(peer) + len(ids)*len("<MessageID></MessageID>")
	for _, id := range ids {
		n += len(id)
	}
	return n
}

// digestBlock writes the anti-entropy Digest body.
func digestBlock(sender string, ids []string) soap.Block {
	buf := make([]byte, 0, digestSize(sender, ids))
	buf = soap.AppendFlatOpen(buf, Namespace, "Digest")
	buf = soap.AppendFlatText(buf, "Sender", sender)
	buf = soap.AppendFlatList(buf, "MessageIDs", "MessageID", ids)
	buf = soap.AppendFlatClose(buf, "Digest")
	return soap.Block{XMLName: digestName, Raw: buf}
}

// pullRequestBlock writes the WS-PullGossip PullRequest body.
func pullRequestBlock(requester string, ids []string, max int) soap.Block {
	buf := make([]byte, 0, digestSize(requester, ids))
	buf = soap.AppendFlatOpen(buf, Namespace, "PullRequest")
	buf = soap.AppendFlatText(buf, "Requester", requester)
	buf = soap.AppendFlatList(buf, "MessageIDs", "MessageID", ids)
	buf = soap.AppendFlatInt(buf, "Max", int64(max))
	buf = soap.AppendFlatClose(buf, "PullRequest")
	return soap.Block{XMLName: pullName, Raw: buf}
}

// heldIDs is the ID list of a received digest as the responder consumes it:
// the canonical body's items in place — views of the receive buffer, which
// must not outlive the delivery — or the strings encoding/xml decoded from
// any other spelling.
type heldIDs struct {
	flat    soap.FlatList
	decoded []string
}

// list hands every listed ID to the machine as the digest's. An escaped ID is
// unescaped first, as encoding/xml would have.
func (h heldIDs) list(m *gossip.Machine[heldNotification]) {
	for id, ok := h.flat.Next(); ok; id, ok = h.flat.Next() {
		m.Listed(id.Key())
	}
	for _, id := range h.decoded {
		m.Listed([]byte(id))
	}
}

// scanDigest reads a canonical digest body block in place: a Digest, or with
// pull a PullRequest, which names its peer Requester and carries a Max.
func scanDigest(raw []byte, pull bool) (peer soap.FlatText, ids soap.FlatList, max int, ok bool) {
	root, peerName := "Digest", "Sender"
	if pull {
		root, peerName = "PullRequest", "Requester"
	}
	r, ok := soap.OpenFlat(raw, Namespace, root)
	if !ok {
		return nil, ids, 0, false
	}
	if peer, ok = r.Text(peerName); !ok {
		return nil, ids, 0, false
	}
	if ids, ok = r.List("MessageIDs", "MessageID"); !ok {
		return nil, ids, 0, false
	}
	if pull {
		if max, ok = r.Int("Max"); !ok {
			return nil, ids, 0, false
		}
	}
	return peer, ids, max, r.Close(root)
}

// digestFrom decodes the digest body of env — a Digest, or with pull a
// PullRequest; the canonical form in place, anything else through
// encoding/xml — into the peer to answer (interned: a peer sends a digest
// every round), the IDs it holds and, of a PullRequest, its Max.
func digestFrom(env *soap.Envelope, pull bool) (peer string, held heldIDs, max int, err error) {
	if len(env.Body.Blocks) > 0 {
		if peer, ids, max, ok := scanDigest(env.Body.Blocks[0].Raw, pull); ok {
			return peer.Symbol(), heldIDs{flat: ids}, max, nil
		}
	}
	if pull {
		var pr PullRequest
		err = env.DecodeBody(&pr)
		return pr.Requester, heldIDs{decoded: pr.MessageIDs}, pr.Max, err
	}
	var dig Digest
	err = env.DecodeBody(&dig)
	return dig.Sender, heldIDs{decoded: dig.MessageIDs}, 0, err
}
