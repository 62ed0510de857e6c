package core

import (
	"encoding/xml"

	"wsgossip/internal/soap"
)

// Byte-level codecs for the three blocks the gossip layer reads or writes on
// every hop — the gossip header and the lazy-push IHAVE/IWANT bodies — on
// soap's flat-element codec. Each writer is byte-identical to xml.Marshal of
// the struct; each reader accepts only that canonical form and otherwise
// reports false, on which the caller decodes the block with encoding/xml
// (TestFlatCodec*, FuzzGossipHeaderCodec pin both halves).

var (
	gossipName   = xml.Name{Space: Namespace, Local: "Gossip"}
	announceName = xml.Name{Space: Namespace, Local: "Announce"}
	fetchName    = xml.Name{Space: Namespace, Local: "Fetch"}
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
// copies them out.
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

// header materializes the fields as a GossipHeader whose strings are fresh
// copies, exactly what xml.Unmarshal of the block yields.
func (f gossipFields) header() GossipHeader {
	return GossipHeader{
		XMLName:       gossipName,
		InteractionID: f.interactionID.String(),
		MessageID:     f.messageID.String(),
		Hops:          f.hops,
		Protocol:      f.protocol.String(),
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

// scanAnnounce reads a canonical Announce body block.
func scanAnnounce(raw []byte) (a Announce, ok bool) {
	r, ok := soap.OpenFlat(raw, Namespace, "Announce")
	if !ok {
		return a, false
	}
	a.XMLName = announceName
	if a.InteractionID, ok = r.String("InteractionID"); !ok {
		return a, false
	}
	if a.MessageID, ok = r.String("MessageID"); !ok {
		return a, false
	}
	if a.Hops, ok = r.Int("Hops"); !ok {
		return a, false
	}
	if a.Holder, ok = r.String("Holder"); !ok {
		return a, false
	}
	return a, r.Close("Announce")
}

// announceFrom decodes the Announce body of env: the canonical form in
// place, anything else through encoding/xml.
func announceFrom(env *soap.Envelope) (Announce, error) {
	if len(env.Body.Blocks) > 0 {
		if a, ok := scanAnnounce(env.Body.Blocks[0].Raw); ok {
			return a, nil
		}
	}
	var a Announce
	err := env.DecodeBody(&a)
	return a, err
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

// scanFetch reads a canonical Fetch body block.
func scanFetch(raw []byte) (f Fetch, ok bool) {
	r, ok := soap.OpenFlat(raw, Namespace, "Fetch")
	if !ok {
		return f, false
	}
	f.XMLName = fetchName
	if f.MessageID, ok = r.String("MessageID"); !ok {
		return f, false
	}
	if f.Requester, ok = r.String("Requester"); !ok {
		return f, false
	}
	return f, r.Close("Fetch")
}

// fetchFrom decodes the Fetch body of env: the canonical form in place,
// anything else through encoding/xml.
func fetchFrom(env *soap.Envelope) (Fetch, error) {
	if len(env.Body.Blocks) > 0 {
		if f, ok := scanFetch(env.Body.Blocks[0].Raw); ok {
			return f, nil
		}
	}
	var f Fetch
	err := env.DecodeBody(&f)
	return f, err
}
