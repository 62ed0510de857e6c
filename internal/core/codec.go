package core

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"errors"
	"strconv"

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

// gossipBlock writes a gossip header block.
func gossipBlock(interactionID string, hops int, protocol, from string) soap.Block {
	buf := make([]byte, 0, flatOverhead+len(interactionID)+len(protocol)+len(from))
	return soap.Block{XMLName: gossipName, Raw: appendGossipBlock(buf, interactionID, hops, protocol, from)}
}

// appendGossipBlock writes gossipBlock's bytes to dst: xml.Marshal of a
// GossipHeader with no MessageID. The notification's MessageID is its
// wsa:MessageID, which every notify carries, so the gossip header does not
// repeat it; from names the sender on a copy without the coordination
// context (a bare copy), and is empty on any other.
func appendGossipBlock(dst []byte, interactionID string, hops int, protocol, from string) []byte {
	dst = soap.AppendFlatOpen(dst, Namespace, "Gossip")
	dst = soap.AppendFlatText(dst, "InteractionID", interactionID)
	dst = soap.AppendFlatInt(dst, "Hops", int64(hops))
	if protocol != "" {
		dst = soap.AppendFlatText(dst, "Protocol", protocol)
	}
	if from != "" {
		dst = soap.AppendFlatText(dst, "From", from)
	}
	return soap.AppendFlatClose(dst, "Gossip")
}

// gossipFields is a canonical gossip header read in place: the text fields
// are views of the block's (still escaped) bytes, which alias the
// transport's receive buffer and must not outlive the delivery. header
// materializes them. messageID is set only on a header of the older form,
// which repeated wsa:MessageID.
type gossipFields struct {
	interactionID, messageID, protocol, from soap.FlatText
	hops                                     int
}

// scanGossipHeader reads a canonical gossip header block without allocating:
// the current form, and the older one with a MessageID child.
func scanGossipHeader(raw []byte) (f gossipFields, ok bool) {
	r, ok := soap.OpenFlat(raw, Namespace, "Gossip")
	if !ok {
		return f, false
	}
	if f.interactionID, ok = r.Text("InteractionID"); !ok {
		return f, false
	}
	f.messageID, _ = r.Text("MessageID") // written by older senders only
	if f.hops, ok = r.Int("Hops"); !ok {
		return f, false
	}
	f.protocol, _ = r.Text("Protocol") // omitted when empty
	f.from, _ = r.Text("From")         // on a bare copy only
	return f, r.Close("Gossip")
}

// header materializes the fields as a GossipHeader, exactly what
// xml.Unmarshal of the block yields. The MessageID and the InteractionID are
// fresh copies: one is minted per notification, the other per coordination
// context, so interning either would fill the table with values that stop
// recurring. The protocol and the sender are among the few values a
// deployment bounds and resolve through the intern table.
func (f gossipFields) header() GossipHeader {
	return GossipHeader{
		XMLName:       gossipName,
		InteractionID: f.interactionID.String(),
		MessageID:     f.messageID.String(),
		Hops:          f.hops,
		Protocol:      f.protocol.Symbol(),
		From:          f.from.Symbol(),
	}
}

// notice is a notification's gossip header as the gossip layer forwards or
// serves it: the MessageID as bytes — a view of the header it was read from,
// the received one (dying with the delivery) or a stored copy's — so a
// transfer writes it without building a string. The InteractionID comes
// from the interaction state at the point of writing.
type notice struct {
	messageID []byte
	hops      int
	protocol  string
}

// Rejections of a gossip header's content are fixed values.
var errNoMessageID = errors.New("core: gossip header without a MessageID")

// readNotice reads the gossip header block b of env into the InteractionID
// to look the interaction up with, the notice to act on, and the sender a
// bare copy names (empty on any other): the canonical form in place, its IDs
// views of the block (copied only to unescape), anything else through
// encoding/xml. The MessageID is env's wsa:MessageID, read in place too, or
// on a header of the older form the copy it carries.
func readNotice(env *soap.Envelope, b soap.Block) (interaction []byte, n notice, from []byte, err error) {
	var id []byte
	if f, ok := scanGossipHeader(b.Raw); ok {
		interaction, id, from = f.interactionID.Key(), f.messageID.Key(), f.from.Key()
		n = notice{hops: f.hops, protocol: f.protocol.Symbol()}
	} else {
		var gh GossipHeader
		if err = b.Decode(&gh); err != nil {
			return nil, n, nil, err
		}
		interaction, id, from = []byte(gh.InteractionID), []byte(gh.MessageID), []byte(gh.From)
		n = notice{hops: gh.Hops, protocol: gh.Protocol}
	}
	if len(id) == 0 {
		if id = env.MessageIDKey(); len(id) == 0 {
			return nil, n, nil, errNoMessageID
		}
	}
	n.messageID = id
	return interaction, n, from, nil
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

// appendAnnounce writes an Announce body block to dst; the MessageID is a
// string, or the bytes of a header read in place.
func appendAnnounce[ID string | []byte](dst []byte, interactionID string, messageID ID, hops int, holder string) []byte {
	dst = soap.AppendFlatOpen(dst, Namespace, "Announce")
	dst = soap.AppendFlatText(dst, "InteractionID", interactionID)
	dst = soap.AppendFlatText(dst, "MessageID", messageID)
	dst = soap.AppendFlatInt(dst, "Hops", int64(hops))
	dst = soap.AppendFlatText(dst, "Holder", holder)
	return soap.AppendFlatClose(dst, "Announce")
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

// Rejections of an IHAVE's shape are fixed values, like a digest's.
var errAnnounceHolders = errors.New("IHAVE names more than one holder")

// announcesFrom decodes the Announce children of env's body into what
// handleIHave acts on: the announced MessageIDs as lookup bytes, appended to
// dst in body order, and the holder they name, interned. Of a canonical
// child the ID is read in place (see soap.FlatText.Key), a view that must
// not outlive the delivery; any other child decodes through encoding/xml.
// An IHAVE's notifications are all held by one peer, whom the IWANTs go to:
// any other body, like an empty one or a malformed child, is an error, and
// nothing of it is returned. How many an IHAVE may list is the machine's to
// decide (gossip.Machine.IHave); only the first gossip.DigestCap+1 children
// are read, enough for it to refuse more.
func announcesFrom(env *soap.Envelope, dst [][]byte) (ids [][]byte, holder string, err error) {
	blocks := env.Body.Blocks
	if len(blocks) == 0 {
		return nil, "", soap.ErrEmptyBody
	}
	blocks = blocks[:min(len(blocks), gossip.DigestCap+1)]
	var first []byte // the first child's holder, as lookup bytes
	for i := range blocks {
		id, by, err := readAnnounce(blocks[i], i == 0)
		if err != nil {
			return nil, "", err
		}
		if i == 0 {
			first, holder = by.key, by.name
		} else if !bytes.Equal(by.key, first) {
			return nil, "", errAnnounceHolders
		}
		dst = append(dst, id)
	}
	return dst, holder, nil
}

// announceHolder is an Announce child's Holder: as lookup bytes, and, when
// asked for, as the interned string an IWANT is sent to.
type announceHolder struct {
	key  []byte
	name string
}

// readAnnounce reads one Announce child: the canonical form in place,
// anything else through encoding/xml. The holder is interned only with
// name.
func readAnnounce(b soap.Block, name bool) (id []byte, holder announceHolder, err error) {
	if f, ok := scanAnnounce(b.Raw); ok {
		holder.key = f.holder.Key()
		if name {
			holder.name = f.holder.Symbol()
		}
		return f.messageID.Key(), holder, nil
	}
	var a Announce
	if err = b.Decode(&a); err != nil {
		return nil, holder, err
	}
	return []byte(a.MessageID), announceHolder{[]byte(a.Holder), a.Holder}, nil
}

// appendFetch writes a Fetch body block to dst; the MessageID is a string or
// bytes, as appendAnnounce's.
func appendFetch[ID string | []byte](dst []byte, messageID ID, requester string) []byte {
	dst = soap.AppendFlatOpen(dst, Namespace, "Fetch")
	dst = soap.AppendFlatText(dst, "MessageID", messageID)
	dst = soap.AppendFlatText(dst, "Requester", requester)
	return soap.AppendFlatClose(dst, "Fetch")
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

// A digest lists each held notification as the sum of its MessageID
// (gossip.IDSum): the sums, newest first, as big-endian bytes, base64-encoded
// in one <Sums> text element: 1,368 characters for 128 sums. A digest that
// lists fewer notifications than its sender holds carries
// <Truncated>true</Truncated> after the sums.

// appendDigest writes the anti-entropy Digest body to dst: sums is the
// big-endian list, truncated whether the sender holds more than it lists.
func appendDigest(dst []byte, sender string, sums []byte, truncated bool) []byte {
	dst = soap.AppendFlatOpen(dst, Namespace, "Digest")
	dst = soap.AppendFlatText(dst, "Sender", sender)
	dst = appendSums(dst, sums, truncated)
	return soap.AppendFlatClose(dst, "Digest")
}

// appendPullRequest writes the WS-PullGossip PullRequest body to dst.
func appendPullRequest(dst []byte, requester string, sums []byte, truncated bool, max int) []byte {
	dst = soap.AppendFlatOpen(dst, Namespace, "PullRequest")
	dst = soap.AppendFlatText(dst, "Requester", requester)
	dst = appendSums(dst, sums, truncated)
	dst = soap.AppendFlatInt(dst, "Max", int64(max))
	return soap.AppendFlatClose(dst, "PullRequest")
}

// digestSize is what a digest body listing sums takes besides its peer's
// address, which sizes the wire buffer it is written into.
func digestSize(sums []byte) int {
	return flatOverhead + base64.StdEncoding.EncodedLen(len(sums))
}

// appendSums writes the <Sums> child and, for a truncated digest, the
// <Truncated> one. Base64 text needs no escaping.
func appendSums(dst, sums []byte, truncated bool) []byte {
	dst = soap.AppendFlatStart(dst, "Sums")
	dst = base64.StdEncoding.AppendEncode(dst, sums)
	dst = soap.AppendFlatClose(dst, "Sums")
	if truncated {
		dst = soap.AppendFlatBool(dst, "Truncated", true)
	}
	return dst
}

// heldSums is a received digest as the responder consumes it: the sums it
// lists, newest first, decoded into the responder's scratch, and whether its
// sender holds more than it lists.
type heldSums struct {
	sums      []uint64
	truncated bool
}

// Rejections of a <Sums> text's framing are fixed values, like the sums'
// own (gossip.ParseSums): a bad digest costs the responder nothing to refuse.
var (
	errSumsBase64 = errors.New("Sums is not base64")
	errSumsLong   = errors.New("Sums is longer than " + strconv.Itoa(gossip.DigestCap) + " sums encode to")
)

// decodeSums decodes a <Sums> text into scratch: at most gossip.DigestCap sums, or
// an error. The text is padded base64 with zero trailing bits, as the writer
// spells it; the line breaks base64 decoders skip are refused too, so the
// text's length bounds the bytes it decodes to. gossip.ParseSums reads those.
func decodeSums(scratch *[gossip.DigestCap]uint64, text []byte) ([]uint64, error) {
	if bytes.ContainsAny(text, "\r\n") {
		return nil, errSumsBase64
	}
	if len(text) > base64.StdEncoding.EncodedLen(8*gossip.DigestCap) {
		return nil, errSumsLong
	}
	var raw [8*gossip.DigestCap + 2]byte // room for the 2 bytes past 1,024 that 1,368 characters can hold
	n, err := base64.StdEncoding.Strict().Decode(raw[:], text)
	if err != nil {
		return nil, errSumsBase64
	}
	return gossip.ParseSums(scratch, raw[:n])
}

// scanDigest reads a canonical digest body block in place: a Digest, or with
// pull a PullRequest, which names its peer Requester and carries a Max.
func scanDigest(raw []byte, pull bool) (peer, sums soap.FlatText, truncated bool, max int, ok bool) {
	root, peerName := "Digest", "Sender"
	if pull {
		root, peerName = "PullRequest", "Requester"
	}
	r, ok := soap.OpenFlat(raw, Namespace, root)
	if !ok {
		return nil, nil, false, 0, false
	}
	if peer, ok = r.Text(peerName); !ok {
		return nil, nil, false, 0, false
	}
	if sums, ok = r.Text("Sums"); !ok {
		return nil, nil, false, 0, false
	}
	truncated, _ = r.Bool("Truncated") // omitted when false
	if pull {
		if max, ok = r.Int("Max"); !ok {
			return nil, nil, false, 0, false
		}
	}
	return peer, sums, truncated, max, r.Close(root)
}

// digestFrom decodes the digest body of env — a Digest, or with pull a
// PullRequest; the canonical form in place, anything else through
// encoding/xml — into the peer to answer (interned: a peer sends a digest
// every round), the sums it lists, decoded into scratch, and, of a
// PullRequest, its Max.
func digestFrom(env *soap.Envelope, pull bool, scratch *[gossip.DigestCap]uint64) (peer string, held heldSums, max int, err error) {
	if len(env.Body.Blocks) > 0 {
		if peer, sums, truncated, max, ok := scanDigest(env.Body.Blocks[0].Raw, pull); ok {
			held.sums, err = decodeSums(scratch, sums.Key())
			held.truncated = truncated
			return peer.Symbol(), held, max, err
		}
	}
	var sums string
	if pull {
		var pr PullRequest
		if err = env.DecodeBody(&pr); err != nil {
			return "", held, 0, err
		}
		peer, sums, held.truncated, max = pr.Requester, pr.Sums, pr.Truncated, pr.Max
	} else {
		var dig Digest
		if err = env.DecodeBody(&dig); err != nil {
			return "", held, 0, err
		}
		peer, sums, held.truncated = dig.Sender, dig.Sums, dig.Truncated
	}
	held.sums, err = decodeSums(scratch, []byte(sums))
	return peer, held, max, err
}
