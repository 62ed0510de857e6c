package core

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// Tests for the byte-level gossip-header / IHAVE / IWANT codecs. The
// contract, the same as the wire scanner's: the writers are byte-identical
// to xml.Marshal; the readers agree with xml.Unmarshal on everything they
// accept and decline everything else, on which the decode falls back to
// encoding/xml and the result is what it always was.

// codecTexts covers plain text, every escaped character, invalid UTF-8,
// out-of-range runes, and the empty string.
var codecTexts = []string{
	"",
	"urn:uuid:6ba7b810-9dad-11d1-80b4-00c04fd430c8",
	`a<b>c&d"e'f`,
	"tab\there\nnewline\rreturn\r\nboth",
	"bad\xffutf8\xc3",
	"ctl\x01 \ufffe \ufffd",
	"日本語 ✓",
}

var codecHops = []int{0, 1, 7, -1, -3, 999999999, -999999999, 1 << 40}

// mustMarshal is the reference writer.
func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := xml.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestFlatCodecWritersMatchMarshal(t *testing.T) {
	for i, s := range codecTexts {
		for _, hops := range codecHops {
			other := codecTexts[(i+1)%len(codecTexts)]
			for _, protocol := range []string{"", ProtocolPullGossip, s} {
				gh := GossipHeader{InteractionID: s, MessageID: other, Hops: hops, Protocol: protocol}
				if got, want := gossipBlock(gh), mustMarshal(t, gh); got.XMLName != gossipName || !bytes.Equal(got.Raw, want) {
					t.Fatalf("gossip header %+v:\n got %s\nwant %s", gh, got.Raw, want)
				}
			}
			ann := Announce{InteractionID: s, MessageID: other, Hops: hops, Holder: s}
			if got, want := announceBlock(ann), mustMarshal(t, ann); got.XMLName != announceName || !bytes.Equal(got.Raw, want) {
				t.Fatalf("announce %+v:\n got %s\nwant %s", ann, got.Raw, want)
			}
			fetch := Fetch{MessageID: s, Requester: other}
			if got, want := fetchBlock(fetch), mustMarshal(t, fetch); got.XMLName != fetchName || !bytes.Equal(got.Raw, want) {
				t.Fatalf("fetch %+v:\n got %s\nwant %s", fetch, got.Raw, want)
			}
		}
	}
}

// checkReaders runs all three readers differentially against xml.Unmarshal
// on one block: whatever a reader accepts must decode identically, and the
// decoders with fallback must behave exactly as xml.Unmarshal alone. It
// reports whether the gossip-header reader accepted.
func checkReaders(t testing.TB, raw []byte) bool {
	t.Helper()
	var refGH GossipHeader
	errGH := xml.Unmarshal(raw, &refGH)
	f, okGH := scanGossipHeader(raw)
	if okGH && (errGH != nil || f.header() != refGH) {
		t.Fatalf("gossip reader accepted %q as %+v; encoding/xml: %+v, %v", raw, f.header(), refGH, errGH)
	}
	gh, err := decodeGossipHeader(soap.Block{XMLName: gossipName, Raw: raw})
	if (err != nil) != (errGH != nil) || (err == nil && gh != refGH) {
		t.Fatalf("decodeGossipHeader(%q) = %+v, %v; encoding/xml: %+v, %v", raw, gh, err, refGH, errGH)
	}

	env := soap.NewEnvelope()
	env.SetBodyBlock(soap.Block{Raw: raw})
	var refAnn Announce
	errAnn := xml.Unmarshal(raw, &refAnn)
	if f, ok := scanAnnounce(raw); ok && (errAnn != nil || f.announce() != refAnn) {
		t.Fatalf("announce reader accepted %q as %+v; encoding/xml: %+v, %v", raw, f.announce(), refAnn, errAnn)
	}
	if id, holder, err := announceFrom(env); (err != nil) != (errAnn != nil) ||
		(err == nil && (string(id) != refAnn.MessageID || holder != refAnn.Holder)) {
		t.Fatalf("announceFrom(%q) = %q %q, %v; encoding/xml: %+v, %v", raw, id, holder, err, refAnn, errAnn)
	}
	var refFetch Fetch
	errFetch := xml.Unmarshal(raw, &refFetch)
	if f, ok := scanFetch(raw); ok && (errFetch != nil || f.fetch() != refFetch) {
		t.Fatalf("fetch reader accepted %q as %+v; encoding/xml: %+v, %v", raw, f.fetch(), refFetch, errFetch)
	}
	if id, requester, err := fetchFrom(env); (err != nil) != (errFetch != nil) ||
		(err == nil && (string(id) != refFetch.MessageID || requester != refFetch.Requester)) {
		t.Fatalf("fetchFrom(%q) = %q %q, %v; encoding/xml: %+v, %v", raw, id, requester, err, refFetch, errFetch)
	}
	return okGH
}

// announce materializes the fields as the Announce xml.Unmarshal yields.
func (f announceFields) announce() Announce {
	return Announce{
		XMLName: announceName, InteractionID: f.interactionID.String(),
		MessageID: f.messageID.String(), Hops: f.hops, Holder: f.holder.String(),
	}
}

// fetch materializes the fields as the Fetch xml.Unmarshal yields.
func (f fetchFields) fetch() Fetch {
	return Fetch{XMLName: fetchName, MessageID: f.messageID.String(), Requester: f.requester.String()}
}

func TestFlatCodecReadersMatchUnmarshal(t *testing.T) {
	for i, s := range codecTexts {
		for _, hops := range codecHops {
			other := codecTexts[(i+1)%len(codecTexts)]
			gh := GossipHeader{InteractionID: s, MessageID: other, Hops: hops, Protocol: codecTexts[(i+2)%len(codecTexts)]}
			// Everything the writer emits is read in place, except hop
			// counts wider than the reader's nine digits.
			if ok, wide := checkReaders(t, gossipBlock(gh).Raw), hops > 999999999; ok == wide {
				t.Fatalf("gossip reader accepted=%v for %s", ok, gossipBlock(gh).Raw)
			}
			raw := announceBlock(Announce{InteractionID: s, MessageID: other, Hops: hops, Holder: s}).Raw
			checkReaders(t, raw)
			if _, ok := scanAnnounce(raw); ok == (hops > 999999999) {
				t.Fatalf("announce reader accepted=%v for %s", ok, raw)
			}
			raw = fetchBlock(Fetch{MessageID: s, Requester: other}).Raw
			checkReaders(t, raw)
			if _, ok := scanFetch(raw); !ok {
				t.Fatalf("fetch reader declined %s", raw)
			}
		}
	}
}

// nonCanonicalGossipHeaders are forms encoding/xml reads (or rejects) that
// the byte-level reader must leave to it.
var nonCanonicalGossipHeaders = map[string]string{
	"prefixed": `<g:Gossip xmlns:g="urn:wsgossip:2008"><g:InteractionID>i</g:InteractionID>` +
		`<g:MessageID>m</g:MessageID><g:Hops>3</g:Hops></g:Gossip>`,
	"reordered":          `<Gossip xmlns="urn:wsgossip:2008"><MessageID>m</MessageID><InteractionID>i</InteractionID><Hops>3</Hops></Gossip>`,
	"padded":             "<Gossip xmlns=\"urn:wsgossip:2008\">\n  <InteractionID>i</InteractionID>\n  <MessageID>m</MessageID>\n  <Hops>3</Hops>\n</Gossip>",
	"attribute":          `<Gossip xmlns="urn:wsgossip:2008" mustUnderstand="1"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>3</Hops></Gossip>`,
	"child attr":         `<Gossip xmlns="urn:wsgossip:2008"><InteractionID kind="x">i</InteractionID><MessageID>m</MessageID><Hops>3</Hops></Gossip>`,
	"comment":            `<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i<!-- c --></InteractionID><MessageID>m</MessageID><Hops>3</Hops></Gossip>`,
	"cdata":              `<Gossip xmlns="urn:wsgossip:2008"><InteractionID><![CDATA[i]]></InteractionID><MessageID>m</MessageID><Hops>3</Hops></Gossip>`,
	"duplicated":         `<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>3</Hops><Hops>4</Hops></Gossip>`,
	"self-closing child": `<Gossip xmlns="urn:wsgossip:2008"><InteractionID/><MessageID>m</MessageID><Hops>3</Hops></Gossip>`,
	"self-closing":       `<Gossip xmlns="urn:wsgossip:2008"/>`,
	"missing hops":       `<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</MessageID></Gossip>`,
	"extra child":        `<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>3</Hops><TTL>9</TTL></Gossip>`,
	"padded hops":        `<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops> 3 </Hops></Gossip>`,
	"hops not a number":  `<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>three</Hops></Gossip>`,
	"wrong namespace":    `<Gossip xmlns="urn:other"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>3</Hops></Gossip>`,
	"wrong element":      `<Gossipy xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</MessageID><Hops>3</Hops></Gossipy>`,
	"truncated":          `<Gossip xmlns="urn:wsgossip:2008"><InteractionID>i</InteractionID><MessageID>m</Mess`,
	"unknown entity":     `<Gossip xmlns="urn:wsgossip:2008"><InteractionID>&nbsp;</InteractionID><MessageID>m</MessageID><Hops>3</Hops></Gossip>`,
	"invalid utf8":       "<Gossip xmlns=\"urn:wsgossip:2008\"><InteractionID>\xff</InteractionID><MessageID>m</MessageID><Hops>3</Hops></Gossip>",
}

// TestFlatCodecDeclinesNonCanonical: each form is declined by the in-place
// reader, and GossipHeaderFrom — through the fallback — returns exactly what
// encoding/xml returns for it, error or value.
func TestFlatCodecDeclinesNonCanonical(t *testing.T) {
	for label, raw := range nonCanonicalGossipHeaders {
		if checkReaders(t, []byte(raw)) {
			t.Errorf("%s: in-place reader accepted %s", label, raw)
		}
		var want GossipHeader
		wantErr := xml.Unmarshal([]byte(raw), &want)
		env := soap.NewEnvelope()
		env.AddHeaderBlock(soap.Block{XMLName: gossipName, Raw: []byte(raw)})
		got, err := GossipHeaderFrom(env)
		if (err != nil) != (wantErr != nil) || (err == nil && got != want) {
			t.Errorf("%s: GossipHeaderFrom = %+v, %v; encoding/xml = %+v, %v", label, got, err, want, wantErr)
		}
	}
	// The same holds end to end for a foreign, prefixed notification: Decode
	// re-serializes its blocks and the header still reads.
	doc := `<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope" xmlns:g="urn:wsgossip:2008"><s:Header>` +
		`<g:Gossip><g:InteractionID>i</g:InteractionID><g:MessageID>m</g:MessageID><g:Hops>3</g:Hops></g:Gossip>` +
		`</s:Header><s:Body/></s:Envelope>`
	env, err := soap.Decode([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	gh, err := GossipHeaderFrom(env)
	if err != nil || gh.InteractionID != "i" || gh.MessageID != "m" || gh.Hops != 3 {
		t.Fatalf("prefixed notification: %+v, %v", gh, err)
	}
	if _, err := GossipHeaderFrom(soap.NewEnvelope()); err != ErrNoGossipHeader {
		t.Fatalf("no header: %v", err)
	}
}

// capturedNotification is a notification exactly as an Initiator puts it on
// the wire for target to.
func capturedNotification(t testing.TB, gh GossipHeader, to string) []byte {
	t.Helper()
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{To: to, Action: ActionNotify, MessageID: wsa.MessageID(gh.MessageID)}); err != nil {
		t.Fatal(err)
	}
	if err := SetGossipHeader(env, gh); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(quoteBody{Symbol: "ALIAS", Price: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// blockNames lists the names of env's header blocks, then its body blocks.
func blockNames(env *soap.Envelope) []xml.Name {
	var out []xml.Name
	if env.Header != nil {
		for _, b := range env.Header.Blocks {
			out = append(out, b.XMLName)
		}
	}
	for _, b := range env.Body.Blocks {
		out = append(out, b.XMLName)
	}
	return out
}

// TestGossipLayerNeverAliasesReceiveBuffer: the transport recycles a
// delivery's buffer as soon as the handler returns. Nothing the stack
// returns or retains — the interned action and block names a handler reads,
// GossipHeaderFrom's strings, the seen-set key, the deferred announcement,
// the stored clone — may still point into it. The notification goes the
// whole receive path: MemBus, Dispatcher, intercept.
func TestGossipLayerNeverAliasesReceiveBuffer(t *testing.T) {
	ctx := context.Background()
	for _, id := range []string{"urn:uuid:alias-1", `urn:uuid:needs&escaping<2>`} {
		want := GossipHeader{XMLName: gossipName, InteractionID: "urn:interaction:alias", MessageID: id, Hops: 3, Protocol: ProtocolPullGossip}
		data := capturedNotification(t, want, "mem://self")
		scribble := func() {
			for i := range data {
				data[i] = '#'
			}
		}
		fresh, err := soap.Decode(capturedNotification(t, want, "mem://self"))
		if err != nil {
			t.Fatal(err)
		}

		bus := soap.NewMemBus()
		d, err := NewDisseminator(DisseminatorConfig{
			Address: "mem://self", Caller: bus, RNG: rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		d.DeferAnnouncements()
		d.interactions[want.InteractionID] = newInteractionState(ProtocolPushGossip,
			GossipParameters{Fanout: 2, Hops: 3, Style: gossip.StyleLazyPush.String(), Targets: []string{"mem://peer"}})
		var (
			action string
			names  []xml.Name
			gh     GossipHeader
		)
		dispatcher := d.Handler()
		bus.Register("mem://self", soap.HandlerFunc(func(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
			action, names = req.Action(), blockNames(req.Envelope)
			var err error
			if gh, err = GossipHeaderFrom(req.Envelope); err != nil {
				t.Error(err)
			}
			return dispatcher.HandleSOAP(ctx, req)
		}))
		if err := bus.SendEncoded(ctx, "mem://self", data); err != nil {
			t.Fatal(err)
		}
		scribble() // the bus has recycled the buffer: its next user overwrites it

		if action != ActionNotify {
			t.Errorf("interned action changed with the buffer: %q", action)
		}
		if want := blockNames(fresh); !slices.Equal(names, want) {
			t.Errorf("interned block names changed with the buffer: %v, want %v", names, want)
		}
		if gh != want {
			t.Errorf("GossipHeaderFrom result changed with the buffer: %+v", gh)
		}
		if !d.m.Seen(id) {
			t.Errorf("seen-set key for %q changed with the buffer", id)
		}
		if len(d.pendingAnn) != 1 || d.pendingAnn[0].gh != want {
			t.Errorf("deferred announcement changed with the buffer: %+v", d.pendingAnn)
		}
		held, ok := d.m.Get([]byte(id))
		stored := held.env
		if !ok {
			t.Fatalf("store lost %q", id)
		}
		if sgh, err := GossipHeaderFrom(stored); err != nil || sgh != want {
			t.Errorf("stored envelope changed with the buffer: %+v, %v", sgh, err)
		}
		if got, want := stored.Body.Blocks[0].Raw, fresh.Body.Blocks[0].Raw; !bytes.Equal(got, want) {
			t.Errorf("stored body changed with the buffer: %s, want %s", got, want)
		}
		// A second receipt, from a fresh buffer, is still a duplicate.
		if err := bus.SendEncoded(ctx, "mem://self", capturedNotification(t, want, "mem://self")); err != nil {
			t.Fatal(err)
		}
		if stats := d.Stats(); stats.Delivered != 1 || stats.Duplicates != 1 {
			t.Errorf("stats after re-receipt = %+v", stats)
		}
	}

	// The IHAVE/IWANT bodies, likewise: the holder and requester strings,
	// and an escaped ID's unescaped copy. (A literal ID is a view by design:
	// handleIHave and handleIWant use it as a lookup key within the delivery.)
	ann := Announce{XMLName: announceName, InteractionID: "urn:i", MessageID: "urn:uuid:a&b", Hops: 2, Holder: "mem://holder"}
	fetch := Fetch{XMLName: fetchName, MessageID: "urn:uuid:a&b", Requester: "mem://requester"}
	type idPeer struct{ id, peer string }
	for _, tc := range []struct {
		block soap.Block
		check func(env *soap.Envelope) (idPeer, error)
		want  idPeer
	}{
		{announceBlock(ann), func(env *soap.Envelope) (idPeer, error) {
			id, holder, err := announceFrom(env)
			return idPeer{string(id), holder}, err
		}, idPeer{ann.MessageID, ann.Holder}},
		{fetchBlock(fetch), func(env *soap.Envelope) (idPeer, error) {
			id, requester, err := fetchFrom(env)
			return idPeer{string(id), requester}, err
		}, idPeer{fetch.MessageID, fetch.Requester}},
	} {
		out := soap.NewEnvelope()
		out.SetBodyBlock(tc.block)
		data, err := out.Encode()
		if err != nil {
			t.Fatal(err)
		}
		env, err := soap.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tc.check(env)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			data[i] = '#'
		}
		if got != tc.want {
			t.Errorf("decoded body changed with the buffer: %+v, want %+v", got, tc.want)
		}
	}
}

// FuzzGossipHeaderCodec is the differential fuzz of the byte-level codecs
// against encoding/xml, seeded from gossip headers captured off real
// notifications (and the IHAVE/IWANT bodies, which share the reader):
//
//   - whatever a reader accepts, xml.Unmarshal accepts and decodes
//     identically, and the decoders with fallback always behave exactly as
//     xml.Unmarshal alone (checkReaders);
//   - whatever encoding/xml decodes, the writer re-serializes byte for byte
//     as xml.Marshal does, and the reader reads that back.
//
// The committed corpus under testdata/fuzz/FuzzGossipHeaderCodec runs on
// every plain `go test`; CI fuzzes for 30 s next to FuzzDecodeEquivalence.
func FuzzGossipHeaderCodec(f *testing.F) {
	for i, s := range codecTexts {
		gh := GossipHeader{InteractionID: s, MessageID: codecTexts[(i+1)%len(codecTexts)], Hops: codecHops[i%len(codecHops)]}
		env, err := soap.Decode(capturedNotification(f, gh, "mem://peer"))
		if err != nil {
			f.Fatal(err)
		}
		b, ok := env.HeaderBlock(Namespace, "Gossip")
		if !ok {
			f.Fatal("captured notification without a gossip header")
		}
		f.Add(b.Raw)
		f.Add(announceBlock(Announce{InteractionID: s, MessageID: gh.MessageID, Hops: gh.Hops, Holder: s}).Raw)
		f.Add(fetchBlock(Fetch{MessageID: s, Requester: gh.MessageID}).Raw)
	}
	for _, raw := range nonCanonicalGossipHeaders {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkReaders(t, raw)
		var gh GossipHeader
		if xml.Unmarshal(raw, &gh) != nil {
			return
		}
		gh.XMLName = xml.Name{} // as callers build one
		written := gossipBlock(gh).Raw
		if want := mustMarshal(t, gh); !bytes.Equal(written, want) {
			t.Fatalf("writer for %+v:\n got %s\nwant %s", gh, written, want)
		}
		if ok, wide := checkReaders(t, written), gh.Hops > 999999999 || gh.Hops < -999999999; ok == wide {
			t.Fatalf("reader accepted=%v for its own writer's %s", ok, written)
		}
	})
}

// Digest and PullRequest, the repair and pull rounds' bodies, on the same
// contract. Their ID list is the flat codec's one list construct.

// heldStrings materializes a decoded digest's IDs as encoding/xml would.
func heldStrings(h heldIDs) []string {
	out := h.decoded
	for id, ok := h.flat.Next(); ok; id, ok = h.flat.Next() {
		out = append(out, id.String())
	}
	return out
}

func sameIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// digestIDLists are the ID lists the digest tables run over: empty (nil and
// not), one, a full digest, more than digestCap, and every awkward text.
func digestIDLists() [][]string {
	ids := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("urn:uuid:%032x", 0x9e3779b97f4a7c15*uint64(i+1))
		}
		return out
	}
	return [][]string{nil, {}, ids(1), ids(digestCap), ids(digestCap + 72), codecTexts, {"", ""}}
}

var digestMaxes = []int{0, 1, -1, -5, digestCap, digestCap + 1, 999999999, -999999999, 1 << 40}

func TestDigestCodecWritersMatchMarshal(t *testing.T) {
	for i, peer := range codecTexts {
		for _, ids := range digestIDLists() {
			dig := Digest{Sender: peer, MessageIDs: ids}
			if got, want := digestBlock(peer, ids), mustMarshal(t, dig); got.XMLName != digestName || !bytes.Equal(got.Raw, want) {
				t.Fatalf("digest %q, %d ids:\n got %.400s\nwant %.400s", peer, len(ids), got.Raw, want)
			}
			max := digestMaxes[i%len(digestMaxes)]
			pr := PullRequest{Requester: peer, MessageIDs: ids, Max: max}
			if got, want := pullRequestBlock(peer, ids, max), mustMarshal(t, pr); got.XMLName != pullName || !bytes.Equal(got.Raw, want) {
				t.Fatalf("pull request %q, %d ids, max %d:\n got %.400s\nwant %.400s", peer, len(ids), max, got.Raw, want)
			}
		}
	}
	for _, max := range digestMaxes {
		pr := PullRequest{Requester: "mem://n", MessageIDs: []string{"urn:uuid:1"}, Max: max}
		if got, want := pullRequestBlock(pr.Requester, pr.MessageIDs, max).Raw, mustMarshal(t, pr); !bytes.Equal(got, want) {
			t.Fatalf("pull request max %d:\n got %s\nwant %s", max, got, want)
		}
	}
}

// checkDigestReaders runs the Digest and PullRequest readers differentially
// against xml.Unmarshal on one block: whatever a reader accepts must decode
// identically, and the decoders with fallback must behave exactly as
// xml.Unmarshal alone. It reports which in-place readers accepted.
func checkDigestReaders(t testing.TB, raw []byte) (okDigest, okPull bool) {
	t.Helper()
	env := soap.NewEnvelope()
	env.SetBodyBlock(soap.Block{Raw: raw})

	var refDig Digest
	errDig := xml.Unmarshal(raw, &refDig)
	sender, ids, _, okDigest := scanDigest(raw, false)
	if okDigest && (errDig != nil || sender.String() != refDig.Sender || !sameIDs(heldStrings(heldIDs{flat: ids}), refDig.MessageIDs)) {
		t.Fatalf("digest reader accepted %q as %q %q; encoding/xml: %+v, %v",
			raw, sender.String(), heldStrings(heldIDs{flat: ids}), refDig, errDig)
	}
	from, held, _, err := digestFrom(env, false)
	if (err != nil) != (errDig != nil) || (err == nil && (from != refDig.Sender || !sameIDs(heldStrings(held), refDig.MessageIDs))) {
		t.Fatalf("digestFrom(%q) = %q %q, %v; encoding/xml: %+v, %v", raw, from, heldStrings(held), err, refDig, errDig)
	}

	var refPull PullRequest
	errPull := xml.Unmarshal(raw, &refPull)
	requester, ids, max, okPull := scanDigest(raw, true)
	if okPull && (errPull != nil || requester.String() != refPull.Requester || max != refPull.Max ||
		!sameIDs(heldStrings(heldIDs{flat: ids}), refPull.MessageIDs)) {
		t.Fatalf("pull reader accepted %q as %q %q max %d; encoding/xml: %+v, %v",
			raw, requester.String(), heldStrings(heldIDs{flat: ids}), max, refPull, errPull)
	}
	from, held, max, err = digestFrom(env, true)
	if (err != nil) != (errPull != nil) ||
		(err == nil && (from != refPull.Requester || max != refPull.Max || !sameIDs(heldStrings(held), refPull.MessageIDs))) {
		t.Fatalf("digestFrom(%q, pull) = %q %q max %d, %v; encoding/xml: %+v, %v",
			raw, from, heldStrings(held), max, err, refPull, errPull)
	}
	return okDigest, okPull
}

func TestDigestCodecReadersMatchUnmarshal(t *testing.T) {
	for _, peer := range codecTexts {
		for _, ids := range digestIDLists() {
			raw := digestBlock(peer, ids).Raw
			if ok, _ := checkDigestReaders(t, raw); !ok {
				t.Fatalf("digest reader declined its own writer's %.400s", raw)
			}
			for _, max := range digestMaxes {
				raw := pullRequestBlock(peer, ids, max).Raw
				// Everything the writer emits is read in place, except a Max
				// wider than the reader's nine digits.
				if _, ok := checkDigestReaders(t, raw); ok == (max > 999999999) {
					t.Fatalf("pull reader accepted=%v for %.400s", ok, raw)
				}
			}
		}
	}
}

// nonCanonicalDigests are spellings encoding/xml reads (or rejects) that the
// in-place readers must leave to it. Each is given as a Digest; the test
// also runs it respelled as a PullRequest.
var nonCanonicalDigests = map[string]string{
	"absent wrapper":      `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender></Digest>`,
	"self-closing list":   `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs/></Digest>`,
	"padded":              "<Digest xmlns=\"urn:wsgossip:2008\">\n <Sender>s</Sender>\n <MessageIDs>\n  <MessageID>a</MessageID>\n </MessageIDs>\n</Digest>",
	"space between items": `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID>a</MessageID> <MessageID>b</MessageID></MessageIDs></Digest>`,
	"wrapper attribute":   `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs n="1"><MessageID>a</MessageID></MessageIDs></Digest>`,
	"item attribute":      `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID n="1">a</MessageID></MessageIDs></Digest>`,
	"comment":             `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID>a</MessageID><!-- c --></MessageIDs></Digest>`,
	"cdata item":          `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID><![CDATA[a]]></MessageID></MessageIDs></Digest>`,
	"nested item":         `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID><X>a</X></MessageID></MessageIDs></Digest>`,
	"two wrappers":        `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID>a</MessageID></MessageIDs><MessageIDs><MessageID>b</MessageID></MessageIDs></Digest>`,
	"list first":          `<Digest xmlns="urn:wsgossip:2008"><MessageIDs><MessageID>a</MessageID></MessageIDs><Sender>s</Sender></Digest>`,
	"stray sibling":       `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID>a</MessageID></MessageIDs><TTL>1</TTL></Digest>`,
	"prefixed":            `<g:Digest xmlns:g="urn:wsgossip:2008"><g:Sender>s</g:Sender><g:MessageIDs><g:MessageID>a</g:MessageID></g:MessageIDs></g:Digest>`,
	"no sender":           `<Digest xmlns="urn:wsgossip:2008"><MessageIDs><MessageID>a</MessageID></MessageIDs></Digest>`,
	"missing item end":    `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID>a</MessageIDs></Digest>`,
	"truncated":           `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID>a</Mess`,
	"trailing bytes":      `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID>a</MessageID></MessageIDs></Digest> `,
	"wrong namespace":     `<Digest xmlns="urn:other"><Sender>s</Sender><MessageIDs><MessageID>a</MessageID></MessageIDs></Digest>`,
	"unknown entity":      `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID>&nbsp;</MessageID></MessageIDs></Digest>`,
}

// asPullRequest respells a Digest document as the PullRequest with the same
// peer and IDs and the given Max element.
func asPullRequest(digest, max string) string {
	s := strings.NewReplacer("Digest", "PullRequest", "Sender", "Requester").Replace(digest)
	if i := strings.LastIndex(s, "</"); i >= 0 && strings.HasSuffix(strings.TrimSpace(s), "PullRequest>") {
		return s[:i] + max + s[i:]
	}
	return s + max
}

// TestDigestCodecDeclinesNonCanonical: each form is declined by the in-place
// readers, and digestFrom — through the fallback — returns exactly what
// encoding/xml returns for it, error or value.
func TestDigestCodecDeclinesNonCanonical(t *testing.T) {
	for label, raw := range nonCanonicalDigests {
		if ok, _ := checkDigestReaders(t, []byte(raw)); ok {
			t.Errorf("%s: digest reader accepted %s", label, raw)
		}
		pull := asPullRequest(raw, "<Max>7</Max>")
		if _, ok := checkDigestReaders(t, []byte(pull)); ok {
			t.Errorf("%s: pull reader accepted %s", label, pull)
		}
	}
	const canonical = `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><MessageIDs><MessageID>a</MessageID></MessageIDs></Digest>`
	for label, max := range map[string]string{
		"no max": "", "padded max": "<Max> 7 </Max>", "plus max": "<Max>+7</Max>", "wide max": "<Max>1234567890</Max>",
		"empty max": "<Max></Max>", "max twice": "<Max>7</Max><Max>8</Max>", "max not a number": "<Max>many</Max>",
	} {
		pull := asPullRequest(canonical, max)
		if _, ok := checkDigestReaders(t, []byte(pull)); ok {
			t.Errorf("%s: pull reader accepted %s", label, pull)
		}
	}
	for _, max := range []string{"<Max>0</Max>", "<Max>-3</Max>", "<Max>-0</Max>", "<Max>007</Max>", "<Max>999999999</Max>"} {
		pull := asPullRequest(canonical, max)
		if _, ok := checkDigestReaders(t, []byte(pull)); !ok {
			t.Errorf("pull reader declined %s", pull)
		}
	}
}

// FuzzDigestCodec is the differential fuzz of the Digest / PullRequest
// codecs against encoding/xml:
//
//   - whenever an in-place reader accepts, the peer, the IDs and Max equal
//     xml.Unmarshal's, and the decoders with fallback always behave exactly
//     as xml.Unmarshal alone (checkDigestReaders);
//   - whatever encoding/xml decodes, the writer re-serializes byte for byte
//     as xml.Marshal does, and the reader reads that back.
//
// The committed corpus under testdata/fuzz/FuzzDigestCodec runs on every
// plain `go test`; CI fuzzes for 30 s next to FuzzGossipHeaderCodec.
func FuzzDigestCodec(f *testing.F) {
	for i, ids := range digestIDLists() {
		peer := codecTexts[i%len(codecTexts)]
		if len(ids) > 4 {
			ids = ids[:4]
		}
		f.Add(digestBlock(peer, ids).Raw)
		f.Add(pullRequestBlock(peer, ids, digestMaxes[i%len(digestMaxes)]).Raw)
	}
	for _, raw := range nonCanonicalDigests {
		f.Add([]byte(raw))
		f.Add([]byte(asPullRequest(raw, "<Max>128</Max>")))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDigestReaders(t, raw)
		var dig Digest
		if xml.Unmarshal(raw, &dig) == nil {
			written := digestBlock(dig.Sender, dig.MessageIDs).Raw
			if want := mustMarshal(t, Digest{Sender: dig.Sender, MessageIDs: dig.MessageIDs}); !bytes.Equal(written, want) {
				t.Fatalf("digest writer for %+v:\n got %s\nwant %s", dig, written, want)
			}
			if ok, _ := checkDigestReaders(t, written); !ok {
				t.Fatalf("digest reader declined its own writer's %s", written)
			}
		}
		var pr PullRequest
		if xml.Unmarshal(raw, &pr) == nil {
			written := pullRequestBlock(pr.Requester, pr.MessageIDs, pr.Max).Raw
			want := mustMarshal(t, PullRequest{Requester: pr.Requester, MessageIDs: pr.MessageIDs, Max: pr.Max})
			if !bytes.Equal(written, want) {
				t.Fatalf("pull writer for %+v:\n got %s\nwant %s", pr, written, want)
			}
			if _, ok := checkDigestReaders(t, written); ok == (pr.Max > 999999999 || pr.Max < -999999999) {
				t.Fatalf("pull reader accepted=%v for its own writer's %s", ok, written)
			}
		}
	})
}
