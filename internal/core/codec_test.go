package core

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/xml"
	"errors"
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
				// A copy with its context, and a bare one naming its sender.
				for _, from := range []string{"", other} {
					gh := GossipHeader{InteractionID: s, Hops: hops, Protocol: protocol, From: from}
					want := mustMarshal(t, gh)
					if got := headerBlock(gh); got.XMLName != gossipName || !bytes.Equal(got.Raw, want) {
						t.Fatalf("gossip header %+v:\n got %s\nwant %s", gh, got.Raw, want)
					}
				}
			}
			ann := Announce{InteractionID: s, MessageID: other, Hops: hops, Holder: s}
			want := mustMarshal(t, ann)
			for _, got := range []soap.Block{announceOf(ann), announceBlock(s, []byte(other), hops, s)} {
				if got.XMLName != announceName || !bytes.Equal(got.Raw, want) {
					t.Fatalf("announce %+v:\n got %s\nwant %s", ann, got.Raw, want)
				}
			}
			fetch := Fetch{MessageID: s, Requester: other}
			want = mustMarshal(t, fetch)
			for _, got := range []soap.Block{fetchOf(fetch), fetchBlock([]byte(s), other)} {
				if got.XMLName != fetchName || !bytes.Equal(got.Raw, want) {
					t.Fatalf("fetch %+v:\n got %s\nwant %s", fetch, got.Raw, want)
				}
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
	if ids, holder, err := announcesFrom(env, nil); (err != nil) != (errAnn != nil) ||
		(err == nil && (len(ids) != 1 || string(ids[0]) != refAnn.MessageID || holder != refAnn.Holder)) {
		t.Fatalf("announcesFrom(%q) = %q %q, %v; encoding/xml: %+v, %v", raw, ids, holder, err, refAnn, errAnn)
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
			gh := GossipHeader{InteractionID: s, Hops: hops, Protocol: codecTexts[(i+2)%len(codecTexts)], From: other}
			old := gh
			old.MessageID = other
			// Everything the writer emits is read in place, and so is the
			// older form that repeated the MessageID, except hop counts wider
			// than the reader's nine digits.
			for _, raw := range [][]byte{headerBlock(gh).Raw, mustMarshal(t, old)} {
				if ok, wide := checkReaders(t, raw), hops > 999999999; ok == wide {
					t.Fatalf("gossip reader accepted=%v for %s", ok, raw)
				}
			}
			raw := announceOf(Announce{InteractionID: s, MessageID: other, Hops: hops, Holder: s}).Raw
			checkReaders(t, raw)
			if _, ok := scanAnnounce(raw); ok == (hops > 999999999) {
				t.Fatalf("announce reader accepted=%v for %s", ok, raw)
			}
			raw = fetchOf(Fetch{MessageID: s, Requester: other}).Raw
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

// announced lists what a round's IHAVEs announce, in send order, as
// "interaction ID hops".
func announced(r *gossip.Round) (out []string) {
	if r == nil {
		return nil
	}
	for _, list := range r.IHaves {
		for _, a := range list {
			out = append(out, fmt.Sprint(a.Group, " ", string(a.ID), " ", a.Hops))
		}
	}
	return out
}

// TestGossipLayerNeverAliasesReceiveBuffer: the transport recycles a
// delivery's buffer as soon as the handler returns. Nothing the stack
// returns or retains — the interned action and block names a handler reads,
// GossipHeaderFrom's strings, the seen cache's entry, the deferred announcement,
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
		d.interactions[want.InteractionID] = newInteractionState(want.InteractionID, ProtocolPushGossip,
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
		if !d.m.Seen(gossip.IDSum(id)) {
			t.Errorf("seen cache lost %q once the buffer changed", id)
		}
		round := d.m.AnnounceRound(d.drawLocked, false)
		if got, want := announced(round), []string{fmt.Sprint(want.InteractionID, " ", id, " ", want.Hops-1)}; !slices.Equal(got, want) {
			t.Errorf("deferred announcement changed with the buffer: %q, want %q", got, want)
		}
		if round != nil {
			d.m.Done(round)
		}
		held, ok := d.m.Get(gossip.IDSum(id))
		if !ok {
			t.Fatalf("store lost %q", id)
		}
		stored := held.Envelope()
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
		{announceOf(ann), func(env *soap.Envelope) (idPeer, error) {
			ids, holder, err := announcesFrom(env, nil)
			if err != nil {
				return idPeer{}, err
			}
			return idPeer{string(ids[0]), holder}, nil
		}, idPeer{ann.MessageID, ann.Holder}},
		{fetchOf(fetch), func(env *soap.Envelope) (idPeer, error) {
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
		f.Add(mustMarshal(f, gh)) // the older form, which repeated the MessageID
		gh.From = "mem://sender"
		f.Add(headerBlock(gh).Raw) // a bare copy's
		f.Add(announceOf(Announce{InteractionID: s, MessageID: gh.MessageID, Hops: gh.Hops, Holder: s}).Raw)
		f.Add(fetchOf(Fetch{MessageID: s, Requester: gh.MessageID}).Raw)
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
		gh.MessageID = ""       // the writer leaves it to wsa:MessageID
		written := headerBlock(gh).Raw
		if want := mustMarshal(t, gh); !bytes.Equal(written, want) {
			t.Fatalf("writer for %+v:\n got %s\nwant %s", gh, written, want)
		}
		if ok, wide := checkReaders(t, written), gh.Hops > 999999999 || gh.Hops < -999999999; ok == wide {
			t.Fatalf("reader accepted=%v for its own writer's %s", ok, written)
		}
	})
}

// FuzzAnnounceCodec holds the IHAVE reader to encoding/xml on bodies of
// several children: n children alternating between two fuzzed ones. Each
// child must read as xml.Unmarshal reads it — the flat reader in place when
// it accepts the child, encoding/xml otherwise. announcesFrom reads the first
// gossip.DigestCap+1 children and refuses the body exactly when one of them
// does not decode or they name different holders. handleIHave refuses that
// body and one of more than gossip.DigestCap children (gossip.Machine.IHave)
// with a Sender fault and sends no IWANT, and otherwise sends one IWANT per
// distinct announced notification.
func FuzzAnnounceCodec(f *testing.F) {
	for i, s := range codecTexts {
		other := codecTexts[(i+1)%len(codecTexts)]
		one := announceOf(Announce{InteractionID: s, MessageID: other, Hops: codecHops[i%len(codecHops)], Holder: "mem://holder"}).Raw
		two := announceOf(Announce{InteractionID: other, MessageID: s, Hops: codecHops[(i+1)%len(codecHops)], Holder: "mem://holder"}).Raw
		f.Add(one, two, uint8(2))
		f.Add(one, one, uint8(1))
	}
	canonical := announceOf(Announce{InteractionID: "i", MessageID: "m", Hops: 3, Holder: "h"}).Raw
	f.Add(canonical, []byte(`<Announce xmlns="urn:wsgossip:2008"><Holder>h</Holder><MessageID>n</MessageID><InteractionID>i</InteractionID><Hops>3</Hops></Announce>`), uint8(3))
	f.Add(canonical, announceOf(Announce{InteractionID: "i", MessageID: "n", Hops: 3, Holder: "other"}).Raw, uint8(2))
	f.Add(canonical, []byte(`<Announce xmlns="urn:wsgossip:2008"><Hops>x</Hops></Announce>`), uint8(2))
	f.Add(canonical, canonical, uint8(gossip.DigestCap))
	f.Add(canonical, announceOf(Announce{InteractionID: "i", MessageID: "n", Hops: 3, Holder: "h"}).Raw, uint8(gossip.DigestCap+1))
	f.Fuzz(func(t *testing.T, one, two []byte, n uint8) {
		n = max(n, 1)
		env := soap.NewEnvelope()
		refs := make([]Announce, n)
		refused, tooMany := false, int(n) > gossip.DigestCap
		for i := range int(n) {
			raw := one
			if i%2 == 1 {
				raw = two
			}
			env.Body.Blocks = append(env.Body.Blocks, soap.Block{XMLName: announceName, Raw: raw})
			if (xml.Unmarshal(raw, &refs[i]) != nil || refs[i].Holder != refs[0].Holder) && i <= gossip.DigestCap {
				refused = true
			}
			if fields, ok := scanAnnounce(raw); ok && fields.announce() != refs[i] {
				t.Fatalf("announce reader accepted %q as %+v; encoding/xml: %+v", raw, fields.announce(), refs[i])
			}
		}
		ids, holder, err := announcesFrom(env, nil)
		if (err != nil) != refused {
			t.Fatalf("announcesFrom of %d children = %v, want refused %v", n, err, refused)
		}
		distinct := map[uint64]bool{}
		if !refused {
			if want := min(int(n), gossip.DigestCap+1); len(ids) != want || holder != refs[0].Holder {
				t.Fatalf("announcesFrom = %d IDs by %q, want %d by %q", len(ids), holder, want, refs[0].Holder)
			}
			for i, id := range ids {
				if string(id) != refs[i].MessageID {
					t.Fatalf("child %d announces %q; encoding/xml: %q", i, id, refs[i].MessageID)
				}
				if !tooMany {
					distinct[gossip.IDSum(id)] = true
				}
			}
		}
		rec := &wireRecorder{}
		d, err := NewDisseminator(DisseminatorConfig{Address: "mem://self", Caller: rec})
		if err != nil {
			t.Fatal(err)
		}
		_, err = d.handleIHave(context.Background(), &soap.Request{Envelope: env})
		var fault *soap.Fault
		if (refused || tooMany) != (errors.As(err, &fault) && fault.Code.Value == soap.CodeSender) || len(rec.msgs) != len(distinct) {
			t.Fatalf("handleIHave = %v with %d IWANTs; want refused %v, %d IWANTs", err, len(rec.msgs), refused || tooMany, len(distinct))
		}
	})
}

// Digest and PullRequest, the repair and pull rounds' bodies, on the same
// contract. Their <Sums> text is then decoded by decodeSums, which
// sumsOracle holds to an independent reading of the rule.

// sumsOf is the <Sums> payload of a digest listing ids, newest first: each
// ID's sum as eight big-endian bytes.
func sumsOf(ids ...string) []byte {
	var out []byte
	for _, id := range ids {
		out = binary.BigEndian.AppendUint64(out, gossip.IDSum(id))
	}
	return out
}

// testIDs returns n distinct MessageIDs.
func testIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("urn:uuid:%032x", 0x9e3779b97f4a7c15*uint64(i+1))
	}
	return out
}

// digestSumLists are the sum lists the digest tables run over: empty (nil
// and not), one, a full digest, all-zero and all-one sums, and the sums of
// every awkward text.
func digestSumLists() [][]byte {
	return [][]byte{nil, {}, sumsOf("urn:uuid:a"), sumsOf(testIDs(gossip.DigestCap)...),
		make([]byte, 16), bytes.Repeat([]byte{0xff}, 24), sumsOf(codecTexts...)}
}

var digestMaxes = []int{0, 1, -1, -5, gossip.DigestCap, gossip.DigestCap + 1, 999999999, -999999999, 1 << 40}

// sumsOracle reads a <Sums> text by the rule stated on the wire: padded
// base64 with no line breaks and zero trailing bits, whose bytes are a whole
// number of 8-byte big-endian sums, at most gossip.DigestCap of them.
func sumsOracle(text string) ([]uint64, bool) {
	if strings.ContainsAny(text, "\r\n") {
		return nil, false
	}
	raw, err := base64.StdEncoding.Strict().DecodeString(text)
	if err != nil || len(raw)%8 != 0 || len(raw)/8 > gossip.DigestCap {
		return nil, false
	}
	sums := make([]uint64, len(raw)/8)
	for i := range sums {
		sums[i] = binary.BigEndian.Uint64(raw[8*i:])
	}
	return sums, true
}

func TestDigestCodecWritersMatchMarshal(t *testing.T) {
	for i, peer := range codecTexts {
		for _, sums := range digestSumLists() {
			for _, truncated := range []bool{false, true} {
				text := base64.StdEncoding.EncodeToString(sums)
				dig := Digest{Sender: peer, Sums: text, Truncated: truncated}
				if got, want := digestBlock(peer, sums, truncated), mustMarshal(t, dig); got.XMLName != digestName || !bytes.Equal(got.Raw, want) {
					t.Fatalf("digest %q, %d sums:\n got %.400s\nwant %.400s", peer, len(sums)/8, got.Raw, want)
				}
				max := digestMaxes[i%len(digestMaxes)]
				pr := PullRequest{Requester: peer, Sums: text, Truncated: truncated, Max: max}
				if got, want := pullRequestBlock(peer, sums, truncated, max), mustMarshal(t, pr); got.XMLName != pullName || !bytes.Equal(got.Raw, want) {
					t.Fatalf("pull request %q, %d sums, max %d:\n got %.400s\nwant %.400s", peer, len(sums)/8, max, got.Raw, want)
				}
			}
		}
	}
	for _, max := range digestMaxes {
		pr := PullRequest{Requester: "mem://n", Sums: base64.StdEncoding.EncodeToString(sumsOf("urn:uuid:1")), Max: max}
		if got, want := pullRequestBlock(pr.Requester, sumsOf("urn:uuid:1"), false, max).Raw, mustMarshal(t, pr); !bytes.Equal(got, want) {
			t.Fatalf("pull request max %d:\n got %s\nwant %s", max, got, want)
		}
	}
}

// TestDigestBodyOfAFullStoreIsSmall: a 128-sum Digest body, as a node with a
// full store writes it, stays under 1,500 bytes (it was ~8,800 while it
// listed 128 <MessageID> elements).
func TestDigestBodyOfAFullStoreIsSmall(t *testing.T) {
	body := digestBlock("http://127.0.0.1:18072/", sumsOf(testIDs(gossip.DigestCap)...), false).Raw
	if len(body) > 1500 {
		t.Fatalf("a %d-sum digest body is %d bytes, want ≤ 1,500", gossip.DigestCap, len(body))
	}
	t.Logf("a %d-sum digest body is %d bytes", gossip.DigestCap, len(body))
}

// checkDigestReaders runs the Digest and PullRequest readers differentially
// against xml.Unmarshal on one block: whatever a reader accepts must decode
// identically, and the decoders with fallback must behave exactly as
// xml.Unmarshal followed by sumsOracle. It reports which in-place readers
// accepted.
func checkDigestReaders(t testing.TB, raw []byte) (okDigest, okPull bool) {
	t.Helper()
	env := soap.NewEnvelope()
	env.SetBodyBlock(soap.Block{Raw: raw})
	var scratch [gossip.DigestCap]uint64

	var refDig Digest
	errDig := xml.Unmarshal(raw, &refDig)
	sender, sums, truncated, _, okDigest := scanDigest(raw, false)
	if okDigest && (errDig != nil || sender.String() != refDig.Sender || sums.String() != refDig.Sums || truncated != refDig.Truncated) {
		t.Fatalf("digest reader accepted %q as %q %q %v; encoding/xml: %+v, %v",
			raw, sender.String(), sums.String(), truncated, refDig, errDig)
	}
	wantSums, sumsOK := sumsOracle(refDig.Sums)
	from, held, _, err := digestFrom(env, false, &scratch)
	if (err == nil) != (errDig == nil && sumsOK) ||
		(err == nil && (from != refDig.Sender || !slices.Equal(held.sums, wantSums) || held.truncated != refDig.Truncated)) {
		t.Fatalf("digestFrom(%q) = %q %x %v, %v; encoding/xml: %+v, %v; sums %x, %v",
			raw, from, held.sums, held.truncated, err, refDig, errDig, wantSums, sumsOK)
	}

	var refPull PullRequest
	errPull := xml.Unmarshal(raw, &refPull)
	requester, sums, truncated, max, okPull := scanDigest(raw, true)
	if okPull && (errPull != nil || requester.String() != refPull.Requester || sums.String() != refPull.Sums ||
		truncated != refPull.Truncated || max != refPull.Max) {
		t.Fatalf("pull reader accepted %q as %q %q %v max %d; encoding/xml: %+v, %v",
			raw, requester.String(), sums.String(), truncated, max, refPull, errPull)
	}
	wantSums, sumsOK = sumsOracle(refPull.Sums)
	from, held, max, err = digestFrom(env, true, &scratch)
	if (err == nil) != (errPull == nil && sumsOK) ||
		(err == nil && (from != refPull.Requester || max != refPull.Max || !slices.Equal(held.sums, wantSums) || held.truncated != refPull.Truncated)) {
		t.Fatalf("digestFrom(%q, pull) = %q %x %v max %d, %v; encoding/xml: %+v, %v; sums %x, %v",
			raw, from, held.sums, held.truncated, max, err, refPull, errPull, wantSums, sumsOK)
	}
	return okDigest, okPull
}

func TestDigestCodecReadersMatchUnmarshal(t *testing.T) {
	for _, peer := range codecTexts {
		for _, sums := range digestSumLists() {
			for _, truncated := range []bool{false, true} {
				raw := digestBlock(peer, sums, truncated).Raw
				if ok, _ := checkDigestReaders(t, raw); !ok {
					t.Fatalf("digest reader declined its own writer's %.400s", raw)
				}
				for _, max := range digestMaxes {
					raw := pullRequestBlock(peer, sums, truncated, max).Raw
					// Everything the writer emits is read in place, except a Max
					// wider than the reader's nine digits.
					if _, ok := checkDigestReaders(t, raw); ok == (max > 999999999) {
						t.Fatalf("pull reader accepted=%v for %.400s", ok, raw)
					}
				}
			}
		}
	}
}

// nonCanonicalDigests are spellings encoding/xml reads (or rejects) that the
// in-place readers must leave to it. Each is given as a Digest; the test
// also runs it respelled as a PullRequest. AAAAAAAAAAA= is one zero sum.
var nonCanonicalDigests = map[string]string{
	"absent sums":          `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender></Digest>`,
	"self-closing sums":    `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums/></Digest>`,
	"padded":               "<Digest xmlns=\"urn:wsgossip:2008\">\n <Sender>s</Sender>\n <Sums>AAAAAAAAAAA=</Sums>\n</Digest>",
	"sums attribute":       `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums n="1">AAAAAAAAAAA=</Sums></Digest>`,
	"comment in sums":      `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAA<!-- c -->AAA=</Sums></Digest>`,
	"cdata sums":           `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums><![CDATA[AAAAAAAAAAA=]]></Sums></Digest>`,
	"nested in sums":       `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums><X>AAAAAAAAAAA=</X></Sums></Digest>`,
	"two sums":             `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Sums><Sums>AAAAAAAAAAA=</Sums></Digest>`,
	"sums first":           `<Digest xmlns="urn:wsgossip:2008"><Sums>AAAAAAAAAAA=</Sums><Sender>s</Sender></Digest>`,
	"stray sibling":        `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Sums><TTL>1</TTL></Digest>`,
	"prefixed":             `<g:Digest xmlns:g="urn:wsgossip:2008"><g:Sender>s</g:Sender><g:Sums>AAAAAAAAAAA=</g:Sums></g:Digest>`,
	"no sender":            `<Digest xmlns="urn:wsgossip:2008"><Sums>AAAAAAAAAAA=</Sums></Digest>`,
	"missing sums end":     `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Digest>`,
	"truncated document":   `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Su`,
	"trailing bytes":       `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Sums></Digest> `,
	"wrong namespace":      `<Digest xmlns="urn:other"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Sums></Digest>`,
	"unknown entity":       `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>&nbsp;</Sums></Digest>`,
	"truncated first":      `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Truncated>true</Truncated><Sums>AAAAAAAAAAA=</Sums></Digest>`,
	"truncated twice":      `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Sums><Truncated>true</Truncated><Truncated>true</Truncated></Digest>`,
	"truncated padded":     `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Sums><Truncated> true </Truncated></Digest>`,
	"truncated as 1":       `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Sums><Truncated>1</Truncated></Digest>`,
	"truncated not a bool": `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Sums><Truncated>yes</Truncated></Digest>`,
}

// badSums are <Sums> texts the in-place readers take — the body is canonical
// — and digestFrom refuses, whichever reader took them.
var badSums = map[string]string{
	"bad base64":              "!!!!AAAAAAA=",
	"line break":              "AAAAAAAA\nAAA=",
	"not a multiple of 8":     "AAAAAAAAAA==", // 7 bytes
	"missing padding":         "AAAAAAAAAAA",
	"nonzero trailing bits":   "AAAAAAAAAAB=",
	"more than digestCap":     base64.StdEncoding.EncodeToString(make([]byte, 8*(gossip.DigestCap+1))),
	"far more than digestCap": base64.StdEncoding.EncodeToString(make([]byte, 8*10000)),
}

// asPullRequest respells a Digest document as the PullRequest with the same
// peer and sums and the given Max element.
func asPullRequest(digest, max string) string {
	s := strings.NewReplacer("Digest", "PullRequest", "Sender", "Requester").Replace(digest)
	if i := strings.LastIndex(s, "</"); i >= 0 && strings.HasSuffix(strings.TrimSpace(s), "PullRequest>") {
		return s[:i] + max + s[i:]
	}
	return s + max
}

// TestDigestCodecDeclinesNonCanonical: each form is declined by the in-place
// readers, and digestFrom — through the fallback — returns exactly what
// encoding/xml and sumsOracle return for it, error or value. Each bad <Sums>
// text is read in place and refused.
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
	const canonical = `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>AAAAAAAAAAA=</Sums></Digest>`
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
	for label, text := range badSums {
		raw := `<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>` + text + `</Sums></Digest>`
		for _, doc := range []string{raw, asPullRequest(raw, "<Max>7</Max>")} {
			okDigest, okPull := checkDigestReaders(t, []byte(doc))
			if !okDigest && !okPull {
				t.Errorf("%s: in-place readers declined %.200s", label, doc)
			}
			env := soap.NewEnvelope()
			env.SetBodyBlock(soap.Block{Raw: []byte(doc)})
			var scratch [gossip.DigestCap]uint64
			if _, _, _, err := digestFrom(env, okPull, &scratch); err == nil {
				t.Errorf("%s: digestFrom accepted %.200s", label, doc)
			}
		}
	}
}

// FuzzDigestCodec is the differential fuzz of the Digest / PullRequest
// codecs against encoding/xml:
//
//   - whenever an in-place reader accepts, the peer, the <Sums> text,
//     Truncated and Max equal xml.Unmarshal's, and the decoders with fallback
//     always behave exactly as xml.Unmarshal followed by sumsOracle
//     (checkDigestReaders);
//   - whatever they decode, the writer re-serializes byte for byte as
//     xml.Marshal does, and the reader reads that back.
//
// The committed corpus under testdata/fuzz/FuzzDigestCodec runs on every
// plain `go test`; CI fuzzes for 30 s next to FuzzGossipHeaderCodec.
func FuzzDigestCodec(f *testing.F) {
	for i, sums := range digestSumLists() {
		peer := codecTexts[i%len(codecTexts)]
		if len(sums) > 32 {
			sums = sums[:32]
		}
		f.Add(digestBlock(peer, sums, i%2 == 1).Raw)
		f.Add(pullRequestBlock(peer, sums, i%2 == 0, digestMaxes[i%len(digestMaxes)]).Raw)
	}
	for _, raw := range nonCanonicalDigests {
		f.Add([]byte(raw))
		f.Add([]byte(asPullRequest(raw, "<Max>128</Max>")))
	}
	for _, text := range badSums {
		f.Add([]byte(`<Digest xmlns="urn:wsgossip:2008"><Sender>s</Sender><Sums>` + text + `</Sums></Digest>`))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDigestReaders(t, raw)
		var dig Digest
		if xml.Unmarshal(raw, &dig) == nil {
			if decoded, ok := sumsOracle(dig.Sums); ok {
				sums := sumsBytes(decoded)
				written := digestBlock(dig.Sender, sums, dig.Truncated).Raw
				want := mustMarshal(t, Digest{Sender: dig.Sender, Sums: base64.StdEncoding.EncodeToString(sums), Truncated: dig.Truncated})
				if !bytes.Equal(written, want) {
					t.Fatalf("digest writer for %+v:\n got %s\nwant %s", dig, written, want)
				}
				if ok, _ := checkDigestReaders(t, written); !ok {
					t.Fatalf("digest reader declined its own writer's %s", written)
				}
			}
		}
		var pr PullRequest
		if xml.Unmarshal(raw, &pr) == nil {
			if decoded, ok := sumsOracle(pr.Sums); ok {
				sums := sumsBytes(decoded)
				written := pullRequestBlock(pr.Requester, sums, pr.Truncated, pr.Max).Raw
				want := mustMarshal(t, PullRequest{Requester: pr.Requester, Sums: base64.StdEncoding.EncodeToString(sums), Truncated: pr.Truncated, Max: pr.Max})
				if !bytes.Equal(written, want) {
					t.Fatalf("pull writer for %+v:\n got %s\nwant %s", pr, written, want)
				}
				if _, ok := checkDigestReaders(t, written); ok == (pr.Max > 999999999 || pr.Max < -999999999) {
					t.Fatalf("pull reader accepted=%v for its own writer's %s", ok, written)
				}
			}
		}
	})
}

// sumsBytes is the big-endian byte form of sums.
func sumsBytes(sums []uint64) []byte {
	var out []byte
	for _, s := range sums {
		out = binary.BigEndian.AppendUint64(out, s)
	}
	return out
}

// headerBlock, announceOf and fetchOf write a header or body struct through
// the byte-level writers.
func headerBlock(gh GossipHeader) soap.Block {
	return gossipBlock(gh.InteractionID, gh.Hops, gh.Protocol, gh.From)
}

func announceOf(a Announce) soap.Block {
	return announceBlock(a.InteractionID, a.MessageID, a.Hops, a.Holder)
}

func fetchOf(f Fetch) soap.Block { return fetchBlock(f.MessageID, f.Requester) }

// announceBlock, fetchBlock, digestBlock and pullRequestBlock are the body
// blocks the disseminator writes straight into its wire buffers, as blocks of
// their own.
func announceBlock[ID string | []byte](interactionID string, messageID ID, hops int, holder string) soap.Block {
	return soap.Block{XMLName: announceName, Raw: appendAnnounce(nil, interactionID, messageID, hops, holder)}
}

func fetchBlock[ID string | []byte](messageID ID, requester string) soap.Block {
	return soap.Block{XMLName: fetchName, Raw: appendFetch(nil, messageID, requester)}
}

func digestBlock(sender string, sums []byte, truncated bool) soap.Block {
	return soap.Block{XMLName: digestName, Raw: appendDigest(nil, sender, sums, truncated)}
}

func pullRequestBlock(requester string, sums []byte, truncated bool, max int) soap.Block {
	return soap.Block{XMLName: pullName, Raw: appendPullRequest(nil, requester, sums, truncated, max)}
}

// noticeOf is the notice a transfer of gh's notification acts on.
func noticeOf(gh GossipHeader) notice {
	return notice{messageID: []byte(gh.MessageID), hops: gh.Hops, protocol: gh.Protocol}
}
