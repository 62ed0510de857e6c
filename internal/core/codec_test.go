package core

import (
	"bytes"
	"context"
	"encoding/xml"
	"math/rand"
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
	if a, ok := scanAnnounce(raw); ok && (errAnn != nil || a != refAnn) {
		t.Fatalf("announce reader accepted %q as %+v; encoding/xml: %+v, %v", raw, a, refAnn, errAnn)
	}
	if a, err := announceFrom(env); (err != nil) != (errAnn != nil) || (err == nil && a != refAnn) {
		t.Fatalf("announceFrom(%q) = %+v, %v; encoding/xml: %+v, %v", raw, a, err, refAnn, errAnn)
	}
	var refFetch Fetch
	errFetch := xml.Unmarshal(raw, &refFetch)
	if f, ok := scanFetch(raw); ok && (errFetch != nil || f != refFetch) {
		t.Fatalf("fetch reader accepted %q as %+v; encoding/xml: %+v, %v", raw, f, refFetch, errFetch)
	}
	if f, err := fetchFrom(env); (err != nil) != (errFetch != nil) || (err == nil && f != refFetch) {
		t.Fatalf("fetchFrom(%q) = %+v, %v; encoding/xml: %+v, %v", raw, f, err, refFetch, errFetch)
	}
	return okGH
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

// TestGossipLayerNeverAliasesReceiveBuffer: the transport recycles a
// delivery's buffer as soon as the handler returns. Nothing the gossip layer
// returns or retains — GossipHeaderFrom's strings, the seen-set key, the
// deferred announcement, the stored envelope — may still point into it.
func TestGossipLayerNeverAliasesReceiveBuffer(t *testing.T) {
	for _, id := range []string{"urn:uuid:alias-1", `urn:uuid:needs&escaping<2>`} {
		want := GossipHeader{XMLName: gossipName, InteractionID: "urn:interaction:alias", MessageID: id, Hops: 3, Protocol: ProtocolPullGossip}
		data := capturedNotification(t, want, "mem://self")
		scribble := func() {
			for i := range data {
				data[i] = '#'
			}
		}

		env, err := soap.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		gh, err := GossipHeaderFrom(env)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDisseminator(DisseminatorConfig{
			Address: "mem://self", Caller: soap.NewMemBus(), RNG: rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		d.DeferAnnouncements()
		d.interactions[want.InteractionID] = &interactionState{
			protocol: ProtocolPushGossip,
			params:   GossipParameters{Fanout: 2, Hops: 3, Style: gossip.StyleLazyPush.String(), Targets: []string{"mem://peer"}},
		}
		if _, err := d.intercept(context.Background(), &soap.Request{Envelope: env}, nil); err != nil {
			t.Fatal(err)
		}
		scribble() // the delivery is over: the buffer goes back to the pool

		if gh != want {
			t.Errorf("GossipHeaderFrom result changed with the buffer: %+v", gh)
		}
		if !d.seen.Contains(id) {
			t.Errorf("seen-set key for %q changed with the buffer", id)
		}
		if len(d.pendingAnn) != 1 || d.pendingAnn[0].gh != want {
			t.Errorf("deferred announcement changed with the buffer: %+v", d.pendingAnn)
		}
		stored, ok := d.store.Get(id)
		if !ok {
			t.Fatalf("store lost %q", id)
		}
		if sgh, err := GossipHeaderFrom(stored); err != nil || sgh != want {
			t.Errorf("stored envelope changed with the buffer: %+v, %v", sgh, err)
		}
		// A second receipt, from a fresh buffer, is still a duplicate.
		again, err := soap.Decode(capturedNotification(t, want, "mem://self"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.intercept(context.Background(), &soap.Request{Envelope: again}, nil); err != nil {
			t.Fatal(err)
		}
		if stats := d.Stats(); stats.Delivered != 1 || stats.Duplicates != 1 {
			t.Errorf("stats after re-receipt = %+v", stats)
		}
	}

	// The IHAVE/IWANT bodies, likewise.
	ann := Announce{XMLName: announceName, InteractionID: "urn:i", MessageID: "urn:uuid:a&b", Hops: 2, Holder: "mem://holder"}
	fetch := Fetch{XMLName: fetchName, MessageID: "urn:uuid:a&b", Requester: "mem://requester"}
	for _, tc := range []struct {
		block soap.Block
		check func(env *soap.Envelope) (any, error)
		want  any
	}{
		{announceBlock(ann), func(env *soap.Envelope) (any, error) { return announceFrom(env) }, ann},
		{fetchBlock(fetch), func(env *soap.Envelope) (any, error) { return fetchFrom(env) }, fetch},
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
