package membership

import (
	"context"
	"encoding/xml"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
	"wsgossip/internal/wsa"
)

// soapNode is one membership service riding the in-memory SOAP binding.
type soapNode struct {
	svc *Service
	ep  *SOAPEndpoint
}

func newSOAPNode(t *testing.T, bus *soap.MemBus, clk clock.Clock, addr string, seed int64) *soapNode {
	t.Helper()
	ep := NewSOAPEndpoint(addr, bus)
	svc, err := New(Config{
		Endpoint:     ep,
		Clock:        clk,
		RNG:          rand.New(rand.NewSource(seed)),
		Fanout:       3,
		SuspectAfter: 400 * time.Millisecond,
		RemoveAfter:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux()
	svc.Register(mux)
	mux.Bind(ep)
	dispatcher := soap.NewDispatcher()
	ep.RegisterActions(dispatcher)
	bus.Register(addr, dispatcher)
	return &soapNode{svc: svc, ep: ep}
}

// TestSOAPEndpointExchange runs the membership protocol entirely over the
// SOAP binding: views must converge exactly as they do over the raw
// transport, proving the bridge preserves the wire protocol.
func TestSOAPEndpointExchange(t *testing.T) {
	bus := soap.NewMemBus()
	clk := clock.NewVirtual()
	ctx := context.Background()
	const n = 8
	nodes := make([]*soapNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		addrs[i] = fmt.Sprintf("mem://m%02d", i)
		nodes[i] = newSOAPNode(t, bus, clk, addrs[i], int64(i+1))
	}
	for i := 1; i < n; i++ {
		nodes[i].svc.Join(ctx, []string{addrs[0]})
	}
	for r := 0; r < 8; r++ {
		for _, nd := range nodes {
			nd.svc.Tick(ctx)
		}
		clk.Advance(50 * time.Millisecond)
	}
	for i, nd := range nodes {
		if got := nd.svc.Size(); got != n-1 {
			t.Fatalf("node %d view size %d, want %d", i, got, n-1)
		}
	}

	// A leave over SOAP tombstones the sender at the receivers.
	nodes[n-1].svc.Leave(ctx)
	left := 0
	for i := 0; i < n-1; i++ {
		if nodes[i].svc.Size() == n-2 {
			left++
		}
	}
	if left == 0 {
		t.Fatal("no receiver processed the SOAP-carried leave")
	}
}

// TestSOAPEndpointUnknownPeer exercises the send error path: the bus
// rejects unknown endpoints and the error surfaces as a transport error.
func TestSOAPEndpointUnknownPeer(t *testing.T) {
	bus := soap.NewMemBus()
	ep := NewSOAPEndpoint("mem://only", bus)
	err := ep.Send(context.Background(), transport.Message{
		To: "mem://nowhere", Action: ActionExchange, Body: []byte("{}"),
	})
	if err == nil {
		t.Fatal("send to unregistered endpoint must error")
	}
}

// TestSelectPeersAllocationStable pins the alive-snapshot cache: once the
// view is warm, sampling must not rebuild or re-sort the alive list, so a
// SelectPeers call costs only the sampler's own output allocation.
func TestSelectPeersAllocationStable(t *testing.T) {
	c := newMemCluster(t, 16, 7)
	ctx := context.Background()
	for i := 1; i < 16; i++ {
		c.services[i].Join(ctx, []string{"m000"})
	}
	c.tick(ctx, 6, 100*time.Millisecond)
	svc := c.services[0]
	if svc.Size() == 0 {
		t.Fatal("view empty after convergence rounds")
	}
	rng := rand.New(rand.NewSource(42))
	svc.SelectPeers(rng, 3, "m000") // warm the cache
	allocs := testing.AllocsPerRun(100, func() {
		svc.SelectPeers(rng, 3, "m000")
	})
	// One allocation for the sampler's eligible-copy; anything more means
	// the per-call alive rebuild is back.
	if allocs > 2 {
		t.Fatalf("SelectPeers allocates %.1f objects per call on a warm view, want <= 2", allocs)
	}

	// The cache must not serve stale views: age the only members out and
	// the sample must come back empty.
	c.net.RunFor(2 * time.Second)
	svc.Tick(ctx)
	if got := svc.SelectPeers(rng, 3, "m000"); len(got) != 0 {
		t.Fatalf("sample from fully-aged view returned %v, want none", got)
	}
}

// TestEnvelopeBodyBlockName: soap names the marshaled body from its start
// tag; it must be the name an xml.Unmarshal probe of the same bytes reports.
func TestEnvelopeBodyBlockName(t *testing.T) {
	body := envelopeBody{From: "mem://a", Data: `{"view":["a<b>&c"]}`}
	raw, err := xml.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		XMLName xml.Name
	}
	if err := xml.Unmarshal(raw, &probe); err != nil {
		t.Fatal(err)
	}
	env := soap.NewEnvelope()
	if err := env.SetBody(body); err != nil {
		t.Fatal(err)
	}
	if got := env.BodyName(); got != probe.XMLName {
		t.Fatalf("body named %v, probe says %v", got, probe.XMLName)
	}
}

// bodyTexts are the From/Data inputs of the body codec tables: a real view
// exchange (quotes throughout), markup characters, line endings encoding/xml
// normalizes, invalid UTF-8, and the empty string.
var bodyTexts = []string{
	"",
	"mem://m00",
	`{"from":"mem://m00","view":[{"addr":"mem://m01","hb":7,"status":"alive"}]}`,
	`a<b>c&d"e'f`,
	"line\r\nending\rand\ttab\n",
	"&amp; already &#x41; escaped",
	"bad\xffutf8",
	"日本語 ✓",
}

// TestBodyWriterMatchesMarshal: the body block is byte-identical to
// xml.Marshal of envelopeBody, name included.
func TestBodyWriterMatchesMarshal(t *testing.T) {
	for _, from := range bodyTexts {
		for _, data := range bodyTexts {
			want, err := xml.Marshal(envelopeBody{From: from, Data: data})
			if err != nil {
				t.Fatal(err)
			}
			got := bodyBlock(from, []byte(data))
			if got.XMLName != bodyName || string(got.Raw) != string(want) {
				t.Fatalf("body(%q, %q):\n got %s\nwant %s", from, data, got.Raw, want)
			}
		}
	}
}

// checkBodyReader runs the body reader differentially against xml.Unmarshal:
// what it accepts decodes identically, and bodyFrom — reader plus fallback —
// behaves exactly as xml.Unmarshal alone. It reports whether the in-place
// reader accepted.
func checkBodyReader(t *testing.T, raw []byte) bool {
	t.Helper()
	var ref envelopeBody
	refErr := xml.Unmarshal(raw, &ref)
	from, data, ok := scanBody(raw)
	if ok && (refErr != nil || from != ref.From || string(data) != ref.Data) {
		t.Fatalf("reader accepted %q as %q %q; encoding/xml: %+v, %v", raw, from, data, ref, refErr)
	}
	env := soap.NewEnvelope()
	env.SetBodyBlock(soap.Block{Raw: raw})
	from, data, err := bodyFrom(env)
	if (err != nil) != (refErr != nil) || (err == nil && (from != ref.From || string(data) != ref.Data)) {
		t.Fatalf("bodyFrom(%q) = %q %q, %v; encoding/xml: %+v, %v", raw, from, data, err, ref, refErr)
	}
	return ok
}

// nonCanonicalBodies are spellings of a membership body the in-place reader
// must decline, leaving the verdict — error or value — to encoding/xml.
var nonCanonicalBodies = func() map[string]string {
	const open, end = `<Membership xmlns="urn:wsgossip:membership">`, `</Membership>`
	return map[string]string{
		"padded":          open + "\n <From>a</From>\n <Data>d</Data>\n" + end,
		"reordered":       open + `<Data>d</Data><From>a</From>` + end,
		"missing data":    open + `<From>a</From>` + end,
		"extra child":     open + `<From>a</From><Data>d</Data><TTL>1</TTL>` + end,
		"attribute":       open + `<From id="1">a</From><Data>d</Data>` + end,
		"cdata":           open + `<From>a</From><Data><![CDATA[{"v":1}]]></Data>` + end,
		"comment":         open + `<From>a</From><!-- c --><Data>d</Data>` + end,
		"nested":          open + `<From>a</From><Data><X>d</X></Data>` + end,
		"prefixed":        `<m:Membership xmlns:m="urn:wsgossip:membership"><m:From>a</m:From><m:Data>d</m:Data></m:Membership>`,
		"wrong namespace": `<Membership xmlns="urn:other"><From>a</From><Data>d</Data></Membership>`,
		"trailing bytes":  open + `<From>a</From><Data>d</Data>` + end + "\n",
		"truncated":       open + `<From>a</From><Data>d</Da`,
		"unknown entity":  open + `<From>a</From><Data>&nbsp;</Data>` + end,
	}
}()

// TestBodyReaderMatchesUnmarshal: everything the writer emits is read in
// place and equals xml.Unmarshal; every other spelling is declined and
// decoded by the fallback, error or value, as before.
func TestBodyReaderMatchesUnmarshal(t *testing.T) {
	for _, from := range bodyTexts {
		for _, data := range bodyTexts {
			if raw := bodyBlock(from, []byte(data)).Raw; !checkBodyReader(t, raw) {
				t.Fatalf("reader declined its own writer's %s", raw)
			}
		}
	}
	for label, raw := range nonCanonicalBodies {
		if checkBodyReader(t, []byte(raw)) {
			t.Errorf("%s: in-place reader accepted %s", label, raw)
		}
	}
}

// FuzzMembershipBody is the same law under fuzzing, for bytes a peer chose:
// whenever scanBody accepts, xml.Unmarshal accepts and yields the same From
// and the same Data bytes; bodyFrom equals xml.Unmarshal alone either way;
// nothing panics. And whatever encoding/xml can read, the writer spells
// exactly as xml.Marshal does and the reader takes back in place.
func FuzzMembershipBody(f *testing.F) {
	for i, from := range bodyTexts {
		f.Add(bodyBlock(from, []byte(bodyTexts[(i+3)%len(bodyTexts)])).Raw)
	}
	for _, raw := range nonCanonicalBodies {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkBodyReader(t, raw)
		var body envelopeBody
		if xml.Unmarshal(raw, &body) != nil {
			return
		}
		written := bodyBlock(body.From, []byte(body.Data)).Raw
		want, err := xml.Marshal(envelopeBody{From: body.From, Data: body.Data})
		if err != nil || string(written) != string(want) {
			t.Fatalf("body writer for %+v:\n got %s\nwant %s (%v)", body, written, want, err)
		}
		if !checkBodyReader(t, written) {
			t.Fatalf("reader declined its own writer's %s", written)
		}
	})
}

// TestSOAPEndpointDeliversBothSpellings: a canonical body and a padded one a
// foreign stack might send reach the transport handler identically, and the
// delivered body does not alias the request buffer.
func TestSOAPEndpointDeliversBothSpellings(t *testing.T) {
	const view = `{"view":["a<b>&c","line` + "\r\n" + `end"]}`
	ep := NewSOAPEndpoint("mem://self", soap.NewMemBus())
	var got []transport.Message
	ep.SetHandler(func(_ context.Context, msg transport.Message) error {
		got = append(got, msg)
		return nil
	})
	canonical := bodyBlock("mem://peer", []byte(view)).Raw
	padded := []byte("<Membership xmlns=\"urn:wsgossip:membership\">\n  <From>mem://peer</From>\n  <Data>" +
		`{&#34;view&#34;:[&#34;a&lt;b&gt;&amp;c&#34;,&#34;line&#xD;&#xA;end&#34;]}` + "</Data>\n</Membership>")
	for _, raw := range [][]byte{canonical, padded} {
		out := soap.NewEnvelope()
		if err := out.SetAddressing(wsa.Headers{To: "mem://self", Action: ActionExchange}); err != nil {
			t.Fatal(err)
		}
		out.SetBodyBlock(soap.Block{XMLName: bodyName, Raw: raw})
		wire, err := out.Encode()
		if err != nil {
			t.Fatal(err)
		}
		env, err := soap.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ep.handleSOAP(context.Background(), &soap.Request{Envelope: env}); err != nil {
			t.Fatal(err)
		}
		for i := range wire {
			wire[i] = '#' // the delivery is over: the buffer goes back to the pool
		}
	}
	if len(got) != 2 {
		t.Fatalf("%d messages delivered", len(got))
	}
	for i, msg := range got {
		if msg.From != "mem://peer" || msg.To != "mem://self" || msg.Action != ActionExchange || string(msg.Body) != view {
			t.Errorf("message %d = %+v (body %q)", i, msg, msg.Body)
		}
	}
}
