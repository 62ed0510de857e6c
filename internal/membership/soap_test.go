package membership

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/simnet"
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
		To: "mem://nowhere", Action: ActionExchange, Body: writeBody(envelopeBody{From: "mem://only"}),
	})
	// MemBus answers the unknown endpoint with a Receiver fault naming it.
	if err == nil || !strings.Contains(err.Error(), soap.ErrUnknownEndpoint.Error()) {
		t.Fatalf("send to unregistered endpoint = %v, want %v", err, soap.ErrUnknownEndpoint)
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
	body := envelopeBody{From: "mem://a", Members: []wireEntry{{Addr: "a<b>&c", Heartbeat: 3}}}
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
	if got := env.BodyName(); got != probe.XMLName || got != bodyName {
		t.Fatalf("body named %v, probe says %v", got, probe.XMLName)
	}
}

// bodyTexts are the From and address inputs of the body codec tables: a
// real address, markup characters, line endings encoding/xml normalizes,
// invalid UTF-8, and the empty string.
var bodyTexts = []string{
	"",
	"mem://m00",
	"http://10.0.0.7:8080/node",
	`a<b>c&d"e'f`,
	"line\r\nending\rand\ttab\n",
	"&amp; already &#x41; escaped",
	"bad\xffutf8",
	"日本語 ✓",
}

// bodyHeartbeats are the heartbeat inputs: small, the merge bound, the
// largest a uint64 holds.
var bodyHeartbeats = []uint64{0, 1, 7, maxHeartbeat - 1, maxHeartbeat, math.MaxUint64}

// bodyCases are the bodies the writer/reader tables run over: every text as
// From with every text as an address, no members, and one long view.
func bodyCases() []envelopeBody {
	var out []envelopeBody
	for i, from := range bodyTexts {
		var members []wireEntry
		for j, addr := range bodyTexts {
			members = append(members, wireEntry{Addr: addr, Heartbeat: bodyHeartbeats[(i+j)%len(bodyHeartbeats)]})
		}
		out = append(out, envelopeBody{From: from, Members: members}, envelopeBody{From: from})
	}
	var view []wireEntry
	for i := 0; i < 300; i++ {
		view = append(view, wireEntry{Addr: fmt.Sprintf("mem://node%03d", i), Heartbeat: uint64(i * 37)})
	}
	return append(out, envelopeBody{From: "mem://node000", Members: view})
}

// TestBodyWriterMatchesMarshal: the body is byte-identical to xml.Marshal of
// envelopeBody — the nested entry list included, and its empty wrapper for
// no members.
func TestBodyWriterMatchesMarshal(t *testing.T) {
	for _, b := range bodyCases() {
		want, err := xml.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := writeBody(b); string(got) != string(want) {
			t.Fatalf("body %+v:\n got %s\nwant %s", b, got, want)
		}
	}
}

// readBody materializes a body through the in-place reader, walking it the
// way the Service does, if scanBody accepts it.
func readBody(raw []byte) (envelopeBody, bool) {
	if !scanBody(raw) {
		return envelopeBody{}, false
	}
	from, r, _ := openBody(raw)
	b := envelopeBody{XMLName: bodyName, From: from.String()}
	for addr, hb, ok := nextEntry(&r); ok; addr, hb, ok = nextEntry(&r) {
		b.Members = append(b.Members, wireEntry{Addr: string(addr.Key()), Heartbeat: hb})
	}
	return b, true
}

func equalBody(a, b envelopeBody) bool {
	return a.XMLName == b.XMLName && a.From == b.From && slices.Equal(a.Members, b.Members)
}

// checkBodyReader runs the body reader differentially against xml.Unmarshal:
// what it accepts decodes identically, and canonicalBody — reader plus
// fallback — behaves exactly as xml.Unmarshal alone plus the one rule of the
// protocol, that a body lists at least one member; what it returns is raw
// itself when read in place, else the writer's spelling of the value, and
// the reader takes it back either way. It reports whether the in-place
// reader accepted.
func checkBodyReader(t *testing.T, raw []byte) bool {
	t.Helper()
	var ref envelopeBody
	refErr := xml.Unmarshal(raw, &ref)
	got, ok := readBody(raw)
	if ok && (refErr != nil || !equalBody(got, ref) || len(ref.Members) == 0) {
		t.Fatalf("reader accepted %q as %+v; encoding/xml: %+v, %v", raw, got, ref, refErr)
	}
	body, inPlace, err := canonicalBody(raw)
	wantErr := refErr != nil || len(ref.Members) == 0
	if (err != nil) != wantErr {
		t.Fatalf("canonicalBody(%q) error %v; encoding/xml: %+v, %v", raw, err, ref, refErr)
	}
	if err == nil {
		if inPlace != ok {
			t.Fatalf("canonicalBody(%q) in place = %v, the reader accepted = %v", raw, inPlace, ok)
		}
		if want := writeBody(ref); ok && string(body) != string(raw) || !ok && string(body) != string(want) {
			t.Fatalf("canonicalBody(%q) = %s, want raw itself if read in place, else the writer's %s", raw, body, want)
		}
		if back, ok := readBody(body); !ok || !equalBody(back, ref) {
			t.Fatalf("canonical form %s reads back as %+v (%v), want %+v", body, back, ok, ref)
		}
	}
	return ok
}

// nonCanonicalBodies are spellings of a membership body the in-place reader
// must decline, leaving the verdict — error or value — to encoding/xml.
var nonCanonicalBodies = func() map[string]string {
	const open, end = `<Membership xmlns="urn:wsgossip:membership">`, `</Membership>`
	const from, entry = `<From>a</From>`, `<M><A>x</A><H>1</H></M>`
	return map[string]string{
		"padded":             open + "\n <From>a</From>\n <Members>\n  " + entry + "\n </Members>\n" + end,
		"reordered":          open + `<Members>` + entry + `</Members>` + from + end,
		"missing members":    open + from + end,
		"empty members":      open + from + `<Members></Members>` + end,
		"self-closing list":  open + from + `<Members/>` + end,
		"legacy json":        open + from + `<Data>{&#34;entries&#34;:[{&#34;addr&#34;:&#34;a&#34;,&#34;hb&#34;:2}]}</Data>` + end,
		"extra child":        open + from + `<Members>` + entry + `</Members><TTL>1</TTL>` + end,
		"entry attribute":    open + from + `<Members><M id="1"><A>x</A><H>1</H></M></Members>` + end,
		"reordered entry":    open + from + `<Members><M><H>1</H><A>x</A></M></Members>` + end,
		"missing heartbeat":  open + from + `<Members><M><A>x</A></M></Members>` + end,
		"padded heartbeat":   open + from + `<Members><M><A>x</A><H> 7 </H></M></Members>` + end,
		"empty heartbeat":    open + from + `<Members><M><A>x</A><H></H></M></Members>` + end,
		"wide heartbeat":     open + from + `<Members><M><A>x</A><H>18446744073709551616</H></M></Members>` + end,
		"negative heartbeat": open + from + `<Members><M><A>x</A><H>-1</H></M></Members>` + end,
		"nested address":     open + from + `<Members><M><A><X>x</X></A><H>1</H></M></Members>` + end,
		"text in list":       open + from + `<Members>x` + entry + `</Members>` + end,
		"cdata":              open + from + `<Members><M><A><![CDATA[x]]></A><H>1</H></M></Members>` + end,
		"comment":            open + from + `<Members>` + entry + `<!-- c -->` + entry + `</Members>` + end,
		"two lists":          open + from + `<Members>` + entry + `</Members><Members>` + entry + `</Members>` + end,
		"prefixed": `<m:Membership xmlns:m="urn:wsgossip:membership"><m:From>a</m:From>` +
			`<m:Members><m:M><m:A>x</m:A><m:H>1</m:H></m:M></m:Members></m:Membership>`,
		"wrong namespace": `<Membership xmlns="urn:other">` + from + `<Members>` + entry + `</Members>` + end,
		"trailing bytes":  open + from + `<Members>` + entry + `</Members>` + end + "\n",
		"truncated":       open + from + `<Members><M><A>x</A><H>1</H></M></Memb`,
		"unknown entity":  open + from + `<Members><M><A>&nbsp;</A><H>1</H></M></Members>` + end,
	}
}()

// TestBodyReaderMatchesUnmarshal: everything the writer emits with at least
// one member is read in place and equals xml.Unmarshal; every other spelling
// is declined and decoded by the fallback, error or value — and a body from
// an older build, whose view rode as JSON in a Data element, is an error.
func TestBodyReaderMatchesUnmarshal(t *testing.T) {
	for _, b := range bodyCases() {
		raw := writeBody(b)
		if ok := checkBodyReader(t, raw); ok != (len(b.Members) > 0) {
			t.Fatalf("reader accepted=%v for its own writer's %s", ok, raw)
		}
	}
	for label, raw := range nonCanonicalBodies {
		if checkBodyReader(t, []byte(raw)) {
			t.Errorf("%s: in-place reader accepted %s", label, raw)
		}
	}
	if _, _, err := canonicalBody([]byte(nonCanonicalBodies["legacy json"])); err == nil {
		t.Fatal("a JSON view from an older build was accepted")
	}
}

// capturedExchange is a view exchange as a running Service writes it: the
// body the first of eight nodes sends once the overlay has converged.
func capturedExchange(t testing.TB) []byte {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(3))
	var captured []byte
	for i := 0; i < 8; i++ {
		addr := fmt.Sprintf("m%03d", i)
		ep := &tapEndpoint{Endpoint: net.Node(addr)}
		if i == 0 {
			ep.tap = func(msg transport.Message) { captured = msg.Body }
		}
		svc, err := New(Config{
			Endpoint: ep, Clock: net, RNG: rand.New(rand.NewSource(int64(i + 1))),
			Fanout: 2, SuspectAfter: time.Second, RemoveAfter: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		svc.Register(mux)
		mux.Bind(ep)
		if i > 0 {
			svc.Join(context.Background(), []string{"m000"})
		}
	}
	net.Run()
	if captured == nil {
		t.Fatal("no exchange captured")
	}
	return captured
}

// tapEndpoint hands every message a Service sends to tap on its way out,
// with a copy of its body: Send does not keep the body it is lent.
type tapEndpoint struct {
	transport.Endpoint
	tap func(transport.Message)
}

func (e *tapEndpoint) Send(ctx context.Context, msg transport.Message) error {
	if e.tap != nil {
		kept := msg
		kept.Body = bytes.Clone(msg.Body)
		e.tap(kept)
	}
	return e.Endpoint.Send(ctx, msg)
}

// FuzzMembershipBody is the same law under fuzzing, for bytes a peer chose:
// whenever the in-place reader accepts, xml.Unmarshal accepts and yields the
// same From and entries; canonicalBody equals xml.Unmarshal alone either way;
// nothing panics. Whatever encoding/xml can read, the writer spells exactly
// as xml.Marshal does and the reader takes back in place. And a Service's
// machine, fed the body as the route feeds it (canonical, as an exchange or
// a leave), admits no empty address and no heartbeat at or past the bound,
// and never moves its own heartbeat there.
func FuzzMembershipBody(f *testing.F) {
	f.Add(capturedExchange(f))
	for _, b := range []envelopeBody{
		{From: "b", Members: []wireEntry{{Addr: "a", Heartbeat: maxHeartbeat}, {Addr: "c", Heartbeat: math.MaxUint64}}},
		{From: "b", Members: []wireEntry{{Addr: "", Heartbeat: 3}, {Addr: "c", Heartbeat: 1}}},
		{From: "b", Members: []wireEntry{{Addr: `mem://a&b<c>"d"`, Heartbeat: 5}}},
		{From: "b", Members: []wireEntry{{Addr: "c", Heartbeat: 4}, {Addr: "c", Heartbeat: 9}, {Addr: "c", Heartbeat: 2}}},
		{From: "a", Members: []wireEntry{{Addr: "a", Heartbeat: 1 << 40}}},
	} {
		f.Add(writeBody(b))
	}
	for _, b := range bodyCases()[:8] {
		f.Add(writeBody(b))
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
		written := writeBody(body)
		want, err := xml.Marshal(body)
		if err != nil || string(written) != string(want) {
			t.Fatalf("body writer for %+v:\n got %s\nwant %s (%v)", body, written, want, err)
		}
		if len(body.Members) > 0 && !checkBodyReader(t, written) {
			t.Fatalf("reader declined its own writer's %s", written)
		}
		canon, _, err := canonicalBody(raw)
		if err != nil {
			return // the Service refuses the body before its machine sees it
		}
		for _, apply := range []func(*machine){
			func(m *machine) { m.exchange(body.From, canon, 0) },
			func(m *machine) { m.leave(body.From, canon) },
		} {
			m := newMachine(Config{SuspectAfter: time.Second, RemoveAfter: 2 * time.Second, MaxView: 4}, "a", rand.New(rand.NewSource(1)))
			apply(m)
			for _, mb := range m.snapshot() {
				if mb.Addr == "" || mb.Heartbeat >= maxHeartbeat {
					t.Fatalf("merged %+v from %s", mb, raw)
				}
			}
			if len(m.members) > 4 || m.self.Heartbeat > maxHeartbeat {
				t.Fatalf("view of %d, own heartbeat %d after %s", len(m.members), m.self.Heartbeat, raw)
			}
		}
	})
}

// TestSOAPEndpointDeliversBothSpellings: a canonical body and a padded one a
// foreign stack might send reach the transport handler identically — as the
// canonical bytes, with the sender taken from the body. The handler reads the
// body during its call, as a transport handler may, before the request's
// buffer goes back to its pool.
func TestSOAPEndpointDeliversBothSpellings(t *testing.T) {
	view := envelopeBody{From: "mem://peer", Members: []wireEntry{
		{Addr: "mem://peer", Heartbeat: 9},
		{Addr: "a<b>&c", Heartbeat: 2},
		{Addr: "line\r\nend", Heartbeat: 1 << 40},
	}}
	canonical := writeBody(view)
	padded := []byte("<Membership xmlns=\"urn:wsgossip:membership\">\n  <From>mem://peer</From>\n  <Members>\n" +
		"    <M><A>mem://peer</A><H>9</H></M>\n" +
		"    <M>\n      <A>a&lt;b&gt;&amp;c</A>\n      <H>2</H>\n    </M>\n" +
		"    <M><A>line&#xD;&#xA;end</A><H> 1099511627776 </H></M>\n" +
		"  </Members>\n</Membership>")
	ep := NewSOAPEndpoint("mem://self", soap.NewMemBus())
	var got []transport.Message
	ep.SetHandler(func(_ context.Context, msg transport.Message) error {
		msg.Body = bytes.Clone(msg.Body) // lent for the call only
		got = append(got, msg)
		return nil
	})
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
		if msg.From != "mem://peer" || msg.To != "mem://self" || msg.Action != ActionExchange || string(msg.Body) != string(canonical) {
			t.Errorf("message %d = %+v (body %s)", i, msg, msg.Body)
		}
	}
}

// TestSOAPEndpointFaultsLegacyPeer: a peer from an older build sends its view
// as JSON inside a Data element. encoding/xml reads that as a body without
// members, which no current peer sends, so it is a Sender fault and the
// Service never sees it.
func TestSOAPEndpointFaultsLegacyPeer(t *testing.T) {
	ep := NewSOAPEndpoint("mem://self", soap.NewMemBus())
	delivered := 0
	ep.SetHandler(func(context.Context, transport.Message) error { delivered++; return nil })
	out := soap.NewEnvelope()
	if err := out.SetAddressing(wsa.Headers{To: "mem://self", Action: ActionExchange}); err != nil {
		t.Fatal(err)
	}
	out.SetBodyBlock(soap.Block{XMLName: bodyName, Raw: []byte(nonCanonicalBodies["legacy json"])})
	wire, err := out.Encode()
	if err != nil {
		t.Fatal(err)
	}
	env, err := soap.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ep.handleSOAP(context.Background(), &soap.Request{Envelope: env})
	if !soap.IsSenderFault(err) {
		t.Fatalf("legacy body answered %v, want a Sender fault", err)
	}
	if delivered != 0 {
		t.Fatal("legacy body reached the Service")
	}
}
