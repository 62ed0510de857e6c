package core

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
	"wsgossip/internal/wscoord"
)

// lawEvent is one entry of a wire log: a notify copy a disseminator sent
// (with the context or bare, and whether the binding took it), a refusal a
// disseminator took, of peer, or a node's restart.
type lawEvent struct {
	refusal     bool
	restart     bool
	node, peer  string
	withContext bool
	sent        bool
}

// lawLog records every disseminator's notify sends and refusal receipts in
// the order they happen.
type lawLog struct {
	mu     sync.Mutex
	events []lawEvent
}

func (l *lawLog) add(e lawEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// lawCaller logs what its node sends on the bus.
type lawCaller struct {
	*soap.MemBus
	node string
	log  *lawLog
}

func (c *lawCaller) SendEncoded(ctx context.Context, to string, data []byte) error {
	notify := bytes.Contains(data, []byte(ActionNotify+"<"))
	withContext := bytes.Contains(data, []byte("<CoordinationContext"))
	err := c.MemBus.SendEncoded(ctx, to, data)
	if notify {
		c.log.add(lawEvent{node: c.node, peer: to, withContext: withContext, sent: err == nil})
	}
	return err
}

// lawHandler logs the refusals its node takes, then hands them on.
func lawHandler(node string, log *lawLog, h soap.Handler) soap.Handler {
	return soap.HandlerFunc(func(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
		if req.Action() == ActionRefuse {
			if _, peer, err := refusalFrom(req.Envelope); err == nil {
				log.add(lawEvent{refusal: true, node: node, peer: string(peer)})
			}
		}
		return h.HandleSOAP(ctx, req)
	})
}

// TestContextElisionLaw replays a wire log of a push deployment on a MemBus
// whose nodes fail, come back, and restart at their addresses, and holds
// every disseminator's notify copy to the elision law: a copy carries the
// coordination context exactly when its peer has not been sent the context
// successfully since the peer's last refusal. The log must show all of it:
// bare copies, failed sends, refusals, and copies that carry the context
// again after a refusal.
func TestContextElisionLaw(t *testing.T) {
	ctx := context.Background()
	bus := soap.NewMemBus()
	log := &lawLog{}
	coord := NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator", RNG: rand.New(rand.NewSource(5)),
		Params: func(int) (int, int) { return 2, 5 },
	})
	bus.Register("mem://coordinator", coord.Handler())
	const n = 8
	addr := func(i int) string { return fmt.Sprintf("mem://law%d", i) }
	nodes := make([]*Disseminator, n)
	start := func(i int) {
		d, err := NewDisseminator(DisseminatorConfig{
			Address: addr(i), Caller: &lawCaller{MemBus: bus, node: addr(i), log: log},
			RNG: rand.New(rand.NewSource(int64(100 + i))), StoreSize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = d
		bus.Register(addr(i), lawHandler(addr(i), log, d.Handler()))
		log.add(lawEvent{restart: true, node: addr(i)})
	}
	for i := range nodes {
		start(i)
		if err := SubscribeClient(ctx, bus, "mem://coordinator", addr(i), RoleDisseminator); err != nil {
			t.Fatal(err)
		}
	}
	init, err := NewInitiator(InitiatorConfig{Address: "mem://initiator", Caller: bus, Activation: "mem://coordinator"})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 40; seq++ {
		switch seq {
		case 0:
			bus.Unregister(addr(3)) // down before any copy: the context sends to it fail
		case 4:
			start(3)
		case 12:
			bus.Unregister(addr(6)) // down after it was given the context
		case 16:
			start(6) // back at its address with no state
		case 24:
			start(5) // restarted without ever going down
		}
		if _, _, err := init.Notify(ctx, inter, &quoteBody{Symbol: "LAW", Price: float64(seq)}); err != nil {
			t.Fatal(err)
		}
		if seq%10 == 9 {
			for _, d := range nodes {
				d.TickRepair(ctx) // repair copies go through the same law
			}
		}
	}

	given := map[[2]string]bool{} // (node, peer): sent the context since the peer's last refusal
	var bare, failed, refusals, regiven int
	refused := map[[2]string]bool{}
	for i, e := range log.events {
		key := [2]string{e.node, e.peer}
		if e.restart { // a node starts with nothing given
			for k := range given {
				if k[0] == e.node {
					delete(given, k)
				}
			}
			continue
		}
		if e.refusal {
			refusals++
			given[key], refused[key] = false, true
			continue
		}
		if e.withContext == given[key] {
			t.Fatalf("event %d: %s sent %s a copy with context %v; sent the context since the last refusal: %v",
				i, e.node, e.peer, e.withContext, given[key])
		}
		switch {
		case !e.sent:
			failed++
		case e.withContext:
			if refused[key] {
				regiven++
				refused[key] = false
			}
			given[key] = true
		default:
			bare++
		}
	}
	if bare == 0 || failed == 0 || refusals == 0 || regiven == 0 {
		t.Fatalf("log shows %d bare copies, %d failed sends, %d refusals, %d copies with the context again after one",
			bare, failed, refusals, regiven)
	}
	for i, d := range nodes {
		if st := d.Stats(); st.Registrations != 1 {
			t.Errorf("node %d registered %d times since its last start", i, st.Registrations)
		}
	}
}

// elisionPair is A, which has handed B the context, and B, holding the
// interaction, over a recording MemBus.
type elisionPair struct {
	bus   *soap.MemBus
	a, b  *Disseminator
	state *interactionState // A's
	rec   *lawLog
}

func newElisionPair(t *testing.T) *elisionPair {
	t.Helper()
	bus := soap.NewMemBus()
	p := &elisionPair{bus: bus, rec: &lawLog{}}
	cctx := wscoord.CoordinationContext{
		Identifier: "urn:uuid:pair", CoordinationType: CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://coordinator"},
	}
	block, err := wscoord.ContextBlock(cctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mem://a", "mem://b"} {
		d, err := NewDisseminator(DisseminatorConfig{Address: name, Caller: &lawCaller{MemBus: bus, node: name, log: p.rec}, RNG: rand.New(rand.NewSource(1))})
		if err != nil {
			t.Fatal(err)
		}
		peer := "mem://b"
		if name == "mem://b" {
			peer, p.b = "mem://a", d
		} else {
			p.a = d
		}
		state := newInteractionState(cctx.Identifier, ProtocolPushGossip, GossipParameters{Fanout: 1, Hops: 0, Targets: []string{peer}})
		state.context = block
		d.interactions[cctx.Identifier] = state
		bus.Register(name, d.Handler())
	}
	p.state = p.a.interactions[cctx.Identifier]
	return p
}

// push has A forward a fresh notification to B, with no hop left for B to
// forward it on.
func (p *elisionPair) push(t *testing.T) (withContext bool) {
	t.Helper()
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{MessageID: wsa.NewMessageID()}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(quoteBody{Symbol: "PAIR", Price: 1}); err != nil {
		t.Fatal(err)
	}
	mark := len(p.rec.events)
	if sent, _ := p.a.forward(context.Background(), env, p.state, notice{messageID: env.MessageIDKey()}, false, []string{"mem://b"}); sent != 1 {
		t.Fatal("forward failed")
	}
	got := p.rec.events[mark:]
	if len(got) != 1 || got[0].node != "mem://a" {
		t.Fatalf("A sent %+v", got)
	}
	return got[0].withContext
}

// refusal is a refusal's wire bytes, as anyone can write them.
func refusal(t *testing.T, to, interaction, peer string) []byte {
	t.Helper()
	m := soap.Message{To: to, Action: ActionRefuse, Name: refuseName, Parts: 1,
		Write: func(dst []byte, _ int) []byte { return appendRefusal(dst, interaction, peer) }}
	rec := &wireRecorder{}
	if err := m.Send(context.Background(), rec, to); err != nil {
		t.Fatal(err)
	}
	return rec.msgs[0]
}

// TestForgedRefusalOnlyPutsTheContextBack: a refusal anyone can forge costs
// the named peer one copy with the context it did not need: the copy after
// is bare again, the peer registers nothing anew, and a refusal naming an
// interaction or a peer the node never gave the context changes nothing.
func TestForgedRefusalOnlyPutsTheContextBack(t *testing.T) {
	p := newElisionPair(t)
	ctx := context.Background()
	if !p.push(t) || p.push(t) {
		t.Fatal("A's first copy to B should carry the context and its second go bare")
	}
	for _, forged := range [][]byte{
		refusal(t, "mem://a", "urn:uuid:other", "mem://b"),
		refusal(t, "mem://a", "urn:uuid:pair", "mem://c"),
	} {
		if err := p.bus.SendEncoded(ctx, "mem://a", forged); err != nil {
			t.Fatal(err)
		}
	}
	if p.push(t) {
		t.Fatal("a refusal of another interaction, or of another peer, put the context back")
	}
	if err := p.bus.SendEncoded(ctx, "mem://a", refusal(t, "mem://a", "urn:uuid:pair", "mem://b")); err != nil {
		t.Fatal(err)
	}
	if !p.push(t) {
		t.Fatal("the copy after a refusal went bare")
	}
	if p.push(t) {
		t.Fatal("the copy after that carried the context again")
	}
	if st := p.b.Stats(); st.Registrations != 0 || st.Refused != 0 || st.Delivered != 5 {
		t.Fatalf("B: %+v", st)
	}
	if got := p.a.Stats().Refusals; got != 3 {
		t.Fatalf("A counted %d refusals, want 3", got)
	}
}

// bareCopy is a bare notify as a sender naming from would write it for to,
// with no hop left for its receiver to forward it on.
func bareCopy(t *testing.T, to, interaction, from string) []byte {
	return notifyCopy(t, to, interaction, wsa.NewMessageID(), from, nil)
}

// notifyCopy is bareCopy of message id, carrying cctx if it is set.
func notifyCopy(t *testing.T, to, interaction string, id wsa.MessageID, from string, cctx *wscoord.CoordinationContext) []byte {
	t.Helper()
	body, err := soap.MarshalBlock(quoteBody{Symbol: "X", Price: 1})
	if err != nil {
		t.Fatal(err)
	}
	header := []soap.Block{{XMLName: gossipName, Raw: appendGossipBlock(nil, interaction, 0, "", from)}}
	if cctx != nil {
		block, err := wscoord.ContextBlock(*cctx)
		if err != nil {
			t.Fatal(err)
		}
		header = append(header, block)
	}
	m := soap.Message{To: to, Action: ActionNotify, ID: []byte(id), Header: header, Body: []soap.Block{body}}
	rec := &wireRecorder{}
	if err := m.Send(context.Background(), rec, to); err != nil {
		t.Fatal(err)
	}
	return rec.msgs[0]
}

// TestForgedFromCostsOneSmallRefusal: bare copies naming a victim in From,
// of an interaction the receiver does not hold, each cost the victim one
// refusal, smaller than the copy; copies of an interaction the receiver
// holds, or naming From in text the writer would spell longer, cost nothing.
// Nothing a peer sends makes a node elide the context to anyone: it elides
// only to peers it sent the context itself.
func TestForgedFromCostsOneSmallRefusal(t *testing.T) {
	p := newElisionPair(t)
	ctx := context.Background()
	victim := &wireRecorder{}
	p.bus.Register("mem://victim", soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
		data, err := req.Envelope.Encode()
		if err == nil {
			victim.msgs = append(victim.msgs, data)
		}
		return nil, err
	}))
	var copies [][]byte
	for range 3 {
		copies = append(copies, bareCopy(t, "mem://b", "urn:uuid:unheld", "mem://victim"))
	}
	copies = append(copies,
		bareCopy(t, "mem://b", "urn:uuid:pair", "mem://victim"),      // held: nothing to refuse
		bareCopy(t, "mem://b", "urn:uuid:unheld", `mem://victim"&'`), // would be spelled longer
	)
	for _, c := range copies {
		if err := p.bus.SendEncoded(ctx, "mem://b", bytes.Clone(c)); err != nil {
			t.Fatal(err)
		}
	}
	if len(victim.msgs) != 3 {
		t.Fatalf("the victim got %d messages, want one refusal per bare copy of the unheld interaction (3)", len(victim.msgs))
	}
	for i, r := range victim.msgs {
		env, err := soap.Decode(r)
		if err != nil || env.Action() != ActionRefuse {
			t.Fatalf("victim message %d: %v %s", i, err, r)
		}
		if len(r) >= len(copies[i]) {
			t.Errorf("refusal %d is %d bytes, the copy that caused it %d", i, len(r), len(copies[i]))
		}
	}
	if st := p.b.Stats(); st.Refused != 3 || st.Delivered != 5 {
		t.Fatalf("B: %+v", st)
	}
	// B never sent A the context: forged copies naming A do not change that.
	for range 2 {
		if err := p.bus.SendEncoded(ctx, "mem://b", bareCopy(t, "mem://b", "urn:uuid:pair", "mem://a")); err != nil {
			t.Fatal(err)
		}
	}
	state := p.b.interactions["urn:uuid:pair"]
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{MessageID: wsa.NewMessageID()}); err != nil {
		t.Fatal(err)
	}
	mark := len(p.rec.events)
	p.b.forward(ctx, env, state, notice{messageID: env.MessageIDKey()}, false, []string{"mem://a"})
	if got := p.rec.events[mark:]; len(got) != 1 || !got[0].withContext {
		t.Fatalf("B's first copy to A after forged copies naming A: %+v, want it with the context", got)
	}
}

// registerCalls counts the Calls a node makes: its Register attempts.
type registerCalls struct {
	*soap.MemBus
	calls int
}

func (c *registerCalls) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	c.calls++
	return c.MemBus.Call(ctx, to, env)
}

// TestUnspreadCostsOneRegisterAttempt: a node that got a notification bare,
// holding no interaction, tries to register once when copies with the
// context follow, however many, and however unreachable the coordinator they
// name; it keeps at most unspreadCap such notifications.
func TestUnspreadCostsOneRegisterAttempt(t *testing.T) {
	bus := soap.NewMemBus()
	caller := &registerCalls{MemBus: bus}
	d, err := NewDisseminator(DisseminatorConfig{Address: "mem://b", Caller: caller, RNG: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://b", d.Handler())
	ctx := context.Background()
	cctx := &wscoord.CoordinationContext{
		Identifier: "urn:uuid:unheld", CoordinationType: CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://gone"},
	}
	id := wsa.NewMessageID()
	copies := [][]byte{notifyCopy(t, "mem://b", cctx.Identifier, id, "mem://a", nil)}
	for range 3 {
		copies = append(copies, notifyCopy(t, "mem://b", cctx.Identifier, id, "", cctx))
	}
	for _, c := range copies {
		if err := bus.SendEncoded(ctx, "mem://b", c); err != nil {
			t.Fatal(err)
		}
	}
	if caller.calls != 1 {
		t.Fatalf("%d Register attempts for one notification left unspread, want 1", caller.calls)
	}
	if st := d.Stats(); st.Delivered != 1 || st.Duplicates != 3 || st.Registrations != 0 {
		t.Fatalf("B: %+v", st)
	}
	for range unspreadCap + 1 {
		if err := bus.SendEncoded(ctx, "mem://b", bareCopy(t, "mem://b", cctx.Identifier, "mem://a")); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.unspread) != unspreadCap {
		t.Fatalf("%d notifications kept unspread, want the cap %d", len(d.unspread), unspreadCap)
	}
}

// FuzzRefusalCodec holds the refusal reader to encoding/xml: whatever the
// flat reader accepts decodes as xml.Unmarshal decodes it, refusalFrom agrees
// with xml.Unmarshal on every body, and the writer is xml.Marshal of the
// struct, byte for byte.
func FuzzRefusalCodec(f *testing.F) {
	for i, s := range codecTexts {
		f.Add(appendRefusal(nil, s, codecTexts[(i+1)%len(codecTexts)]))
	}
	f.Add([]byte(`<r:Refuse xmlns:r="urn:wsgossip:2008"><r:InteractionID>i</r:InteractionID><r:Peer>p</r:Peer></r:Refuse>`))
	f.Add([]byte(`<Refuse xmlns="urn:wsgossip:2008"><Peer>p</Peer><InteractionID>i</InteractionID></Refuse>`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var ref Refusal
		refErr := xml.Unmarshal(raw, &ref)
		env := soap.NewEnvelope()
		env.SetBodyBlock(soap.Block{XMLName: refuseName, Raw: raw})
		id, peer, err := refusalFrom(env)
		if (err != nil) != (refErr != nil) || (err == nil && (string(id) != ref.InteractionID || string(peer) != ref.Peer)) {
			t.Fatalf("refusalFrom(%q) = %q %q, %v; encoding/xml: %+v, %v", raw, id, peer, err, ref, refErr)
		}
		if refErr != nil {
			return
		}
		ref.XMLName = xml.Name{}
		want, err := xml.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRefusal(nil, ref.InteractionID, ref.Peer); !bytes.Equal(got, want) {
			t.Fatalf("writer for %+v:\n got %s\nwant %s", ref, got, want)
		}
		if !strings.HasPrefix(string(want), "<Refuse") {
			t.Fatalf("marshal %s", want)
		}
	})
}

// TestGivenSetConcurrentUse: forwards and refusals of one interaction from
// many goroutines at once keep the given set consistent (run it with -race):
// every refusal is taken, and once the last one is, the next copy carries
// the context.
func TestGivenSetConcurrentUse(t *testing.T) {
	p := newElisionPair(t)
	ctx := context.Background()
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range rounds {
				env := soap.NewEnvelope()
				if err := env.SetAddressing(wsa.Headers{MessageID: wsa.NewMessageID()}); err != nil {
					t.Error(err)
					return
				}
				p.a.forward(ctx, env, p.state, notice{messageID: env.MessageIDKey()}, false, []string{"mem://b"})
			}
		}()
		go func() {
			defer wg.Done()
			for range rounds {
				if _, err := p.a.handleRefuse(ctx, &soap.Request{Envelope: mustDecode(t, refusal(t, "mem://a", "urn:uuid:pair", "mem://b"))}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := p.a.Stats().Refusals; got != workers*rounds {
		t.Fatalf("A took %d refusals, want %d", got, workers*rounds)
	}
	if _, err := p.a.handleRefuse(ctx, &soap.Request{Envelope: mustDecode(t, refusal(t, "mem://a", "urn:uuid:pair", "mem://b"))}); err != nil {
		t.Fatal(err)
	}
	p.rec.events = nil
	if !p.push(t) {
		t.Fatal("the copy after the last refusal went bare")
	}
}

func mustDecode(t *testing.T, data []byte) *soap.Envelope {
	t.Helper()
	env, err := soap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return env
}
