package gossip

import (
	"bytes"
	"context"
	"encoding/binary"
	"slices"
	"testing"

	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// wireMsg is a decoded body. Only tests build one: the engine reads bodies
// through views.
type wireMsg struct {
	Rumors []Rumor
	Refs   []RumorRef
	Pull   *pullMsg
}

// pullMsg is a decoded pull request.
type pullMsg struct {
	Sums      []uint64
	Truncated bool
}

// sumBytes renders sums as a digest lists them: 8 big-endian bytes each.
func sumBytes(sums []uint64) []byte {
	b := make([]byte, 0, 8*len(sums))
	for _, s := range sums {
		b = binary.BigEndian.AppendUint64(b, s)
	}
	return b
}

// encodeRumors writes a rumor batch as a peer sends it.
func encodeRumors(rs ...Rumor) []byte {
	b := appendBatch(nil, wireRumors, len(rs))
	for _, r := range rs {
		b = appendRumor(b, rumorView{id: []byte(r.ID), origin: []byte(r.Origin), hops: r.Hops, payload: r.Payload})
	}
	return b
}

// encodeRefs writes a reference batch as a peer sends it.
func encodeRefs(refs ...RumorRef) []byte {
	b := appendBatch(nil, wireRefs, len(refs))
	for _, ref := range refs {
		b = appendRef(b, []byte(ref.ID), ref.Hops)
	}
	return b
}

// encodePull writes a pull request listing sums, a digest's big-endian bytes.
func encodePull(sums []byte, truncated bool) []byte { return appendPull(nil, sums, truncated) }

// ownedRumor copies v out of the body it lies in.
func ownedRumor(v rumorView) Rumor {
	r := Rumor{ID: string(v.id), Origin: string(v.origin), Hops: v.hops}
	if len(v.payload) > 0 {
		r.Payload = append([]byte(nil), v.payload...)
	}
	return r
}

// pullBody is a pull request listing the sums of ids.
func pullBody(truncated bool, ids ...string) []byte {
	return encodePull(sumBytes(sumsOf(ids...)), truncated)
}

func encodeWire(m wireMsg) []byte {
	switch {
	case m.Pull != nil:
		return encodePull(sumBytes(m.Pull.Sums), m.Pull.Truncated)
	case m.Refs != nil:
		return encodeRefs(m.Refs...)
	}
	return encodeRumors(m.Rumors...)
}

// decodeWire reads a body of any kind into owned values.
func decodeWire(body []byte) (wireMsg, error) {
	var m wireMsg
	if len(body) > 0 && body[0] == wirePull {
		var scratch [DigestCap]uint64
		sums, truncated, err := readPull(&scratch, body)
		if err != nil {
			return m, err
		}
		m.Pull = &pullMsg{Sums: append([]uint64{}, sums...), Truncated: truncated}
		return m, nil
	}
	if len(body) > 0 && body[0] == wireRefs {
		rd, err := readWire(body, wireRefs)
		if err != nil {
			return m, err
		}
		m.Refs = []RumorRef{}
		for rd.n > 0 {
			ref, _ := rd.ref()
			m.Refs = append(m.Refs, RumorRef{ID: string(ref.id), Hops: ref.hops})
		}
		return m, nil
	}
	rd, err := readWire(body, wireRumors)
	if err != nil {
		return m, err
	}
	for rd.n > 0 {
		v, _ := rd.rumor()
		m.Rumors = append(m.Rumors, ownedRumor(v))
	}
	return m, nil
}

// wireHandlers returns a fresh push engine's five handlers, each with the
// kind of body it reads.
func wireHandlers(t testing.TB, seed int64) (*Engine, map[string]transport.Handler, map[string]byte) {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(seed))
	eng, err := New(Config{
		Style: StylePush, Fanout: 2, Hops: 4,
		Endpoint: net.Node("a"),
		Peers:    NewStaticPeers([]string{"a", "b"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	handlers := map[string]transport.Handler{
		"push":     eng.handlePush,
		"ihave":    eng.handleIHave,
		"iwant":    eng.handleIWant,
		"pullreq":  eng.handlePullReq,
		"pullresp": eng.handlePullResp,
	}
	kinds := map[string]byte{
		"push": wireRumors, "pullresp": wireRumors,
		"ihave": wireRefs, "iwant": wireRefs, "pullreq": wirePull,
	}
	return eng, handlers, kinds
}

// TestMalformedWireMessagesRejected: every engine handler must reject junk
// bodies with an error and leave state untouched (a byzantine or buggy peer
// must not crash or corrupt a node). A body is validated whole before the
// first state change, so the valid first entry of a bad batch is not applied
// either; and a body of another kind (refs sent to handlePush, rumors sent
// to handleIHave) is an error like any junk, not a no-op.
func TestMalformedWireMessagesRejected(t *testing.T) {
	eng, handlers, kinds := wireHandlers(t, 1)
	good := map[byte][]byte{
		wireRumors: encodeRumors(Rumor{ID: "r1", Origin: "evil", Hops: 3, Payload: []byte("p")}, Rumor{ID: "r2", Origin: "evil", Hops: 3}),
		wireRefs:   encodeRefs(RumorRef{ID: "r1", Hops: 3}, RumorRef{ID: "r2", Hops: 3}),
		wirePull:   pullBody(false, "r1", "r2"),
	}
	other := map[byte]byte{wireRumors: wireRefs, wireRefs: wirePull, wirePull: wireRumors}
	ctx := context.Background()
	for name, h := range handlers {
		kind := kinds[name]
		valid := good[kind]
		bodies := map[string][]byte{
			"nil":             nil,
			"junk":            []byte("{not json"),
			"unknown kind":    {9, 0},
			"wrong kind":      good[other[kind]],
			"kind only":       {kind},
			"truncated":       valid[:len(valid)-1],
			"cut mid-entry":   valid[:6],
			"trailing byte":   append(append([]byte(nil), valid...), 0),
			"hostile count":   {kind, 0xff, 0xff, 0xff, 0xff, 0x0f, 2, 'r', '1'},
			"overlong count":  {kind, 0x80, 0x00},
			"count too large": append([]byte{kind, 3}, valid[2:]...),
			"hostile length":  {kind, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		}
		for what, body := range bodies {
			if err := h(ctx, transport.Message{From: "evil", To: "a", Body: body}); err == nil {
				t.Errorf("%s accepted %s body % x", name, what, body)
			}
		}
	}
	if st := eng.Stats(); st != (Stats{}) {
		t.Fatalf("junk mutated stats: %+v", st)
	}
	if eng.Seen("r1") || eng.StoreLen() != 0 {
		t.Fatal("a rejected batch was half applied")
	}
}

// TestEmptyWireMessagesHarmless: structurally valid but empty messages — a
// kind byte and a zero count, or a pull request listing no sums — are no-ops.
func TestEmptyWireMessagesHarmless(t *testing.T) {
	eng, handlers, kinds := wireHandlers(t, 2)
	ctx := context.Background()
	empties := map[byte][]byte{wireRumors: {wireRumors, 0}, wireRefs: {wireRefs, 0}, wirePull: pullBody(false)}
	for name, h := range handlers {
		empty := transport.Message{From: "peer", To: "a", Body: empties[kinds[name]]}
		if err := h(ctx, empty); err != nil {
			t.Errorf("%s rejected empty message: %v", name, err)
		}
	}
	if st := eng.Stats(); st != (Stats{}) {
		t.Fatalf("empty messages mutated stats: %+v", st)
	}
}

// TestIWantForUnknownRumorIgnored: requests for rumors not in the store get
// no response rather than an error storm.
func TestIWantForUnknownRumorIgnored(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(3))
	sent := 0
	net.Node("peer").SetHandler(func(context.Context, transport.Message) error {
		sent++
		return nil
	})
	eng, err := New(Config{
		Style: StyleLazyPush, Fanout: 1, Hops: 2,
		Endpoint: net.Node("a"),
		Peers:    NewStaticPeers([]string{"a", "peer"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	body := encodeRefs(RumorRef{ID: "ghost", Hops: 2})
	if err := eng.handleIWant(context.Background(), transport.Message{From: "peer", To: "a", Body: body}); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if sent != 0 {
		t.Fatalf("responded %d times to unknown-rumor request", sent)
	}
}

// TestIHaveDuplicateRequestSuppressed: two announcements of the same rumor
// from different peers yield exactly one IWANT.
func TestIHaveDuplicateRequestSuppressed(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(4))
	requests := 0
	for _, p := range []string{"p1", "p2"} {
		net.Node(p).SetHandler(func(_ context.Context, msg transport.Message) error {
			if msg.Action == ActionIWant {
				requests++
			}
			return nil
		})
	}
	eng, err := New(Config{
		Style: StyleLazyPush, Fanout: 1, Hops: 2,
		Endpoint: net.Node("a"),
		Peers:    NewStaticPeers([]string{"a", "p1", "p2"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	body := encodeRefs(RumorRef{ID: "r1", Hops: 2})
	ctx := context.Background()
	if err := eng.handleIHave(ctx, transport.Message{From: "p1", To: "a", Body: body}); err != nil {
		t.Fatal(err)
	}
	if err := eng.handleIHave(ctx, transport.Message{From: "p2", To: "a", Body: body}); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if requests != 1 {
		t.Fatalf("IWANT requests = %d, want 1", requests)
	}
}

// TestUnansweredIWantReleasedByTick: an IWANT whose answer never comes is
// outstanding for at least one whole round; at the end of the next round
// (Tick) it is released, and the next announcement fetches the rumor again.
func TestUnansweredIWantReleasedByTick(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(4))
	requests := 0
	for _, p := range []string{"p1", "p2"} {
		net.Node(p).SetHandler(func(_ context.Context, msg transport.Message) error {
			if msg.Action == ActionIWant {
				requests++
			}
			return nil
		})
	}
	eng, err := New(Config{
		Style: StyleLazyPush, Fanout: 1, Hops: 2,
		Endpoint: net.Node("a"),
		Peers:    NewStaticPeers([]string{"a", "p1", "p2"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	body := encodeRefs(RumorRef{ID: "r1", Hops: 2})
	ctx := context.Background()
	for i, from := range []string{"p1", "p2", "tick", "p2", "tick", "p2"} {
		if from == "tick" {
			eng.Tick(ctx)
			continue
		}
		if err := eng.handleIHave(ctx, transport.Message{From: from, To: "a", Body: body}); err != nil {
			t.Fatal(err)
		}
		net.Run()
		if want := 1 + i/5; requests != want {
			t.Fatalf("after step %d: %d IWANTs, want %d", i, requests, want)
		}
	}
}

// TestRefusedIWantReleasesRequest: a fetch whose IWANT cannot be sent must
// not strand the rumor. c's fetch from a is refused; b's later IHAVE must make
// c fetch the rumor from b.
func TestRefusedIWantReleasesRequest(t *testing.T) {
	c := newCluster(t, 3, 21, func(_ int, cfg *Config) {
		cfg.Style = StyleLazyPush
		cfg.Fanout = 2
	})
	c.net.Faults().RefuseLink("c-a", []string{"n002"}, []string{"n000"})
	r, err := c.engines[0].Publish(context.Background(), []byte("refused once"))
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	// c's two refused sends to a: the first IWANT, and later its own IHAVE.
	st := c.engines[2].Stats()
	if st.SendErrors != 2 || st.IWantSent != 2 || st.Delivered != 1 || c.got[2][r.ID] != 1 {
		t.Fatalf("c stats = %+v, deliveries %d: want one refused IWANT, then a fetch from b", st, c.got[2][r.ID])
	}
}

// TestPullDigestCapRespected: a pull request lists the sums of at most
// DigestCap rumors, the newest first, and says when its sender holds more.
func TestPullDigestCapRespected(t *testing.T) {
	for _, held := range []int{DigestCap - 1, DigestCap, DigestCap + 20} {
		net := simnet.New(simnet.DefaultConfig(5))
		var digest *pullMsg
		net.Node("peer").SetHandler(func(_ context.Context, msg transport.Message) error {
			if msg.Action == ActionPullReq {
				wm, err := decodeWire(msg.Body)
				if err != nil {
					return err
				}
				digest = wm.Pull
			}
			return nil
		})
		eng, err := New(Config{
			Style: StylePull, Fanout: 1, Hops: 2,
			Endpoint: net.Node("a"),
			Peers:    NewStaticPeers([]string{"a", "peer"}),
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var newest Rumor
		for i := 0; i < held; i++ {
			if newest, err = eng.Publish(ctx, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		net.Run()
		eng.Tick(ctx)
		net.Run()
		if digest == nil {
			t.Fatalf("holding %d: no pull request", held)
		}
		if len(digest.Sums) != min(held, DigestCap) || digest.Truncated != (held > DigestCap) || digest.Sums[0] != IDSum(newest.ID) {
			t.Fatalf("holding %d: digest lists %d sums, truncated %v", held, len(digest.Sums), digest.Truncated)
		}
	}
}

// keeper is an endpoint that breaks the ownership rule on purpose: it keeps
// every body it is lent, without copying.
type keeper struct {
	transport.Endpoint
	kept [][]byte
}

func (e *keeper) Send(ctx context.Context, msg transport.Message) error {
	e.kept = append(e.kept, msg.Body)
	return e.Endpoint.Send(ctx, msg)
}

// TestSentBodyIsLent: the engine writes a forward's body into a pooled
// buffer and takes it back, zeroed, once its sends are done. A binding that
// keeps a body past Send finds it zeroed rather than intact; what the fabric
// delivers is its own copy.
func TestSentBodyIsLent(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(7))
	var got []string
	net.Node("peer").SetHandler(func(_ context.Context, msg transport.Message) error {
		wm, err := decodeWire(msg.Body)
		if err != nil {
			return err
		}
		for _, r := range wm.Rumors {
			got = append(got, string(r.Payload))
		}
		return nil
	})
	ep := &keeper{Endpoint: net.Node("a")}
	eng, err := New(Config{Style: StylePush, Fanout: 1, Hops: 2, Endpoint: ep, Peers: NewStaticPeers([]string{"a", "peer"})})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{"first", "second"} {
		if _, err := eng.Publish(context.Background(), []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	slices.Sort(got)
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("peer received %q, want the two payloads", got)
	}
	if len(ep.kept) != 2 {
		t.Fatalf("%d sends, want 2", len(ep.kept))
	}
	for i, body := range ep.kept {
		if len(body) == 0 || !bytes.Equal(body, make([]byte, len(body))) {
			t.Fatalf("body %d kept past Send reads %q, want zeros", i, body)
		}
	}
}

// TestStoredRumorOwnsItsBytes: a stored rumor owns its payload. A publisher
// (or an Inject caller) that reuses its buffer must not rewrite what a later
// IWANT is served, and a received rumor must not alias the message body it
// arrived in, which the fabric may hand to other receivers.
func TestStoredRumorOwnsItsBytes(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(6))
	var served []Rumor
	net.Node("peer").SetHandler(func(_ context.Context, msg transport.Message) error {
		if msg.Action == ActionPush {
			wm, err := decodeWire(msg.Body)
			if err != nil {
				return err
			}
			served = append(served, wm.Rumors...)
		}
		return nil
	})
	eng, err := New(Config{
		Style: StyleLazyPush, Fanout: 1, Hops: 2,
		Endpoint: net.Node("a"),
		Peers:    NewStaticPeers([]string{"a", "peer"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	buf := []byte("first edition")
	published, err := eng.Publish(ctx, buf)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, "REWRITTEN....")
	injected := []byte("injected text")
	eng.Inject(ctx, Rumor{ID: "inj", Origin: "elsewhere", Hops: 2, Payload: injected})
	copy(injected, "REWRITTEN....")
	body := encodeRumors(Rumor{ID: "rcv", Origin: "elsewhere", Hops: 2, Payload: []byte("received text")})
	if err := eng.handlePush(ctx, transport.Message{From: "peer", To: "a", Body: body}); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xff
	}

	want := encodeRefs(RumorRef{ID: published.ID, Hops: 2}, RumorRef{ID: "inj", Hops: 2}, RumorRef{ID: "rcv", Hops: 2})
	if err := eng.handleIWant(ctx, transport.Message{From: "peer", To: "a", Body: want}); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if len(served) != 3 {
		t.Fatalf("served %d rumors, want 3", len(served))
	}
	for i, text := range []string{"first edition", "injected text", "received text"} {
		if got := string(served[i].Payload); got != text {
			t.Errorf("IWANT served %q for %s, want %q", got, served[i].ID, text)
		}
	}
	if served[2].ID != "rcv" || served[2].Origin != "elsewhere" {
		t.Errorf("received rumor served as %+v", served[2])
	}
}
