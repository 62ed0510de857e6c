package core

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// Tests of the encode-once wire path at the gossip layer: template fan-out,
// a forward of a notification the fallback decoder captured, and the
// lock-free stats counters.

// TestForwardEncodeOnce: a forwarded notification reaches every sampled
// target with the right hop budget, per-target To, and an intact body.
func TestForwardEncodeOnce(t *testing.T) {
	bus := soap.NewMemBus()
	type got struct {
		to   string
		hops int
		body quoteBody
	}
	var mu sync.Mutex
	var received []got
	for i := 0; i < 4; i++ {
		addr := "mem://peer" + strconv.Itoa(i)
		bus.Register(addr, soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
			gh, err := GossipHeaderFrom(req.Envelope)
			if err != nil {
				t.Errorf("forwarded message lost gossip header: %v", err)
				return nil, nil
			}
			var q quoteBody
			if err := req.Envelope.DecodeBody(&q); err != nil {
				t.Errorf("forwarded body: %v", err)
				return nil, nil
			}
			mu.Lock()
			received = append(received, got{to: req.Addressing().To, hops: gh.Hops, body: q})
			mu.Unlock()
			return nil, nil
		}))
	}
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://self", Caller: bus, RNG: rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	gh := GossipHeader{InteractionID: "urn:i", MessageID: "urn:uuid:m1", Hops: 5}
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		To: "mem://self", Action: ActionNotify, MessageID: wsa.MessageID(gh.MessageID),
	}); err != nil {
		t.Fatal(err)
	}
	if err := SetGossipHeader(env, gh); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(quoteBody{Symbol: "ENC1", Price: 9.5}); err != nil {
		t.Fatal(err)
	}
	state := newInteractionState(gh.InteractionID, ProtocolPushGossip, GossipParameters{
		Fanout: 4, Hops: 5,
		Targets: []string{"mem://peer0", "mem://peer1", "mem://peer2", "mem://peer3"},
	})
	d.spread(context.Background(), env, noticeOf(gh), state, pushTransfer)

	if len(received) != 4 {
		t.Fatalf("deliveries = %d, want 4", len(received))
	}
	seen := map[string]bool{}
	for _, g := range received {
		if g.hops != 4 {
			t.Fatalf("forwarded hops = %d, want 4", g.hops)
		}
		if g.body.Symbol != "ENC1" || g.body.Price != 9.5 {
			t.Fatalf("forwarded body = %+v", g.body)
		}
		seen[g.to] = true
	}
	if len(seen) != 4 {
		t.Fatalf("per-target To headers = %v, want 4 distinct", seen)
	}
	if s := d.Stats(); s.Forwarded != 4 || s.SendErrors != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestForwardSpliceFallback: a notification from another SOAP stack —
// prefixed, so the scanner declines it and the fallback decoder captures it —
// forwards through the same splice template as any other. Both peers deliver
// it once, and the forwarded bytes pass a strict well-formedness check; the
// document carrying no namespaced attributes, the peers decode them on the
// scanner.
func TestForwardSpliceFallback(t *testing.T) {
	reg := metrics.NewRegistry()
	soap.InstallWireMetrics(reg)
	defer soap.InstallWireMetrics(nil)
	legacy := reg.CounterVec("soap_decode_total", "rung").With("legacy")
	bus := soap.NewMemBus()
	var mu sync.Mutex
	deliveries := map[string]int{}
	for _, peer := range []string{"mem://peer0", "mem://peer1"} {
		bus.Register(peer, soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
			var v struct {
				XMLName xml.Name `xml:"urn:px Data"`
				Value   string   `xml:",chardata"`
			}
			if err := req.Envelope.DecodeBody(&v); err != nil || v.Value != "pfx" {
				t.Errorf("%s: body %+v, %v", peer, v, err)
			}
			mu.Lock()
			deliveries[peer]++
			mu.Unlock()
			return nil, nil
		}))
	}
	wire := &wireTap{Caller: bus}
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://self", Caller: wire, RNG: rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := soap.Decode([]byte(`<s:Envelope xmlns:s="http://www.w3.org/2003/05/soap-envelope" xmlns:a="` + wsa.Namespace + `" xmlns:g="` + Namespace + `"><s:Header>` +
		`<a:Action>` + ActionNotify + `</a:Action><a:MessageID>urn:uuid:pfx</a:MessageID>` +
		`<g:Gossip><g:InteractionID>urn:i</g:InteractionID><g:MessageID>urn:uuid:pfx</g:MessageID><g:Hops>2</g:Hops></g:Gossip>` +
		`</s:Header><s:Body><p:Data xmlns:p="urn:px">pfx</p:Data></s:Body></s:Envelope>`))
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Value() != 1 {
		t.Fatal("the prefixed notification was not decoded by the fallback")
	}
	gh, err := GossipHeaderFrom(env)
	if err != nil {
		t.Fatal(err)
	}
	state := newInteractionState(gh.InteractionID, ProtocolPushGossip, GossipParameters{Fanout: 2, Hops: 2, Targets: []string{"mem://peer0", "mem://peer1"}})
	d.spread(context.Background(), env, noticeOf(gh), state, pushTransfer)
	if deliveries["mem://peer0"] != 1 || deliveries["mem://peer1"] != 1 {
		t.Fatalf("deliveries = %v, want one at each peer", deliveries)
	}
	if s := d.Stats(); s.Forwarded != 2 || s.SendErrors != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if n := legacy.Value(); n != 1 {
		t.Fatalf("the peers decoded %d forwards on the fallback, want none", n-1)
	}
	if len(wire.msgs) != 2 {
		t.Fatalf("%d messages on the wire, want 2", len(wire.msgs))
	}
	for _, msg := range wire.msgs {
		if err := strictWellFormed(msg); err != nil {
			t.Fatalf("forwarded bytes: %v\n%s", err, msg)
		}
	}
}

// wireTap is a Caller that keeps a copy of every message it passes on.
type wireTap struct {
	soap.Caller
	msgs [][]byte
}

func (w *wireTap) SendEncoded(ctx context.Context, to string, data []byte) error {
	w.msgs = append(w.msgs, bytes.Clone(data))
	return w.Caller.SendEncoded(ctx, to, data)
}

// strictWellFormed is the soap package's strict oracle (wellFormed in its
// tests), for bytes core sends: Go's decoder takes a start tag that repeats
// an attribute, and a prefix nobody declared, and other XML stacks do not.
func strictWellFormed(data []byte) error {
	d := xml.NewDecoder(bytes.NewReader(data))
	var scopes [][]string // the prefixes each open element declares
	for {
		tok, err := d.RawToken()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			var declared []string
			for i, a := range t.Attr {
				if slices.ContainsFunc(t.Attr[:i], func(b xml.Attr) bool { return b.Name == a.Name }) {
					return fmt.Errorf("<%s> repeats attribute %s:%s", t.Name.Local, a.Name.Space, a.Name.Local)
				}
				if a.Name.Space == "xmlns" {
					declared = append(declared, a.Name.Local)
				}
			}
			scopes = append(scopes, declared)
			inScope := func(prefix string) bool {
				return prefix == "" || prefix == "xml" || prefix == "xmlns" ||
					slices.ContainsFunc(scopes, func(s []string) bool { return slices.Contains(s, prefix) })
			}
			if !inScope(t.Name.Space) || slices.ContainsFunc(t.Attr, func(a xml.Attr) bool { return !inScope(a.Name.Space) }) {
				return fmt.Errorf("<%s> uses an undeclared prefix", t.Name.Local)
			}
		case xml.EndElement:
			scopes = scopes[:len(scopes)-1]
		}
	}
}

// TestStoreSharesInboundBytes: what the store keeps of a notification
// delivered over MemBus — its gossip header and body — is intact after the
// bus has recycled the inbound buffer and its decoded request.
func TestStoreSharesInboundBytes(t *testing.T) {
	bus := soap.NewMemBus()
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://self", Caller: bus, RNG: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://self", d.Handler())
	gh := GossipHeader{InteractionID: "urn:i", MessageID: "urn:uuid:s1", Hops: 0}
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		To: "mem://self", Action: ActionNotify, MessageID: wsa.MessageID(gh.MessageID),
	}); err != nil {
		t.Fatal(err)
	}
	if err := SetGossipHeader(env, gh); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(quoteBody{Symbol: "SHR", Price: 1}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Send(context.Background(), "mem://self", env); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	held, ok := d.m.Get(gossip.IDSum(gh.MessageID))
	d.mu.Unlock()
	if !ok {
		t.Fatal("notification not stored")
	}
	stored := held.Envelope()
	var q quoteBody
	if err := stored.DecodeBody(&q); err != nil {
		t.Fatal(err)
	}
	if q.Symbol != "SHR" {
		t.Fatalf("stored body = %+v", q)
	}
	if _, err := GossipHeaderFrom(stored); err != nil {
		t.Fatalf("stored gossip header: %v", err)
	}
}

// TestStatsConcurrent: the atomic counters tolerate concurrent updates from
// handler goroutines without the disseminator mutex (run under -race).
func TestStatsConcurrent(t *testing.T) {
	bus := soap.NewMemBus()
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://self", Caller: bus, RNG: rand.New(rand.NewSource(6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://self", d.Handler())
	const workers = 8
	const msgs = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				gh := GossipHeader{
					InteractionID: "urn:i",
					MessageID:     "urn:uuid:c" + strconv.Itoa(w) + "-" + strconv.Itoa(i),
					Hops:          0,
				}
				env := soap.NewEnvelope()
				if err := env.SetAddressing(wsa.Headers{
					To: "mem://self", Action: ActionNotify, MessageID: wsa.MessageID(gh.MessageID),
				}); err != nil {
					t.Error(err)
					return
				}
				if err := SetGossipHeader(env, gh); err != nil {
					t.Error(err)
					return
				}
				if err := env.SetBody(quoteBody{Symbol: "CC", Price: float64(i)}); err != nil {
					t.Error(err)
					return
				}
				if err := bus.Send(context.Background(), "mem://self", env); err != nil {
					t.Error(err)
					return
				}
				_ = d.Stats() // concurrent snapshot reads
			}
		}(w)
	}
	wg.Wait()
	s := d.Stats()
	if s.Received != workers*msgs || s.Delivered != workers*msgs {
		t.Fatalf("stats = %+v, want %d received/delivered", s, workers*msgs)
	}
}
