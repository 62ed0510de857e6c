package core

import (
	"context"
	"encoding/xml"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// Tests of the encode-once wire path at the gossip layer: template fan-out,
// the splice-resistant fallback, and the lock-free stats counters.

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
	d.transfer(context.Background(), env, noticeOf(gh), state, pushTransfer)

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

// TestForwardSpliceFallback: an envelope whose body carries prefixed
// namespace declarations cannot go through the verbatim splice template;
// the fan-out must fall back to per-target encoding and still deliver.
func TestForwardSpliceFallback(t *testing.T) {
	bus := soap.NewMemBus()
	var mu sync.Mutex
	deliveries := 0
	handler := soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
		var v struct {
			XMLName xml.Name `xml:"urn:px Data"`
			Value   string   `xml:",chardata"`
		}
		if err := req.Envelope.DecodeBody(&v); err != nil {
			t.Errorf("fallback body: %v", err)
			return nil, nil
		}
		if v.Value != "pfx" {
			t.Errorf("fallback body value = %q", v.Value)
		}
		mu.Lock()
		deliveries++
		mu.Unlock()
		return nil, nil
	})
	bus.Register("mem://peer0", handler)
	bus.Register("mem://peer1", handler)
	d, err := NewDisseminator(DisseminatorConfig{
		Address: "mem://self", Caller: bus, RNG: rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	gh := GossipHeader{InteractionID: "urn:i", MessageID: "urn:uuid:pfx", Hops: 2}
	env := soap.NewEnvelope()
	if err := SetGossipHeader(env, gh); err != nil {
		t.Fatal(err)
	}
	// Hand-built block with a prefixed declaration: splice-resistant.
	env.Body.Blocks = []soap.Block{{
		XMLName: xml.Name{Space: "urn:px", Local: "Data"},
		Raw:     []byte(`<p:Data xmlns:p="urn:px">pfx</p:Data>`),
	}}
	if _, err := env.EncodeTemplate(); err == nil {
		t.Fatal("prefixed block unexpectedly spliceable; fallback not exercised")
	}
	state := newInteractionState(gh.InteractionID, ProtocolPushGossip, GossipParameters{Fanout: 2, Hops: 2, Targets: []string{"mem://peer0", "mem://peer1"}})
	d.transfer(context.Background(), env, noticeOf(gh), state, pushTransfer)
	if deliveries != 2 {
		t.Fatalf("fallback deliveries = %d, want 2", deliveries)
	}
	if s := d.Stats(); s.Forwarded != 2 || s.SendErrors != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestStoreSharesInboundBytes: the envelope store keeps a snapshot sharing
// the inbound capture, not a deep copy, and still serves intact fetches
// after the request envelope's headers are replaced (the forward path
// mutates block lists, never block bytes).
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
	stored, ok := d.m.Get(gossip.IDSum(gh.MessageID))
	d.mu.Unlock()
	if !ok {
		t.Fatal("notification not stored")
	}
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
