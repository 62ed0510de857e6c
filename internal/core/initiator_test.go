package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"wsgossip/internal/soap"
)

// FuzzNotifyWire: what Notify writes is, byte for byte, the notification
// built as an envelope field by field and fanned out (builtNotification and
// soap.Fanout), for any body text, hop budget, protocol and interaction ID,
// and whether the interaction's context changed since Start or not.
func FuzzNotifyWire(f *testing.F) {
	f.Add("WSG", 1.5, 4, ProtocolPushGossip, "urn:uuid:interaction", false)
	f.Add(`<&"'>`, -0.25, 0, ProtocolPullGossip, "urn:uuid:a&b", true)
	f.Add("", 0.0, 1<<20, "", "", false)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, text string, price float64, hops int, protocol, interaction string, changed bool) {
		inter := goldenInteraction(t, interaction, protocol)
		inter.Params.Hops = hops
		inter.Params.Targets = []string{"mem://a", "mem://b&c"}
		if changed {
			inter.Context.ExpiresMillis = 30000
		}
		body := quoteBody{Symbol: text, Price: price}
		got := &wireRecorder{}
		init, err := NewInitiator(InitiatorConfig{Address: "mem://init", Caller: got, Activation: "mem://coordinator"})
		if err != nil {
			t.Fatal(err)
		}
		id, sent, err := init.Notify(ctx, inter, body)
		env, wantErr := builtNotification(inter, id, body)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Notify error %v, built %v", err, wantErr)
		}
		if err != nil {
			return
		}
		want := &wireRecorder{}
		if wantSent, _ := soap.Fanout(ctx, want, env, inter.Params.Targets); sent != wantSent {
			t.Fatalf("Notify sent %d, built %d", sent, wantSent)
		}
		if len(got.msgs) != len(want.msgs) {
			t.Fatalf("Notify wrote %d messages, built %d", len(got.msgs), len(want.msgs))
		}
		for i := range want.msgs {
			if !bytes.Equal(got.msgs[i], want.msgs[i]) {
				t.Fatalf("copy %d:\nNotify %s\n built %s", i, got.msgs[i], want.msgs[i])
			}
		}
	})
}

// TestNotifyConcurrentUse: initiators on several goroutines publish distinct
// bodies over one MemBus at once, their bodies marshaled through the shared
// pools, and every receiver decodes exactly the bodies it was sent, in order,
// each under the message ID its Notify returned.
func TestNotifyConcurrentUse(t *testing.T) {
	const goroutines, notes = 8, 50
	ctx := context.Background()
	bus := soap.NewMemBus()
	type receipt struct{ symbol, id string }
	var mu sync.Mutex
	received := map[string][]receipt{}
	for g := range goroutines {
		for _, r := range []string{"a", "b"} {
			addr := fmt.Sprintf("mem://g%d%s", g, r)
			bus.Register(addr, soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
				var q quoteBody
				if err := req.Envelope.DecodeBody(&q); err != nil {
					return nil, err
				}
				gh, err := GossipHeaderFrom(req.Envelope)
				if err != nil {
					return nil, err
				}
				if gh.MessageID != string(req.Envelope.Addressing().MessageID) {
					return nil, fmt.Errorf("gossip header names %s, addressing %s", gh.MessageID, req.Envelope.Addressing().MessageID)
				}
				mu.Lock()
				received[addr] = append(received[addr], receipt{q.Symbol, gh.MessageID})
				mu.Unlock()
				return nil, nil
			}))
		}
	}
	sentIDs := make([][]receipt, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		inter := goldenInteraction(t, fmt.Sprintf("urn:uuid:interaction-%d", g), ProtocolPushGossip)
		inter.Params.Targets = []string{fmt.Sprintf("mem://g%da", g), fmt.Sprintf("mem://g%db", g)}
		init, err := NewInitiator(InitiatorConfig{Address: fmt.Sprintf("mem://init%d", g), Caller: bus, Activation: "mem://coordinator"})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range notes {
				symbol := fmt.Sprintf("g%d-%d<&>", g, i)
				id, sent, err := init.Notify(ctx, inter, quoteBody{Symbol: symbol, Price: float64(i)})
				if err != nil || sent != 2 {
					t.Errorf("goroutine %d: Notify sent %d, %v", g, sent, err)
					return
				}
				sentIDs[g] = append(sentIDs[g], receipt{symbol, string(id)})
			}
		}()
	}
	wg.Wait()
	for g := range goroutines {
		for _, r := range []string{"a", "b"} {
			addr := fmt.Sprintf("mem://g%d%s", g, r)
			if got := received[addr]; !slices.Equal(got, sentIDs[g]) {
				t.Errorf("%s received %v, want %v", addr, got, sentIDs[g])
			}
		}
	}
}
