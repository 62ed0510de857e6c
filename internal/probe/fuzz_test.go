package probe

import (
	"context"
	"encoding/xml"
	"errors"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// countingCaller counts the one-way sends a prober makes and delivers none.
type countingCaller struct{ sends int }

func (c *countingCaller) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, errors.New("probe fuzz: no request-response traffic expected")
}

func (c *countingCaller) Send(context.Context, string, *soap.Envelope) error {
	c.sends++
	return nil
}

func (c *countingCaller) SendEncoded(context.Context, string, []byte) error {
	c.sends++
	return nil
}

// fuzzTimeout is the prober's probe timeout in FuzzProbeActions.
const fuzzTimeout = time.Second

// FuzzProbeActions drives an arbitrary body through each of the prober's
// four actions, at a prober that holds one open confirmation round
// (nonce "mem://self#1", target "mem://target") and one relayed ping (nonce
// "mem://self*2"), so a body naming either reaches the resolving branch.
// Whatever the body, the prober must not panic, must answer one inbound
// message with at most one send, and must hold no relay entry — nor an open
// round — once the clock has advanced by the probe timeout.
func FuzzProbeActions(f *testing.F) {
	for _, body := range []any{
		pingReqBody{Origin: "mem://origin", Target: "mem://target", Nonce: "mem://origin#7"},
		pingReqBody{Origin: "", Target: "mem://self", Nonce: ""},
		pingBody{From: "mem://helper", Nonce: "mem://helper*3"},
		pingAckBody{From: "mem://target", Nonce: "mem://self*2"},
		pingAckBody{From: "mem://target", Nonce: "mem://self*9"},
		pingReqAckBody{From: "mem://helper", Target: "mem://target", Nonce: "mem://self#1"},
		pingReqAckBody{From: "mem://helper", Target: "mem://target", Nonce: "mem://self#2"},
	} {
		raw, err := xml.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`<PingReq xmlns="urn:wsgossip:probe"><Origin>a</Origin><Target>b</Target><Target>c</Target></PingReq>`))
	f.Add([]byte(`<Ping xmlns="urn:wsgossip:probe">`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		clk := clock.NewVirtual()
		out := &countingCaller{}
		p := New(Config{
			Self:    "mem://self",
			Caller:  out,
			Clock:   clk,
			Peers:   gossip.NewStaticPeers([]string{"mem://self", "mem://helper", "mem://target"}),
			K:       1,
			Timeout: fuzzTimeout,
		})
		d := soap.NewDispatcher()
		p.RegisterActions(d)
		deliver := func(action string, body soap.Block) {
			env := soap.NewEnvelope()
			if err := env.SetAddressing(wsa.Headers{To: "mem://self", Action: action, MessageID: wsa.NewMessageID()}); err != nil {
				t.Fatal(err)
			}
			env.SetBodyBlock(body)
			before := out.sends
			_, _ = d.HandleSOAP(context.Background(), &soap.Request{Envelope: env})
			if sent := out.sends - before; sent > 1 {
				t.Fatalf("%s with body %q sent %d messages, want at most 1", action, body.Raw, sent)
			}
		}
		p.Confirm("mem://target")
		relay, err := soap.MarshalBlock(pingReqBody{Origin: "mem://origin", Target: "mem://target", Nonce: "mem://origin#1"})
		if err != nil {
			t.Fatal(err)
		}
		deliver(ActionPingReq, relay)
		if len(p.m.rounds) != 1 || len(p.m.relays) != 1 {
			t.Fatalf("setup: %d open rounds and %d relayed pings, want 1 and 1", len(p.m.rounds), len(p.m.relays))
		}
		for _, action := range []string{ActionPingReq, ActionPing, ActionPingAck, ActionPingReqAck} {
			deliver(action, soap.Block{Raw: raw})
		}
		clk.Advance(fuzzTimeout)
		if len(p.m.relays) != 0 || len(p.m.rounds) != 0 || len(p.m.queue) != 0 {
			t.Fatalf("after the probe timeout: %d relayed pings, %d open rounds and %d queued expiries left, want none (body %q)",
				len(p.m.relays), len(p.m.rounds), len(p.m.queue), raw)
		}
	})
}
