package scenario

import (
	"encoding/xml"
	"testing"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/core"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// TestBlockNamesMatchProbe: soap names a marshaled block from its start tag
// instead of re-parsing it. For every header and body type the protocol
// layers put on the wire, that name must be the one the xml.Unmarshal probe
// it replaced reports (membership and probe pin their unexported bodies in
// their own packages).
func TestBlockNamesMatchProbe(t *testing.T) {
	cctx := wscoord.CoordinationContext{
		Identifier: "urn:uuid:ctx", ExpiresMillis: 5000, CoordinationType: core.CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://coordinator"},
	}
	for _, v := range []any{
		core.GossipHeader{InteractionID: "i", MessageID: "m", Hops: 3, Protocol: core.ProtocolPullGossip},
		core.GossipParameters{Fanout: 3, Hops: 4, Style: "push", Targets: []string{"mem://a", "mem://b"}},
		core.AggregateParameters{Fanout: 2, Hops: 4, Targets: []string{"mem://a"}},
		core.SubscribeRequest{Endpoint: "mem://a", Role: core.RoleDisseminator, Protocols: []string{core.ProtocolPushGossip}},
		core.SubscribeResponse{Accepted: true},
		core.ReplicateSubscription{Endpoint: "mem://a", Role: core.RoleConsumer},
		core.ReplicateActivity{Context: cctx},
		core.Announce{InteractionID: "i", MessageID: "m", Hops: 2, Holder: "mem://a"},
		core.Fetch{MessageID: "m", Requester: "mem://b"},
		core.PullRequest{Requester: "mem://b", Sums: "AAAAAAAAAAA=", Truncated: true, Max: 16},
		core.Digest{Sender: "mem://a", Sums: "AAAAAAAAAAA="},
		core.Digest{},
		cctx,
		wscoord.CreateCoordinationContext{CoordinationType: core.CoordinationTypeGossip},
		wscoord.CreateCoordinationContextResponse{CoordinationContext: cctx},
		wscoord.Register{ProtocolIdentifier: core.ProtocolPushGossip, ParticipantProtocolService: wscoord.ServiceRef{Address: "mem://a"}},
		wscoord.RegisterResponse{CoordinatorProtocolService: wscoord.ServiceRef{Address: "mem://c"}},
		aggregate.Start{TaskID: "t", Function: "avg", Root: "mem://a", Hops: 3, WindowMillis: 1000, Metric: "load"},
		aggregate.Share{TaskID: "t", Function: "avg", From: "mem://a", Sum: 1.5, Weight: 0.5, HasExtremes: true, Min: 1, Max: 2},
		aggregate.ExchangeAck{TaskID: "t", From: "mem://a", Epoch: 2, Seq: 7},
		soap.Fault{},
	} {
		raw, err := xml.Marshal(v)
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		var probe struct {
			XMLName xml.Name
		}
		if err := xml.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		env := soap.NewEnvelope()
		if err := env.SetBody(v); err != nil {
			t.Fatalf("%T as body: %v", v, err)
		}
		if err := env.AddHeader(v); err != nil {
			t.Fatalf("%T as header: %v", v, err)
		}
		if got := env.BodyName(); got != probe.XMLName {
			t.Errorf("%T body named %v, probe says %v", v, got, probe.XMLName)
		}
		if _, ok := env.HeaderBlock(probe.XMLName.Space, probe.XMLName.Local); !ok {
			t.Errorf("%T header not found under the probe's name %v", v, probe.XMLName)
		}
	}
}
