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
)

// soapNode is one membership service riding the in-memory SOAP binding.
type soapNode struct {
	svc *Service
	ep  *SOAPEndpoint
}

func newSOAPNode(t *testing.T, bus *soap.MemBus, clk transport.Clock, addr string, seed int64) *soapNode {
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
