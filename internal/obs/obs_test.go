package obs

import (
	"context"
	"encoding/json"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fmt"
	"math"
	"math/rand"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/metrics"
	"wsgossip/internal/probe"
	"wsgossip/internal/soap"
)

func testHealth() Health {
	return Health{
		Node:       "http://node-a/",
		Role:       "disseminator",
		Activities: 3,
		Peers:      []string{"http://node-b/"},
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("gossip_received_total").Add(7)
	srv := httptest.NewServer(Handler(reg, testHealth))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q, want Prometheus 0.0.4 text", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "gossip_received_total 7") {
		t.Fatalf("exposition missing counter:\n%s", body)
	}
}

func TestHealthEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := httptest.NewServer(Handler(reg, testHealth))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc Health
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Node != "http://node-a/" || doc.Role != "disseminator" || doc.Activities != 3 {
		t.Fatalf("health document = %+v", doc)
	}
	if len(doc.Peers) != 1 || doc.Peers[0] != "http://node-b/" {
		t.Fatalf("peers = %v", doc.Peers)
	}
}

func TestMethodFiltering(t *testing.T) {
	srv := httptest.NewServer(Handler(metrics.NewRegistry(), nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s status = %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestMountFallsThrough(t *testing.T) {
	app := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	reg := metrics.NewRegistry()
	srv := httptest.NewServer(Mount(app, reg, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics through Mount status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/anything-else")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("fallthrough status = %d, want the app's 418", resp.StatusCode)
	}
}

// TestLoopsFromRunner checks the health document carries real runner
// introspection.
func TestLoopsFromRunner(t *testing.T) {
	v := clock.NewVirtual()
	r, err := core.NewRunner(core.RunnerConfig{
		Clock: v,
		Loops: []core.Loop{{
			Name:   "round",
			Period: 10 * time.Millisecond,
			Tick:   func(context.Context) {},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	v.Advance(50 * time.Millisecond)

	loops := LoopsFrom(r.LoopStates())
	if len(loops) != 1 || loops[0].Name != "round" || loops[0].Period != "10ms" {
		t.Fatalf("loops = %+v", loops)
	}
	if loops[0].Fires == 0 {
		t.Fatal("fires not carried through")
	}
}

// okCaller acknowledges every send; it exists to give the delivery plane a
// peer row to report.
type okCaller struct{}

func (okCaller) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}
func (okCaller) Send(context.Context, string, *soap.Envelope) error { return nil }
func (okCaller) SendEncoded(context.Context, string, []byte) error  { return nil }

// TestDeliverySection checks the health document carries real delivery-plane
// posture end to end through the JSON encoding.
func TestDeliverySection(t *testing.T) {
	if DeliveryFrom(nil) != nil {
		t.Fatal("nil plane must yield a nil (omitted) delivery section")
	}
	v := clock.NewVirtual()
	p := delivery.NewPlane(delivery.Config{Caller: okCaller{}, Clock: v})
	defer p.Close()
	env := soap.NewEnvelope()
	if err := env.SetBody(struct {
		XMLName xml.Name `xml:"urn:t x"`
	}{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(context.Background(), "urn:peer", env); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(metrics.NewRegistry(), func() Health {
		return Health{Node: "n", Delivery: DeliveryFrom(p)}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc Health
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Delivery == nil {
		t.Fatal("delivery section missing")
	}
	if doc.Delivery.Peers != 1 || len(doc.Delivery.PerPeer) != 1 {
		t.Fatalf("delivery = %+v", doc.Delivery)
	}
	pp := doc.Delivery.PerPeer[0]
	if pp.Addr != "urn:peer" || pp.Breaker != "closed" {
		t.Fatalf("per-peer row = %+v", pp)
	}
}

// TestProbeSection checks the health document carries the indirect-probe
// posture end to end through the JSON encoding.
func TestProbeSection(t *testing.T) {
	if ProbeFrom(nil) != nil {
		t.Fatal("nil prober must yield a nil (omitted) probe section")
	}
	var downs []string
	pr := probe.New(probe.Config{
		Self:   "urn:self",
		Caller: okCaller{},
		Clock:  clock.NewVirtual(),
		OnDown: func(addr string) { downs = append(downs, addr) },
	})
	// No peer provider: the round has no helpers, so OnDown fires
	// immediately and the round lands in the NoHelpers bucket.
	pr.Confirm("urn:peer")

	srv := httptest.NewServer(Handler(metrics.NewRegistry(), func() Health {
		return Health{Node: "n", Probe: ProbeFrom(pr)}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc Health
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Probe == nil {
		t.Fatal("probe section missing")
	}
	if doc.Probe.NoHelpers != 1 || doc.Probe.ConfirmedDown != 0 || doc.Probe.Pending != 0 {
		t.Fatalf("probe = %+v", doc.Probe)
	}
	if len(downs) != 1 || downs[0] != "urn:peer" {
		t.Fatalf("downs = %v", downs)
	}
}

// TestClusterSection checks the health document carries the continuous-query
// estimates end to end through the JSON encoding: a three-node continuous
// count over the in-memory bus, run past one epoch boundary so the frozen
// estimate is populated.
func TestClusterSection(t *testing.T) {
	if ClusterFrom(nil) != nil {
		t.Fatal("nil window must yield a nil (omitted) cluster section")
	}
	ctx := context.Background()
	bus := soap.NewMemBus()
	clk := clock.NewVirtual()
	coord := core.NewCoordinator(core.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(5)),
	})
	bus.Register("mem://coordinator", coord.Handler())
	var services []*aggregate.Service
	for i := 0; i < 3; i++ {
		addr := fmt.Sprintf("mem://obs-agg%d", i)
		svc, err := aggregate.NewService(aggregate.ServiceConfig{
			Address: addr,
			Caller:  bus,
			Clock:   clk,
			Values:  map[string]func() float64{"ones": func() float64 { return 1 }},
			RNG:     rand.New(rand.NewSource(100 + int64(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, svc.Handler())
		services = append(services, svc)
		if err := core.SubscribeClient(ctx, bus, "mem://coordinator", addr,
			core.RoleDisseminator, core.ProtocolAggregate); err != nil {
			t.Fatal(err)
		}
	}
	q, err := aggregate.NewQuerier(aggregate.QuerierConfig{
		Address:    "mem://obs-querier",
		Caller:     bus,
		Activation: "mem://coordinator",
		Clock:      clk,
		Values:     map[string]func() float64{"ones": func() float64 { return 1 }},
		RNG:        rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://obs-querier", q.Handler())
	if err := core.SubscribeClient(ctx, bus, "mem://coordinator", "mem://obs-querier",
		core.RoleDisseminator, core.ProtocolAggregate); err != nil {
		t.Fatal(err)
	}
	window, err := aggregate.NewWindow(aggregate.WindowConfig{
		Querier: q,
		Window:  200 * time.Millisecond,
		Queries: []aggregate.ContinuousQuery{{Name: "ones", Func: aggregate.FuncCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run past the first epoch boundary so a frozen estimate exists.
	for i := 0; i < 25; i++ {
		clk.Advance(20 * time.Millisecond)
		for _, svc := range services {
			svc.Tick(ctx)
		}
		window.Tick(ctx)
	}

	srv := httptest.NewServer(Handler(metrics.NewRegistry(), func() Health {
		return Health{Node: "n", Cluster: ClusterFrom(window)}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc Health
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Cluster == nil || len(doc.Cluster.Queries) != 1 {
		t.Fatalf("cluster section = %+v", doc.Cluster)
	}
	ce := doc.Cluster.Queries[0]
	if ce.Query != "ones" || ce.Function != "count" {
		t.Fatalf("query row = %+v", ce)
	}
	if !ce.Defined || ce.FrozenEpoch == 0 {
		t.Fatalf("no frozen estimate in health doc: %+v", ce)
	}
	// 3 services + the querier's own anchor participant.
	if math.Abs(ce.Estimate-4) > 0.05 {
		t.Fatalf("cluster count = %v, want about 4", ce.Estimate)
	}
}
