package membership

import (
	"context"
	"fmt"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
	"wsgossip/internal/testkit"
	"wsgossip/internal/transport"
	"wsgossip/internal/wsa"
)

// Allocation-budget regression guard for the view exchange every node sends
// and merges each membership round. The budgets are committed in
// testdata/alloc_budget.json; CI runs this test on every push.

type allocBudget struct {
	MergeExchange float64 `json:"merge_exchange_32_max_allocs"`
	EncodeView    float64 `json:"encode_view_32_max_allocs"`
	SendExchange  float64 `json:"send_exchange_32_max_allocs"`
}

// dropCaller is a SOAP binding whose sends go nowhere.
type dropCaller struct{}

func (dropCaller) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}
func (dropCaller) Send(context.Context, string, *soap.Envelope) error { return nil }
func (dropCaller) SendEncoded(context.Context, string, []byte) error  { return nil }

// viewBench is a Service behind its SOAPEndpoint that knows 32 peers, and a
// received exchange from one of them listing all 32 and the receiver: the
// steady state of a converged 33-node overlay, where every entry names a
// member the view already holds.
type viewBench struct {
	svc *Service
	ep  *SOAPEndpoint
	req *soap.Request
}

func newViewBench(t testing.TB) *viewBench {
	t.Helper()
	ep := NewSOAPEndpoint("mem://self", dropCaller{})
	svc, err := New(Config{
		Endpoint: ep, Clock: clock.NewVirtual(),
		Fanout: 3, SuspectAfter: time.Second, RemoveAfter: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux()
	svc.Register(mux)
	mux.Bind(ep)
	view := envelopeBody{From: "mem://peer00", Members: []wireEntry{{Addr: "mem://self", Heartbeat: 1}}}
	for i := 0; i < 32; i++ {
		view.Members = append(view.Members, wireEntry{Addr: fmt.Sprintf("mem://peer%02d", i), Heartbeat: uint64(100 + i)})
	}
	out := soap.NewEnvelope()
	if err := out.SetAddressing(wsa.Headers{To: "mem://self", Action: ActionExchange, MessageID: wsa.NewMessageID()}); err != nil {
		t.Fatal(err)
	}
	out.SetBodyBlock(soap.Block{XMLName: bodyName, Raw: writeBody(view)})
	wire, err := out.Encode()
	if err != nil {
		t.Fatal(err)
	}
	env, err := soap.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	b := &viewBench{svc: svc, ep: ep, req: &soap.Request{Envelope: env}}
	b.merge(t) // first contact: the 32 peers join the view
	if got := svc.Size(); got != 32 {
		t.Fatalf("view holds %d members, want 32", got)
	}
	return b
}

// merge delivers the exchange through the endpoint into the Service.
func (b *viewBench) merge(t testing.TB) {
	if _, err := b.ep.handleSOAP(context.Background(), b.req); err != nil {
		t.Fatal(err)
	}
}

// encode writes the view as a round does.
func (b *viewBench) encode() []byte {
	b.svc.mu.Lock()
	defer b.svc.mu.Unlock()
	return b.svc.m.view()
}

// TestMembershipAllocBudget: merging a 32-entry exchange of known members
// allocates nothing — the Service reads the request's own bytes during the
// call and looks every entry up in place — and writing a 32-member view is its one buffer. Sending that view through
// an endpoint over MemBus costs nothing more: the message ID and the body are
// written straight into a pooled wire buffer, which the bus recycles.
func TestMembershipAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	b := newViewBench(t)
	send := viewSender(t, b.encode())
	exchanges := b.svc.stats.exchanges.Value()
	for _, row := range []struct {
		what   string
		budget float64
		op     func()
	}{
		{"merge a 32-entry exchange of known members", budget.MergeExchange, func() { b.merge(t) }},
		{"encode a 32-member view", budget.EncodeView, func() { _ = b.encode() }},
		{"send a 32-member view", budget.SendExchange, send},
	} {
		allocs := testing.AllocsPerRun(200, row.op)
		if allocs != row.budget {
			t.Errorf("%s = %.1f allocs/op, budget exactly %.0f (testdata/alloc_budget.json)", row.what, allocs, row.budget)
		}
		t.Logf("%s: %.1f allocs/op (budget %.0f)", row.what, allocs, row.budget)
	}
	if got := b.svc.stats.exchanges.Value() - exchanges; got != 201 {
		t.Fatalf("%d exchanges merged, want 201", got)
	}
	if got := b.svc.Size(); got != 32 {
		t.Fatalf("view holds %d members after the merges, want 32", got)
	}
}

func BenchmarkMembershipMerge(b *testing.B) {
	vb := newViewBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vb.merge(b)
	}
}

func BenchmarkMembershipEncode(b *testing.B) {
	vb := newViewBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = vb.encode()
	}
}

// viewSender is a send of body, a view, as a round's exchange through an
// endpoint over MemBus to a peer whose handler does nothing.
func viewSender(tb testing.TB, body []byte) func() {
	bus := soap.NewMemBus()
	bus.Register("mem://peer", soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) {
		return nil, nil
	}))
	ep := NewSOAPEndpoint("mem://self", bus)
	return func() {
		if err := ep.Send(context.Background(), transport.Message{To: "mem://peer", Action: ActionExchange, Body: body}); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkMembershipSend(b *testing.B) {
	send := viewSender(b, newViewBench(b).encode())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
}
