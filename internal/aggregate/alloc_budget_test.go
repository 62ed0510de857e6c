package aggregate

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/testkit"
	"wsgossip/internal/transport"
	"wsgossip/internal/wscoord"
)

// Allocation-budget regression guard for the windowed per-exchange hot
// path: one full acked exchange — encode and send a share, decode and
// absorb it, encode and send the ack, decode and commit it. A million-node
// window runs this path fanout×nodes times per round, so its cost must not
// silently regress. The budget is committed in testdata/alloc_budget.json;
// CI runs this test on every push.

// staticClock pins virtual time so no epoch roll happens inside the
// measured loop. It sits exactly on an epoch boundary so both nodes
// contribute from their first roll (mid-window creation defers to the next
// boundary and would leave the pair passive).
type staticClock struct{ now time.Duration }

func (c staticClock) Now() time.Duration { return c.now }
func (c staticClock) AfterFunc(time.Duration, func()) func() bool {
	panic("aggregate: alloc bench must not schedule timers")
}

// loopback is a two-endpoint synchronous fabric: Send invokes the peer's
// handler inline, so one Tick completes the whole share→absorb→ack→commit
// cycle before returning.
type loopback struct {
	handlers map[string]transport.Handler
}

type loopEndpoint struct {
	fab  *loopback
	addr string
}

func (e *loopEndpoint) Addr() string { return e.addr }
func (e *loopEndpoint) Send(ctx context.Context, msg transport.Message) error {
	h := e.fab.handlers[msg.To]
	if h == nil {
		return transport.ErrUnreachable
	}
	msg.From = e.addr
	return h(ctx, msg)
}
func (e *loopEndpoint) SetHandler(h transport.Handler) { e.fab.handlers[e.addr] = h }

func newExchangePair(t testing.TB) (*SimNode, *SimNode) {
	t.Helper()
	fab := &loopback{handlers: make(map[string]transport.Handler)}
	clk := staticClock{now: 2 * time.Second}
	mk := func(addr, peer string, root bool) *SimNode {
		ep := &loopEndpoint{fab: fab, addr: addr}
		n, err := NewSimNode(SimNodeConfig{
			Endpoint: ep,
			Peers:    gossip.NewStaticPeers([]string{peer}),
			Fanout:   1,
			TaskID:   "bench",
			Func:     FuncAvg,
			Value:    1,
			Root:     root,
			RNG:      rand.New(rand.NewSource(1)),
			Window:   time.Second,
			Clock:    clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		n.Register(mux)
		mux.Bind(ep)
		return n
	}
	a := mk("a", "b", true)
	b := mk("b", "a", false)
	return a, b
}

// allocBudget is testdata/alloc_budget.json.
type allocBudget struct {
	MaxAllocs        float64 `json:"windowed_exchange_max_allocs"`
	ServiceMaxAllocs float64 `json:"service_exchange_max_allocs"`
	ShareIntake      float64 `json:"share_intake_max_allocs"`
	AckIntake        float64 `json:"ack_intake_max_allocs"`
	TickTwoTasks     float64 `json:"service_tick_two_tasks_max_allocs"`
	ExchangeSend     float64 `json:"exchange_send_max_allocs"`
	ExchangeKnown    float64 `json:"exchange_send_known_max_allocs"`
	AckSend          float64 `json:"ack_send_max_allocs"`
}

func TestWindowedExchangeAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	a, b := newExchangePair(t)
	ctx := context.Background()
	// Warm up: first tick rolls the epoch and sizes the maps.
	a.Tick(ctx)
	b.Tick(ctx)
	allocs := testing.AllocsPerRun(200, func() {
		a.Tick(ctx)
	})
	st := a.Stats()
	if st.Commits == 0 || st.Recovered != 0 {
		t.Fatalf("bench pair did not exercise the commit path: %+v", st)
	}
	if a.Outstanding() != 0 {
		t.Fatalf("outstanding = %g after synchronous acks, want 0", a.Outstanding())
	}
	if e := a.MassError(); e != 0 {
		t.Fatalf("mass error = %g, want exactly 0", e)
	}
	if allocs > budget.MaxAllocs {
		t.Errorf("windowed exchange = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			allocs, budget.MaxAllocs)
	}
	t.Logf("windowed exchange: %.1f allocs/op (budget %.0f)", allocs, budget.MaxAllocs)
}

// serviceExchangeTask is the continuous task of newServiceExchangePair.
const serviceExchangeTask = "urn:uuid:service-exchange"

// newServiceExchangePair is newExchangePair on the production binding: two
// Services on one MemBus, the clock pinned on an epoch boundary. a roots a
// continuous task whose only target is b; b learns the task from a's first
// share — first contact: it reads the coordination context off the message
// and tries to register, in vain, there being no coordinator, so it joins
// without targets and from then on only absorbs and acks. Its first ack
// proves it holds the task, so every later share goes without the context.
// One a.Tick is thus exactly one share and its ack, and MemBus drains both
// before Tick returns.
func newServiceExchangePair(t testing.TB) (a, b *Service) {
	t.Helper()
	bus := soap.NewMemBus()
	clk := clock.NewVirtual()
	clk.Advance(2 * time.Second)
	mk := func(addr string) *Service {
		svc, err := NewService(ServiceConfig{
			Address: addr, Caller: bus, Clock: clk,
			Value: func() float64 { return 1 },
			RNG:   rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, svc.Handler())
		return svc
	}
	a, b = mk("mem://a"), mk("mem://b")
	cctx := wscoord.CoordinationContext{
		Identifier:          serviceExchangeTask,
		CoordinationType:    core.CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://no-coordinator"},
	}
	params := core.AggregateParameters{Fanout: 1, Targets: []string{"mem://b"}}
	a.install(serviceExchangeTask, FuncAvg, time.Second, a.Address(), "", params, cctx)
	return a, b
}

// checkServiceExchange asserts the pair ran the share → absorb → ack →
// commit cycle it is meant to measure, n times at least.
func checkServiceExchange(t testing.TB, a, b *Service, n int64) {
	t.Helper()
	sa, sb := a.Stats(), b.Stats()
	if sa.SharesSent < n || sa.Commits < n || sa.Recovered != 0 || sa.Retries != 0 || sa.SendErrors != 0 {
		t.Fatalf("sender did not exercise the commit path %d times: %+v", n, sa)
	}
	if sb.PassiveJoins != 1 || sb.SharesAbsorbed < n || sb.AcksSent < n || sb.SharesSent != 0 {
		t.Fatalf("receiver did not absorb and ack %d times: %+v", n, sb)
	}
	if out, _ := a.Outstanding(serviceExchangeTask); out != 0 {
		t.Fatalf("outstanding = %g after synchronous acks, want 0", out)
	}
}

// TestServiceExchangeAllocBudget is the Service binding's companion of
// TestWindowedExchangeAllocBudget: one steady-state share and its ack
// between two Services over MemBus — envelopes, addressing, encode, decode
// and dispatch included; the share goes to a known holder, without the
// coordination context header. The context block is built once per task and
// wscoord.ContextFrom runs at first contact only;
// either one back on the per-message path (an xml.Marshal, an xml.Unmarshal)
// costs more than the budget's 15 % headroom.
func TestServiceExchangeAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	a, b := newServiceExchangePair(t)
	ctx := context.Background()
	// Warm up: first contact at b, and the maps sized on both sides.
	a.Tick(ctx)
	a.Tick(ctx)
	allocs := testing.AllocsPerRun(200, func() {
		a.Tick(ctx)
	})
	checkServiceExchange(t, a, b, 200)
	if allocs > budget.ServiceMaxAllocs {
		t.Errorf("service exchange = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)",
			allocs, budget.ServiceMaxAllocs)
	}
	t.Logf("service exchange: %.1f allocs/op (budget %.0f)", allocs, budget.ServiceMaxAllocs)
}

// TestShareAckIntakeAllocBudget: reading a received share or ack — every
// field, the text ones naming a function, peer, root and metric the node
// already knows — allocates nothing: the numbers parse in place, the rest of
// the text resolves through the intern table, and the TaskID stays on the
// wire until the binding finds its task with it.
func TestShareAckIntakeAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	share := shareBlock(&Share{
		TaskID: serviceExchangeTask, Function: string(FuncAvg), From: "mem://a", Sum: 1.5, Weight: 0.25,
		HasExtremes: true, Min: 1, Max: 2, WindowMillis: 1000, Epoch: 7, Seq: 1 << 40,
		Root: "mem://querier", Metric: "load",
	}).Raw
	ack := ackBlock(&ExchangeAck{TaskID: serviceExchangeTask, From: "mem://b", Epoch: 7, Seq: 1 << 40}).Raw
	for _, row := range []struct {
		what   string
		budget float64
		op     func()
	}{
		{"share intake", budget.ShareIntake, func() {
			if sh, id, err := decodeShare(share); err != nil || sh.Metric != "load" || string(id) != serviceExchangeTask {
				t.Fatalf("share = %+v (task %q), %v", sh, id, err)
			}
		}},
		{"ack intake", budget.AckIntake, func() {
			if a, id, err := decodeAck(ack); err != nil || a.From != "mem://b" || string(id) != serviceExchangeTask {
				t.Fatalf("ack = %+v (task %q), %v", a, id, err)
			}
		}},
	} {
		allocs := testing.AllocsPerRun(200, row.op)
		if allocs != row.budget {
			t.Errorf("%s = %.1f allocs/op, budget exactly %.0f (testdata/alloc_budget.json)", row.what, allocs, row.budget)
		}
		t.Logf("%s: %.1f allocs/op (budget %.0f)", row.what, allocs, row.budget)
	}
}

// twoTasks are the tasks of newTwoTaskTick, and of FuzzExchangeBatch's node.
var twoTasks = [2]string{"urn:uuid:tick-count", "urn:uuid:tick-load"}

// newTwoTaskTick is the batched round on the production binding: a Service
// rooting two continuous tasks at fanout 3 over a live view of exactly three
// peers, all on one MemBus with the clock pinned on an epoch boundary. Every
// round's one sample names all three peers, and each task takes the whole of
// it. Each peer learns both tasks from the first round's envelope — a
// passive join through each task's own context, whose registration fails,
// there being no coordinator — and from then on only absorbs and acks; its
// first acks prove it holds both, so later envelopes carry no context. One
// a.Tick is thus three exchange envelopes of two shares each and three ack
// envelopes of two acks each, and MemBus drains them all before it returns.
func newTwoTaskTick(t testing.TB) (a *Service, peers []*Service) {
	t.Helper()
	bus := soap.NewMemBus()
	clk := clock.NewVirtual()
	clk.Advance(2 * time.Second)
	addrs := []string{"mem://b", "mem://c", "mem://d"}
	mk := func(addr string, view core.PeerView) *Service {
		svc, err := NewService(ServiceConfig{
			Address: addr, Caller: bus, Clock: clk, Peers: view,
			Value: func() float64 { return 1 },
			RNG:   rand.New(rand.NewSource(1)),
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, svc.Handler())
		return svc
	}
	a = mk("mem://a", gossip.NewStaticPeers(addrs))
	for _, addr := range addrs {
		peers = append(peers, mk(addr, nil))
	}
	for _, id := range twoTasks {
		cctx := wscoord.CoordinationContext{
			Identifier:          id,
			CoordinationType:    core.CoordinationTypeGossip,
			RegistrationService: wscoord.ServiceRef{Address: "mem://no-coordinator"},
		}
		a.install(id, FuncAvg, time.Second, a.Address(), "", core.AggregateParameters{Fanout: 3}, cctx)
	}
	return a, peers
}

// TestServiceTickTwoTasksAllocBudget: one round of two tasks at fanout 3 —
// the shared sample, the six shares split, three batched envelopes written,
// sent, decoded, absorbed and answered by three ack envelopes, and six acks
// committed. The budget is exact.
func TestServiceTickTwoTasksAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	a, peers := newTwoTaskTick(t)
	ctx := context.Background()
	a.Tick(ctx)
	a.Tick(ctx)
	before := a.Stats()
	allocs := testing.AllocsPerRun(200, func() {
		a.Tick(ctx)
	})
	after := a.Stats()
	if got := after.SharesSent - before.SharesSent; got != 201*6 || after.Commits-before.Commits != got || after.Retries != 0 || after.SendErrors != 0 {
		t.Fatalf("sender did not send and commit six shares a round: %+v -> %+v", before, after)
	}
	for i, p := range peers {
		if st := p.Stats(); st.PassiveJoins != 2 || st.AcksSent != st.SharesAbsorbed || st.SharesSent != 0 {
			t.Fatalf("peer %d did not join both tasks and only absorb and ack: %+v", i, st)
		}
	}
	if allocs != budget.TickTwoTasks {
		t.Errorf("two-task tick = %.1f allocs/op, budget exactly %.0f (testdata/alloc_budget.json)", allocs, budget.TickTwoTasks)
	}
	t.Logf("two-task tick: %.1f allocs/op (budget %.0f)", allocs, budget.TickTwoTasks)
}

// BenchmarkServiceTickTwoTasks measures that round.
func BenchmarkServiceTickTwoTasks(b *testing.B) {
	a, _ := newTwoTaskTick(b)
	ctx := context.Background()
	a.Tick(ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Tick(ctx)
	}
}

// BenchmarkShareExchangeService measures that same exchange.
func BenchmarkShareExchangeService(b *testing.B) {
	a, peer := newServiceExchangePair(b)
	ctx := context.Background()
	a.Tick(ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Tick(ctx)
	}
	b.StopTimer()
	checkServiceExchange(b, a, peer, int64(b.N))
}

// exchangeSends is what a round sends one peer, and what the peer answers:
// two tasks' shares in one exchange envelope — with both tasks' contexts, to
// a peer not known to hold them (shares), and with none, to a known holder
// (known) — and their two acks in one ack envelope, each sent over a MemBus
// on which the peer is a no-op handler.
func exchangeSends(tb testing.TB) (shares, known, acks func()) {
	tb.Helper()
	bus := soap.NewMemBus()
	bus.Register("mem://b", soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) {
		return nil, nil
	}))
	ctx := context.Background()
	var batch, held []staged
	var answers []ExchangeAck
	for i, id := range twoTasks {
		cctx := wscoord.CoordinationContext{
			Identifier:          id,
			CoordinationType:    core.CoordinationTypeGossip,
			RegistrationService: wscoord.ServiceRef{Address: "mem://coordinator"},
		}
		sh := Share{
			TaskID: id, Function: string(FuncAvg), From: "mem://a", Sum: 1.5, Weight: 0.25,
			WindowMillis: 1000, Epoch: 7, Seq: uint64(i + 1), Root: "mem://a",
		}
		st := staged{cctx: contextBlock(cctx), p: &pendingShare{to: "mem://b", share: sh}, join: true}
		batch = append(batch, st)
		st.join = false
		held = append(held, st)
		answers = append(answers, ExchangeAck{TaskID: id, From: "mem://b", Epoch: 7, Seq: uint64(i + 1)})
	}
	shares = func() {
		if err := sendShareBatch(ctx, bus, batch); err != nil {
			tb.Fatal(err)
		}
	}
	known = func() {
		if err := sendShareBatch(ctx, bus, held); err != nil {
			tb.Fatal(err)
		}
	}
	acks = func() {
		if err := sendAcks(ctx, bus, "mem://b", answers); err != nil {
			tb.Fatal(err)
		}
	}
	return shares, known, acks
}

// TestExchangeSendAllocBudget: an exchange envelope of two shares, with and
// without the tasks' contexts, and an ack envelope of two acks are each
// written — the message ID, the tasks' prebuilt context blocks, and every
// share or ack from its fields — straight into one pooled wire buffer, which
// the bus recycles. The sends allocate nothing, and neither does the
// receiver, whose decoded request holds the two body children inline. The
// budgets are exact.
func TestExchangeSendAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[allocBudget](t)
	shares, known, acks := exchangeSends(t)
	for _, row := range []struct {
		what   string
		budget float64
		op     func()
	}{
		{"exchange send", budget.ExchangeSend, shares},
		{"exchange send to a known holder", budget.ExchangeKnown, known},
		{"ack send", budget.AckSend, acks},
	} {
		allocs := testing.AllocsPerRun(200, row.op)
		if allocs != row.budget {
			t.Errorf("%s = %.1f allocs/op, budget exactly %.0f (testdata/alloc_budget.json)", row.what, allocs, row.budget)
		}
		t.Logf("%s: %.1f allocs/op (budget %.0f)", row.what, allocs, row.budget)
	}
}

func BenchmarkExchangeSend(b *testing.B) {
	shares, _, _ := exchangeSends(b)
	b.ReportAllocs()
	for range b.N {
		shares()
	}
}

func BenchmarkAckSend(b *testing.B) {
	_, _, acks := exchangeSends(b)
	b.ReportAllocs()
	for range b.N {
		acks()
	}
}
