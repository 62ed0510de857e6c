package aggregate

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// The batched round: every share a round has for one peer travels in one
// exchange envelope, and the shares one envelope brings are answered by one
// ack envelope without a coordination context.

// wireLog records every exchange and ack envelope a cluster's nodes send.
// MemBus delivers one envelope at a time on the sending goroutine, so the
// exchange envelope a node is handling when it sends an ack envelope is the
// one that ack envelope answers.
type wireLog struct {
	bus *soap.MemBus
	// handling is the MessageID of the exchange envelope being handled.
	handling string
	sent     []sentEnvelope
}

// sentEnvelope is one recorded exchange or ack envelope.
type sentEnvelope struct {
	from, to, action, id string
	// answers is, for an ack envelope, the exchange envelope it answers.
	answers  string
	contexts []string
	shares   []Share
	acks     []ExchangeAck
}

// caller returns node from's Caller: the bus, recording what from sends.
func (l *wireLog) caller(from string) soap.Caller { return &recordingCaller{log: l, from: from} }

// handler wraps node h so the log knows which exchange envelope it handles.
func (l *wireLog) handler(h soap.Handler) soap.Handler {
	return soap.HandlerFunc(func(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
		if req.Envelope.Action() != ActionExchange {
			return h.HandleSOAP(ctx, req)
		}
		prev := l.handling
		l.handling = string(req.Envelope.Addressing().MessageID)
		defer func() { l.handling = prev }()
		return h.HandleSOAP(ctx, req)
	})
}

type recordingCaller struct {
	log  *wireLog
	from string
}

func (c *recordingCaller) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	return c.log.bus.Call(ctx, to, env)
}

func (c *recordingCaller) Send(ctx context.Context, to string, env *soap.Envelope) error {
	action := env.Action()
	if action == ActionExchange || action == ActionExchangeAck {
		rec := sentEnvelope{from: c.from, to: to, action: action, id: string(env.Addressing().MessageID)}
		for _, b := range env.Header.Blocks {
			if b.XMLName.Space == wscoord.Namespace && b.XMLName.Local == "CoordinationContext" {
				var cctx wscoord.CoordinationContext
				if err := b.Decode(&cctx); err != nil {
					return err
				}
				rec.contexts = append(rec.contexts, cctx.Identifier)
			}
		}
		for _, b := range env.Body.Blocks {
			if action == ActionExchange {
				sh, err := wholeShare(b.Raw)
				if err != nil {
					return err
				}
				rec.shares = append(rec.shares, sh)
			} else {
				a, id, err := decodeAck(b.Raw)
				if err != nil {
					return err
				}
				a.TaskID = string(id)
				rec.acks = append(rec.acks, a)
				rec.answers = c.log.handling
			}
		}
		c.log.sent = append(c.log.sent, rec)
	}
	return c.log.bus.Send(ctx, to, env)
}

// SendEncoded records and delivers data as Send does the envelope it holds.
func (c *recordingCaller) SendEncoded(ctx context.Context, to string, data []byte) error {
	env, err := soap.Decode(data)
	if err != nil {
		return err
	}
	return c.Send(ctx, to, env)
}

// batchCluster is n Services and a querier keeping three continuous queries,
// all sampling targets from one live view of the whole cluster, on a shared
// virtual clock over a recording MemBus.
type batchCluster struct {
	log      *wireLog
	clk      *clock.Virtual
	window   *Window
	querier  *Querier
	services []*Service
	regs     []*metrics.Registry // the services', then the querier's
	loads    []float64           // the services' load values; the querier's is 0
}

func newBatchCluster(t *testing.T, n int, seed int64, window time.Duration) *batchCluster {
	t.Helper()
	ctx := context.Background()
	bus := soap.NewMemBus()
	c := &batchCluster{log: &wireLog{bus: bus}, clk: clock.NewVirtual()}
	coord := core.NewCoordinator(core.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(seed)),
	})
	bus.Register("mem://coordinator", coord.Handler())
	all := []string{"mem://querier"}
	for i := 0; i < n; i++ {
		all = append(all, addrOf(i))
	}
	view := gossip.NewStaticPeers(all)
	for i := 0; i < n; i++ {
		addr := addrOf(i)
		load := float64(2*i + 1)
		reg := metrics.NewRegistry()
		svc, err := NewService(ServiceConfig{
			Address: addr,
			Caller:  c.log.caller(addr),
			Clock:   c.clk,
			Peers:   view,
			Values: map[string]func() float64{
				"ones": func() float64 { return 1 },
				"load": func() float64 { return load },
				"peak": func() float64 { return load },
			},
			RNG:     rand.New(rand.NewSource(seed + 100 + int64(i))),
			Metrics: reg,
		})
		if err != nil {
			t.Fatalf("NewService: %v", err)
		}
		bus.Register(addr, c.log.handler(svc.Handler()))
		c.services = append(c.services, svc)
		c.regs = append(c.regs, reg)
		c.loads = append(c.loads, load)
		if err := core.SubscribeClient(ctx, bus, "mem://coordinator", addr,
			core.RoleDisseminator, core.ProtocolAggregate); err != nil {
			t.Fatalf("subscribe %s: %v", addr, err)
		}
	}
	qreg := metrics.NewRegistry()
	q, err := NewQuerier(QuerierConfig{
		Address:    "mem://querier",
		Caller:     c.log.caller("mem://querier"),
		Activation: "mem://coordinator",
		Clock:      c.clk,
		Peers:      view,
		Values: map[string]func() float64{
			"ones": func() float64 { return 1 },
			"load": func() float64 { return 0 },
			"peak": func() float64 { return 0 },
		},
		RNG:     rand.New(rand.NewSource(seed + 7)),
		Metrics: qreg,
	})
	if err != nil {
		t.Fatalf("NewQuerier: %v", err)
	}
	bus.Register("mem://querier", c.log.handler(q.Handler()))
	if err := core.SubscribeClient(ctx, bus, "mem://coordinator", "mem://querier",
		core.RoleDisseminator, core.ProtocolAggregate); err != nil {
		t.Fatalf("subscribe querier: %v", err)
	}
	c.querier = q
	c.regs = append(c.regs, qreg)
	w, err := NewWindow(WindowConfig{
		Querier: q,
		Window:  window,
		Queries: []ContinuousQuery{
			{Name: "ones", Func: FuncCount},
			{Name: "load", Func: FuncAvg},
			{Name: "peak", Func: FuncMax},
		},
	})
	if err != nil {
		t.Fatalf("NewWindow: %v", err)
	}
	c.window = w
	return c
}

// nodes returns every participant: the services, then the querier's.
func (c *batchCluster) nodes() []*Service {
	return append(append([]*Service(nil), c.services...), c.querier.Service)
}

// heldTasks lists the IDs of the tasks svc holds, sorted.
func heldTasks(svc *Service) []string {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return slices.Clone(svc.m.ids)
}

// maxFanout is the largest fanout any of svc's tasks asks for.
func maxFanout(svc *Service) int {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	n := 0
	for _, t := range svc.m.tasks {
		n = max(n, svc.m.fanout(t))
	}
	return n
}

// holderModel replays the exchange machine's evidence rule over a wire log,
// envelope by envelope, to say which contexts each exchange envelope must
// hold. A sender holds peer p as a holder of task t from an ack of p's that
// commits a share of t sent to p, or a share of t from p that it absorbed,
// until the roll into the second epoch without such evidence. On a lossless
// MemBus every share is acked once, on the sending goroutine, before the
// sender stages anything else; a share still pending belongs to its sender's
// live epoch, so the share's epoch is the epoch of the evidence either way.
type holderModel struct {
	// evidence is the epoch of the latest evidence, keyed by the node that
	// holds it, the task and the peer it is about.
	evidence map[[3]string]uint64
	// sent marks every share sent, keyed by sender, task and seq, and
	// committed every one an ack committed.
	sent, committed map[[3]string]bool
	exchanges       map[string]sentEnvelope
}

func newHolderModel() *holderModel {
	return &holderModel{evidence: map[[3]string]uint64{}, sent: map[[3]string]bool{},
		committed: map[[3]string]bool{}, exchanges: map[string]sentEnvelope{}}
}

// shareKey names share sh sent by from.
func shareKey(from string, sh Share) [3]string {
	return [3]string{from, sh.TaskID, strconv.FormatUint(sh.Seq, 10)}
}

// contexts returns the contexts exchange envelope e must hold, in task
// order: those of the tasks with a retry or a share to a peer not yet proven
// a holder. Then it records e's shares as sent.
func (m *holderModel) contexts(e sentEnvelope) (tasks, want []string) {
	for _, sh := range e.shares {
		if len(tasks) == 0 || tasks[len(tasks)-1] != sh.TaskID {
			tasks = append(tasks, sh.TaskID)
		}
		ep, proven := m.evidence[[3]string{e.from, sh.TaskID, e.to}]
		join := m.sent[shareKey(e.from, sh)] || !proven || ep+1 < sh.Epoch
		if join && (len(want) == 0 || want[len(want)-1] != sh.TaskID) {
			want = append(want, sh.TaskID)
		}
	}
	for _, sh := range e.shares {
		m.sent[shareKey(e.from, sh)] = true
	}
	m.exchanges[e.id] = e
	return tasks, want
}

// acked records the evidence ack envelope e gives: each ack commits its
// share at the share's sender unless an earlier ack did, and proves there
// that the acking peer holds the task; each ack in the share's own epoch is
// an absorbed share, and proves at the acking peer that the sender holds it.
func (m *holderModel) acked(e sentEnvelope) {
	orig := m.exchanges[e.answers]
	for k, a := range e.acks {
		if k >= len(orig.shares) {
			return
		}
		sh := orig.shares[k]
		if key := shareKey(orig.from, sh); !m.committed[key] && a.From == orig.to {
			m.committed[key] = true
			m.prove(orig.from, sh.TaskID, e.from, sh.Epoch)
		}
		if a.Epoch == sh.Epoch {
			m.prove(e.from, sh.TaskID, orig.from, sh.Epoch)
		}
	}
}

func (m *holderModel) prove(node, task, peer string, epoch uint64) {
	key := [3]string{node, task, peer}
	m.evidence[key] = max(m.evidence[key], epoch)
}

// TestBatchedRoundOneEnvelopePerPeer: eight services and the querier keep
// three continuous queries over one live view. In every round each node
// sends at most one exchange envelope per target of its round's one sample —
// at most fanout, where a round of separately drawn, separately sent shares
// can reach three times that — and each envelope holds, in task order, the
// contexts of exactly the tasks it carries a retry of or a share to a peer
// not yet proven to hold them (holderModel); once the nodes have heard from
// each other, envelopes go without. Each ack envelope answers exactly one
// exchange envelope, with no context, acking shares of it alone. The mass
// error is exactly zero after every step, and every frozen estimate is its
// query's truth.
func TestBatchedRoundOneEnvelopePerPeer(t *testing.T) {
	const n = 8
	window := time.Second
	c := newBatchCluster(t, n, 71, window)
	ctx := context.Background()
	model := newHolderModel()
	multi := 0 // exchange envelopes carrying more than one task
	bare := 0  // exchange envelopes, after the first epochs, carrying no context
	for step := 0; step < 70; step++ {
		mark := len(c.log.sent)
		c.clk.Advance(50 * time.Millisecond)
		for _, svc := range c.services {
			svc.Tick(ctx)
		}
		c.window.Tick(ctx)
		for i, reg := range c.regs {
			if e := reg.FloatGauge("aggregate_mass_error").Value(); e != 0 {
				t.Fatalf("step %d: node %d aggregate_mass_error = %g, want exactly 0", step, i, e)
			}
		}
		envelopes := map[string]int{}
		for _, e := range c.log.sent[mark:] {
			if e.action == ActionExchangeAck {
				model.acked(e)
				continue
			}
			envelopes[e.from]++
			tasks, want := model.contexts(e)
			if len(tasks) > 1 {
				multi++
			}
			if !slices.Equal(e.contexts, want) {
				t.Fatalf("step %d: envelope %s -> %s holds contexts %v for tasks %v, want %v", step, e.from, e.to, e.contexts, tasks, want)
			}
			if step >= 40 && len(e.contexts) == 0 {
				bare++
			}
		}
		for _, svc := range c.nodes() {
			if got, most := envelopes[svc.Address()], maxFanout(svc); got > most {
				t.Fatalf("step %d: %s sent %d exchange envelopes, want at most its fanout %d", step, svc.Address(), got, most)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no exchange envelope carried two tasks: the round did not batch")
	}
	if bare == 0 {
		t.Fatal("after two epochs every exchange envelope still carried a context: no peer was proven a holder")
	}

	// Every ack envelope answers one exchange envelope, sent to its sender.
	shares := map[string]sentEnvelope{}
	for _, e := range c.log.sent {
		if e.action == ActionExchange {
			shares[e.id] = e
		}
	}
	answered := map[string]bool{}
	for _, e := range c.log.sent {
		if e.action != ActionExchangeAck {
			continue
		}
		if len(e.contexts) != 0 {
			t.Fatalf("ack envelope %s -> %s carries contexts %v", e.from, e.to, e.contexts)
		}
		orig, ok := shares[e.answers]
		if !ok || orig.from != e.to || orig.to != e.from {
			t.Fatalf("ack envelope %s -> %s answers no exchange envelope between them (%q)", e.from, e.to, e.answers)
		}
		if answered[e.answers] {
			t.Fatalf("exchange envelope %s answered twice", e.answers)
		}
		answered[e.answers] = true
		if len(e.acks) != len(orig.shares) {
			t.Fatalf("ack envelope acks %d of the %d shares it answers", len(e.acks), len(orig.shares))
		}
		for k, a := range e.acks {
			if a.TaskID != orig.shares[k].TaskID || a.Seq != orig.shares[k].Seq {
				t.Fatalf("ack %d = (%s, %d), want the share's (%s, %d)", k, a.TaskID, a.Seq, orig.shares[k].TaskID, orig.shares[k].Seq)
			}
		}
	}
	if len(answered) != len(shares) {
		t.Fatalf("%d of %d exchange envelopes answered on a lossless bus", len(answered), len(shares))
	}

	// Every node's last frozen estimate of every query is the truth.
	truth := map[string]float64{"ones": n + 1, "peak": c.loads[n-1]}
	for _, l := range c.loads {
		truth["load"] += l / (n + 1)
	}
	for _, e := range c.window.Estimates() {
		for _, svc := range c.nodes() {
			fr, ok := svc.FrozenEstimate(e.TaskID)
			if !ok || fr.Epoch < 3 || !fr.Defined {
				t.Fatalf("%s froze %+v (ok=%v) for %s, want a defined epoch >= 3", svc.Address(), fr, ok, e.Query)
			}
			if math.Abs(fr.Estimate-truth[e.Query]) > 0.01*truth[e.Query] {
				t.Fatalf("%s froze %s = %g, want %g within 1%%", svc.Address(), e.Query, fr.Estimate, truth[e.Query])
			}
		}
	}
}

// TestExchangeEnvelopeFaultsWhole: an exchange envelope with one bad child
// among valid ones — malformed, windowless, or from a second sender — is a
// Sender fault, and none of its shares is absorbed or acked.
func TestExchangeEnvelopeFaultsWhole(t *testing.T) {
	c, task, share, _ := intakeCluster(t)
	svc := c.services[0]
	tk, _ := c.window.Task("load")
	other, _ := c.window.Task("ones")
	sibling := share
	sibling.TaskID, sibling.Function, sibling.Metric, sibling.Seq = other.ID, string(FuncCount), "ones", share.Seq+1
	windowless, stranger := share, share
	windowless.Seq, windowless.WindowMillis = share.Seq+2, 0
	stranger.Seq, stranger.From = share.Seq+3, addrOf(2)
	malformed := soap.Block{XMLName: shareName, Raw: []byte(`<AggregateShare xmlns="urn:wsgossip:2008"><TaskID>` +
		task + `</TaskID><Function>avg</Function><From>` + addrOf(1) + `</From><Sum>many</Sum></AggregateShare>`)}
	for _, bad := range []struct {
		name  string
		block soap.Block
	}{
		{"malformed", malformed},
		{"windowless", shareBlock(&windowless)},
		{"second sender", shareBlock(&stranger)},
	} {
		t.Run(bad.name, func(t *testing.T) {
			before := svc.Stats()
			sum0, w0, _ := svc.Mass(task)
			osum0, ow0, _ := svc.Mass(other.ID)
			env, err := handBuilt(ActionExchange, contextBlock(tk.Context), contextBlock(other.Context))
			if err != nil {
				t.Fatal(err)
			}
			env.Body.Blocks = []soap.Block{shareBlock(&share), bad.block, shareBlock(&sibling)}
			_, err = c.bus.Call(context.Background(), addrOf(0), env)
			var fault *soap.Fault
			if !errors.As(err, &fault) || fault.Code.Value != soap.CodeSender {
				t.Fatalf("envelope with a %s child answered %v, want a Sender fault", bad.name, err)
			}
			after := svc.Stats()
			if after.SharesAbsorbed != before.SharesAbsorbed || after.AcksSent != before.AcksSent {
				t.Fatalf("faulted envelope absorbed or acked: %+v -> %+v", before, after)
			}
			if sum, w, _ := svc.Mass(task); sum != sum0 || w != w0 {
				t.Fatalf("faulted envelope changed mass (%g, %g) -> (%g, %g)", sum0, w0, sum, w)
			}
			if sum, w, _ := svc.Mass(other.ID); sum != osum0 || w != ow0 {
				t.Fatalf("faulted envelope changed the other task's mass (%g, %g) -> (%g, %g)", osum0, ow0, sum, w)
			}
			c.assertGaugesZero(t, "after a faulted envelope")
		})
	}
}

// TestPassiveJoinUsesTheSharesContext: a node that first hears of a task
// through a share joins it through the context header that names that task,
// whatever else the envelope carries. A share whose task no header names is
// a Sender fault that creates no task — the node could not register for it,
// and every share it later sent for the task would carry a wrong context.
func TestPassiveJoinUsesTheSharesContext(t *testing.T) {
	c, task, share, _ := intakeCluster(t)
	tk, _ := c.window.Task("load")
	other, _ := c.window.Task("ones")
	log := &wireLog{bus: c.bus}
	fresh := func(addr string) *Service {
		svc, err := NewService(ServiceConfig{
			Address: addr, Caller: log.caller(addr), Clock: c.clk,
			Values: map[string]func() float64{"load": func() float64 { return 9 }},
			RNG:    rand.New(rand.NewSource(5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.bus.Register(addr, svc.Handler())
		return svc
	}
	ctx := context.Background()

	late := fresh("mem://late")
	env, err := handBuilt(ActionExchange, contextBlock(other.Context), contextBlock(tk.Context))
	if err != nil {
		t.Fatal(err)
	}
	env.SetBodyBlock(shareBlock(&share))
	if err := c.bus.Send(ctx, "mem://late", env); err != nil {
		t.Fatal(err)
	}
	if late.EpochOf(task) == 0 || late.EpochOf(other.ID) != 0 {
		t.Fatalf("late holds epochs %d (share's task) and %d (the other), want only the share's task joined",
			late.EpochOf(task), late.EpochOf(other.ID))
	}
	late.Tick(ctx)
	sent := 0
	for _, e := range log.sent {
		if e.from != "mem://late" || e.action != ActionExchange {
			continue
		}
		sent++
		if len(e.contexts) != 1 || e.contexts[0] != task {
			t.Fatalf("late sends the task's shares with contexts %v, want [%s]", e.contexts, task)
		}
	}
	if sent == 0 {
		t.Fatal("late sent no share: registration through the task's context gave it no targets")
	}

	orphan := fresh("mem://orphan")
	if env, err = handBuilt(ActionExchange, contextBlock(other.Context)); err != nil {
		t.Fatal(err)
	}
	env.SetBodyBlock(shareBlock(&share))
	_, err = c.bus.Call(ctx, "mem://orphan", env)
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Code.Value != soap.CodeSender {
		t.Fatalf("a share whose task no context names answered %v, want a Sender fault", err)
	}
	if st := orphan.Stats(); st.PassiveJoins != 0 || st.SharesAbsorbed != 0 || len(heldTasks(orphan)) != 0 {
		t.Fatalf("the faulted share joined or absorbed: %+v", st)
	}
}

// TestIntakeDoesNotAliasTheReceiveBuffer: intake reads a TaskID in place, so
// whatever a task keeps must be its own copy. Scribbling over the receive
// buffers after a passive join, a share and an ack leaves the task's ID
// intact.
func TestIntakeDoesNotAliasTheReceiveBuffer(t *testing.T) {
	bus := soap.NewMemBus()
	svc, err := NewService(ServiceConfig{
		Address: "mem://node", Caller: bus, Clock: clock.NewVirtual(), Value: func() float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	const task = "urn:uuid:aliased-task"
	cctx := contextBlock(wscoord.CoordinationContext{
		Identifier:          task,
		CoordinationType:    core.CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://no-coordinator"},
	})
	deliver := func(action string, body soap.Block, handle soap.HandlerFunc) {
		t.Helper()
		env, err := handBuilt(action, cctx)
		if err != nil {
			t.Fatal(err)
		}
		env.SetBodyBlock(body)
		data, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		received, err := soap.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := handle(context.Background(), &soap.Request{Envelope: received}); err != nil {
			t.Fatal(err)
		}
		copy(data, bytes.Repeat([]byte{'#'}, len(data)))
	}
	share := Share{TaskID: task, Function: string(FuncAvg), From: "mem://peer", Sum: 1, Weight: 0.5, WindowMillis: 1000, Epoch: 1, Seq: 1}
	deliver(ActionExchange, shareBlock(&share), svc.handleExchange) // passive join
	share.Seq = 2
	deliver(ActionExchange, shareBlock(&share), svc.handleExchange) // a task the node holds
	deliver(ActionExchangeAck, ackBlock(&ExchangeAck{TaskID: task, From: "mem://peer", Epoch: 1, Seq: 9}), svc.handleExchangeAck)
	ests := heldTasks(svc)
	if len(ests) != 1 || ests[0] != task || svc.EpochOf(task) == 0 {
		t.Fatalf("after scribbling the receive buffers the node holds %+v, want the one task %s", ests, task)
	}
	svc.mu.Lock()
	id := svc.m.tasks[task].x.taskID
	svc.mu.Unlock()
	if id != task {
		t.Fatalf("the task's own ID reads %q after scribbling, want %q", id, task)
	}
	if st := svc.Stats(); st.PassiveJoins != 1 || st.SharesAbsorbed != 2 {
		t.Fatalf("stats = %+v, want one join and two shares absorbed", st)
	}
}
