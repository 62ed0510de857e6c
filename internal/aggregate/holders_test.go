package aggregate

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// A share carries its task's coordination context only to a peer that may
// lack the task: the exchange machine keeps the peers with recent evidence of
// holding it, and a fresh share to one of them needs no join data.

// freshTo runs one tick of x at now for the one target to and returns the
// fresh share it split for to, failing if there is none.
func freshTo(t *testing.T, x *exchange, now time.Duration, to string) *pendingShare {
	t.Helper()
	sends := x.tick(now, []string{to}, nil)
	if len(sends) == 0 || sends[len(sends)-1].retry || sends[len(sends)-1].p.to != to {
		t.Fatalf("tick at %v split no fresh share for %s", now, to)
	}
	return sends[len(sends)-1].p
}

// settle commits every share x has pending with an ack that names a peer no
// share went to, so no evidence comes of it.
func settle(x *exchange, now time.Duration) {
	for seq := range x.pending {
		x.commit(now, &ExchangeAck{TaskID: x.taskID, From: "elsewhere", Epoch: x.epoch, Seq: seq})
	}
}

// TestHolderEvidenceLaws drives one machine through the evidence rule: a
// peer becomes a known holder only from an ack of its own committing a share
// sent to it, or from a share of its absorbed; a fresh share to a known
// holder needs no join data, a retry always does; and a peer is forgotten
// when a first send to it is reclaimed, or at the roll into the second epoch
// without evidence from it. A machine that keeps no holders (the SimNode's)
// joins every send.
func TestHolderEvidenceLaws(t *testing.T) {
	const w = time.Second
	newX := func(track bool) *exchange {
		x := newExchange("urn:uuid:laws", "a", FuncSum, w, "a", "", new(Stats))
		x.contribute = func() (float64, bool, bool) { return 1, true, true }
		x.trackHolders = track
		return x
	}
	x := newX(true)
	now := 2 * w // epoch 3

	p := freshTo(t, x, now, "b")
	if !p.join() {
		t.Fatal("a first send to a peer never heard from needs no join data")
	}
	x.commit(now, &ExchangeAck{TaskID: x.taskID, From: "c", Epoch: x.epoch, Seq: p.share.Seq})
	if p = freshTo(t, x, now, "b"); !p.join() {
		t.Fatal("an ack from another address than the share went to proved b a holder")
	}
	if q := freshTo(t, x, now, "c"); !q.join() {
		t.Fatal("an ack for a share sent to b proved its sender c a holder")
	}
	settle(x, now)
	p = freshTo(t, x, now, "b")
	x.commit(now, &ExchangeAck{TaskID: x.taskID, From: "b", Epoch: x.epoch, Seq: p.share.Seq})
	if p = freshTo(t, x, now, "b"); p.join() {
		t.Fatal("b's ack committing a share sent to b did not make it a known holder")
	}
	sends := x.tick(now, []string{"b"}, nil)
	if len(sends) != 2 || !sends[0].retry || !sends[0].join || sends[1].join {
		t.Fatalf("a retry and a fresh share to a known holder: join = %v, want the retry's only", []bool{sends[0].join, sends[1].join})
	}
	settle(x, now)

	if _, reply := x.absorb(now, &Share{TaskID: x.taskID, Function: string(FuncSum), From: "d", Weight: 0.5,
		WindowMillis: w.Milliseconds(), Epoch: x.epoch, Seq: 1}); !reply {
		t.Fatal("the share from d was not absorbed")
	}
	if p = freshTo(t, x, now, "d"); p.join() {
		t.Fatal("a share absorbed from d did not make it a known holder")
	}
	settle(x, now)

	p = freshTo(t, x, now, "b")
	if !x.reclaim(p) {
		t.Fatal("the refused first send was not reclaimed")
	}
	if p = freshTo(t, x, now, "b"); !p.join() {
		t.Fatal("b is still a known holder after a first send to it was reclaimed")
	}
	if q := freshTo(t, x, now, "d"); q.join() {
		t.Fatal("reclaiming a share sent to b forgot d")
	}
	settle(x, now)

	// d's evidence is of epoch 3: it holds through epoch 4, not into 5.
	if p = freshTo(t, x, 3*w, "d"); p.join() {
		t.Fatal("d was forgotten one epoch after its evidence")
	}
	settle(x, 3*w)
	if p = freshTo(t, x, 4*w, "d"); !p.join() {
		t.Fatal("d is still a known holder two epochs after its last evidence")
	}
	if len(x.holders) != 0 {
		t.Fatalf("holders = %+v after two epochs without evidence, want none", x.holders)
	}

	plain := newX(false)
	p = freshTo(t, plain, now, "b")
	plain.commit(now, &ExchangeAck{TaskID: plain.taskID, From: "b", Epoch: plain.epoch, Seq: p.share.Seq})
	if p = freshTo(t, plain, now, "b"); !p.join() || len(plain.holders) != 0 {
		t.Fatal("a machine that keeps no holders recorded one")
	}
}

// lostTaskLink is the sender's binding in TestShareReachesPeerThatLostTheTask.
// It delivers each message over the bus as a call, so it sees the receiver's
// answer, and records every exchange envelope with how many contexts it held
// and that answer. With answer set it hands the answer back to the sender, as
// a direct HTTP binding does; without, it returns nil for every message, as a
// delivery plane that queued the message does.
type lostTaskLink struct {
	bus    *soap.MemBus
	answer bool
	sent   []linkSend
}

type linkSend struct {
	contexts int
	err      error
}

func (l *lostTaskLink) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	return l.bus.Call(ctx, to, env)
}

func (l *lostTaskLink) Send(ctx context.Context, to string, env *soap.Envelope) error {
	_, err := l.bus.Call(ctx, to, env)
	if env.Action() == ActionExchange {
		rec := linkSend{err: err}
		for _, b := range env.Header.Blocks {
			if b.XMLName.Space == wscoord.Namespace && b.XMLName.Local == "CoordinationContext" {
				rec.contexts++
			}
		}
		l.sent = append(l.sent, rec)
	}
	if l.answer {
		return err
	}
	return nil
}

func (l *lostTaskLink) SendEncoded(ctx context.Context, to string, data []byte) error {
	env, err := soap.Decode(data)
	if err != nil {
		return err
	}
	return l.Send(ctx, to, env)
}

// TestShareReachesPeerThatLostTheTask: node a roots a task whose one target
// is b, ten rounds an epoch on a virtual clock. b is unreachable for the
// first epoch, so a has no evidence of it: a's first share when b comes up
// carries the context, and b joins without a fault. Once b's acks prove it a
// holder, a's shares go without. Then b is replaced by a fresh node at the
// same address that lacks the task: a's next share, context-less, is refused
// as a Sender fault — reclaimed, when the binding answers with the fault, or
// left pending, when it is queued as a delivery plane queues it — and the
// next round carries the context, with which the new b joins passively. The
// mass error is exactly zero at both ends after every round.
func TestShareReachesPeerThatLostTheTask(t *testing.T) {
	for _, answer := range []bool{true, false} {
		name := map[bool]string{true: "answered", false: "queued"}[answer]
		t.Run(name, func(t *testing.T) { lostTask(t, answer) })
	}
}

func lostTask(t *testing.T, answer bool) {
	const (
		window = time.Second
		task   = "urn:uuid:lost-task"
		b      = "mem://b"
	)
	ctx := context.Background()
	bus := soap.NewMemBus()
	clk := clock.NewVirtual()
	clk.Advance(2 * window)
	link := &lostTaskLink{bus: bus, answer: answer}
	one := func() float64 { return 1 }
	aReg := metrics.NewRegistry()
	a, err := NewService(ServiceConfig{Address: "mem://a", Caller: link, Clock: clk, Value: one,
		RNG: rand.New(rand.NewSource(1)), Metrics: aReg})
	if err != nil {
		t.Fatal(err)
	}
	bus.Register("mem://a", a.Handler())
	cctx := wscoord.CoordinationContext{
		Identifier:          task,
		CoordinationType:    core.CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://no-coordinator"},
	}
	a.install(task, FuncSum, window, a.Address(), "", core.AggregateParameters{Fanout: 1, Targets: []string{b}}, cctx)

	var peer *Service
	var peerReg *metrics.Registry
	restart := func() {
		peerReg = metrics.NewRegistry()
		peer, err = NewService(ServiceConfig{Address: b, Caller: bus, Clock: clk, Value: one,
			RNG: rand.New(rand.NewSource(2)), Metrics: peerReg})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(b, peer.Handler())
	}
	senderFaults := 0
	// round ticks a, then moves the clock a tenth of a window on, and
	// returns the exchange envelope a sent.
	round := func(i int) linkSend {
		t.Helper()
		mark := len(link.sent)
		a.Tick(ctx)
		clk.Advance(window / 10)
		if e := aReg.FloatGauge("aggregate_mass_error").Value(); e != 0 {
			t.Fatalf("round %d: a's aggregate_mass_error = %g, want exactly 0", i, e)
		}
		if peerReg != nil {
			if e := peerReg.FloatGauge("aggregate_mass_error").Value(); e != 0 {
				t.Fatalf("round %d: b's aggregate_mass_error = %g, want exactly 0", i, e)
			}
		}
		if len(link.sent) != mark+1 {
			t.Fatalf("round %d: a sent %d exchange envelopes, want 1", i, len(link.sent)-mark)
		}
		s := link.sent[mark]
		if soap.IsSenderFault(s.err) {
			senderFaults++
		}
		return s
	}

	// Epoch 3: b is down, and a never hears from it.
	for i := range 10 {
		if s := round(i); s.contexts != 1 || s.err == nil {
			t.Fatalf("round %d: to an unreachable b, a sent %d contexts, answered %v; want 1, refused", i, s.contexts, s.err)
		}
	}
	// Epoch 4: b comes up, never having held the task.
	restart()
	if s := round(10); s.contexts != 1 || s.err != nil {
		t.Fatalf("round 10: to b unproven, a sent %d contexts, answered %v; want 1, delivered", s.contexts, s.err)
	}
	if st := peer.Stats(); st.PassiveJoins != 1 || st.SharesAbsorbed == 0 {
		t.Fatalf("b did not join from a's first share: %+v", st)
	}
	for i := 11; i < 25; i++ {
		if s := round(i); s.contexts != 0 || s.err != nil {
			t.Fatalf("round %d: to b proven a holder, a sent %d contexts, answered %v; want none, delivered", i, s.contexts, s.err)
		}
	}
	if senderFaults != 0 {
		t.Fatalf("%d Sender faults before b lost the task, want none", senderFaults)
	}
	// Epoch 5: b restarts and lacks the task.
	recovered := a.Stats().Recovered
	restart()
	s := round(25)
	if s.contexts != 0 || !soap.IsSenderFault(s.err) {
		t.Fatalf("round 25: to the restarted b, a sent %d contexts, answered %v; want none, a Sender fault", s.contexts, s.err)
	}
	out, _ := a.Outstanding(task)
	if got := a.Stats().Recovered - recovered; answer && (got != 1 || out != 0) || !answer && (got != 0 || out == 0) {
		t.Fatalf("after the refusal a reclaimed %d share(s) and has %g outstanding; want the share reclaimed only when the binding answered", got, out)
	}
	if s := round(26); s.contexts != 1 || s.err != nil {
		t.Fatalf("round 26: after the refusal, a sent %d contexts, answered %v; want 1, delivered", s.contexts, s.err)
	}
	if st := peer.Stats(); st.PassiveJoins != 1 || peer.EpochOf(task) == 0 {
		t.Fatalf("the restarted b did not rejoin within two rounds: %+v", st)
	}
	for i := 27; i < 30; i++ {
		if s := round(i); s.contexts != 0 || s.err != nil {
			t.Fatalf("round %d: to the rejoined b, a sent %d contexts, answered %v; want none, delivered", i, s.contexts, s.err)
		}
	}
	if senderFaults != 1 {
		t.Fatalf("%d Sender faults in all, want the one context-less share to the restarted b", senderFaults)
	}
	if out, _ := a.Outstanding(task); out != 0 {
		t.Fatalf("a has %g outstanding after the rejoin, want every share committed", out)
	}
}

// TestHolderSetConcurrentUse: four Services exchange on several goroutines
// while the clock crosses epochs. Each samples a view that also names an
// address nobody serves, so first sends are refused and reclaimed, and a
// stranger's shares and acks are handed to them at the same time: Tick,
// handleExchange, handleExchangeAck and reclaim all read and write the
// task's holder set at once. Every node's mass error reads exactly zero
// throughout, and every node ends up knowing some holder.
func TestHolderSetConcurrentUse(t *testing.T) {
	const (
		nodes  = 4
		rounds = 60
		task   = "urn:uuid:holders-concurrent"
	)
	ctx := context.Background()
	bus := soap.NewMemBus()
	clk := clock.NewVirtual()
	clk.Advance(2 * time.Second)
	addrs := make([]string, nodes)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("mem://h%d", i)
	}
	view := gossip.NewStaticPeers(append([]string{"mem://gone"}, addrs...))
	cctx := wscoord.CoordinationContext{
		Identifier:          task,
		CoordinationType:    core.CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://no-coordinator"},
	}
	svcs := make([]*Service, nodes)
	regs := make([]*metrics.Registry, nodes)
	for i, addr := range addrs {
		regs[i] = metrics.NewRegistry()
		svc, err := NewService(ServiceConfig{Address: addr, Caller: bus, Clock: clk, Peers: view,
			Value: func() float64 { return 1 }, RNG: rand.New(rand.NewSource(int64(i))), Metrics: regs[i]})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, svc.Handler())
		svcs[i] = svc
	}
	svcs[0].install(task, FuncSum, 500*time.Millisecond, svcs[0].Address(), "", core.AggregateParameters{Fanout: 3}, cctx)

	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, svc := range svcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				svc.Tick(ctx)
			}
		}()
	}
	wg.Add(1)
	go func() { // the clock crosses an epoch every ten steps
		defer wg.Done()
		for range rounds {
			clk.Advance(50 * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() { // a stranger's shares, with the context, and stray acks
		defer wg.Done()
		for i := range rounds {
			to := addrs[i%nodes]
			sh := Share{TaskID: task, Function: string(FuncSum), From: "mem://stranger", Weight: 0.25,
				WindowMillis: 500, Epoch: EpochAt(clk.Now(), 500*time.Millisecond), Seq: uint64(i + 1)}
			env, err := handBuilt(ActionExchange, contextBlock(cctx))
			if err != nil {
				t.Error(err)
				return
			}
			env.SetBodyBlock(shareBlock(&sh))
			_, _ = bus.Call(ctx, to, env)
			if env, err = handBuilt(ActionExchangeAck); err != nil {
				t.Error(err)
				return
			}
			env.SetBodyBlock(ackBlock(&ExchangeAck{TaskID: task, From: "mem://stranger", Epoch: sh.Epoch, Seq: uint64(i * 7)}))
			_, _ = bus.Call(ctx, to, env)
		}
	}()
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // the gauge is exact at every instant a scrape can see
		defer readers.Done()
		for {
			for i, reg := range regs {
				if e := reg.FloatGauge("aggregate_mass_error").Value(); e != 0 {
					t.Errorf("node %d aggregate_mass_error = %g mid-run, want exactly 0", i, e)
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()

	var recovered, commits int64
	for i, svc := range svcs {
		st := svc.Stats()
		recovered += st.Recovered
		commits += st.Commits
		if e := regs[i].FloatGauge("aggregate_mass_error").Value(); e != 0 {
			t.Errorf("node %d aggregate_mass_error = %g, want exactly 0", i, e)
		}
		svc.mu.Lock()
		tk, ok := svc.m.tasks[task]
		known := ok && len(tk.x.holders) > 0
		svc.mu.Unlock()
		if !known {
			t.Errorf("node %d knows no holder of the task", i)
		}
	}
	if recovered == 0 || commits == 0 {
		t.Fatalf("the run reclaimed %d and committed %d shares; want both paths taken", recovered, commits)
	}
}
