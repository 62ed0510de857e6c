package aggregate

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"wsgossip/internal/gossip"
	"wsgossip/internal/simnet"
	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
)

// poisonShares are well-formed shares whose numbers no honest node sends.
func poisonShares(base Share) []Share {
	nan, inf := math.NaN(), math.Inf(1)
	var out []Share
	for i, poison := range []func(*Share){
		func(sh *Share) { sh.Sum = nan },
		func(sh *Share) { sh.Sum = inf },
		func(sh *Share) { sh.Sum = -inf },
		func(sh *Share) { sh.Weight = nan },
		func(sh *Share) { sh.Weight = inf },
		func(sh *Share) { sh.Weight = -0.5 },
		func(sh *Share) { sh.HasExtremes, sh.Min, sh.Max = true, nan, 9 },
	} {
		sh := base
		sh.Seq += uint64(i)
		poison(&sh)
		out = append(out, sh)
	}
	return out
}

// intakeCluster runs a continuous cluster into its second epoch and returns
// it with the load task's ID and a share template aimed at service 0 from
// service 1.
func intakeCluster(t *testing.T) (*contCluster, string, Share, func(action string, body soap.Block)) {
	t.Helper()
	window := time.Second
	c := newContCluster(t, 3, 31, window)
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		c.step(ctx, 50*time.Millisecond)
	}
	tk, ok := c.window.Task("load")
	if !ok {
		t.Fatal("load query not started")
	}
	base := Share{
		TaskID:       tk.ID,
		Function:     string(FuncAvg),
		From:         addrOf(1),
		Sum:          3,
		Weight:       0.5,
		WindowMillis: window.Milliseconds(),
		Epoch:        c.services[0].EpochOf(tk.ID),
		Seq:          1 << 40,
		Root:         "mem://querier",
		Metric:       "load",
	}
	deliver := func(action string, body soap.Block) {
		t.Helper()
		env, err := handBuilt(action, contextBlock(tk.Context))
		if err != nil {
			t.Fatal(err)
		}
		env.SetBodyBlock(body)
		if err := c.bus.Send(ctx, addrOf(0), env); err != nil {
			t.Fatalf("deliver %s: %v", action, err)
		}
	}
	return c, tk.ID, base, deliver
}

// TestContinuousFarFutureEpochIgnored: a share or ack claiming an epoch far
// past the clock's is ignored outright — no roll, no absorb, no ack — so one
// message cannot freeze the task cluster-wide. The next epoch still spreads.
func TestContinuousFarFutureEpochIgnored(t *testing.T) {
	c, task, share, deliver := intakeCluster(t)
	svc := c.services[0]
	epoch := svc.EpochOf(task)
	if epoch < 2 {
		t.Fatalf("epoch = %d, want the cluster in its second epoch", epoch)
	}
	sum0, w0, _ := svc.Mass(task)
	acks := svc.Stats().AcksSent

	far := share
	far.Epoch = 1 << 62
	deliver(ActionExchange, shareBlock(&far))
	deliver(ActionExchangeAck, ackBlock(&ExchangeAck{TaskID: task, From: addrOf(1), Epoch: 1 << 62, Seq: 1}))
	if got := svc.EpochOf(task); got != epoch {
		t.Fatalf("far-future share or ack moved the epoch %d -> %d", epoch, got)
	}
	if sum, w, _ := svc.Mass(task); sum != sum0 || w != w0 {
		t.Fatalf("far-future share changed mass (%g, %g) -> (%g, %g)", sum0, w0, sum, w)
	}
	if got := svc.Stats().AcksSent; got != acks {
		t.Fatalf("far-future share was acked (%d -> %d acks)", acks, got)
	}
	c.assertGaugesZero(t, "after far-future share")

	next := share
	next.Epoch = epoch + 1
	deliver(ActionExchange, shareBlock(&next))
	if got := svc.EpochOf(task); got != epoch+1 {
		t.Fatalf("next-epoch share left the epoch at %d, want %d", got, epoch+1)
	}
}

// TestContinuousPoisonShareRejected: a share carrying NaN, ±Inf or a negative
// weight is dropped unacked, so neither the estimate nor the conservation
// gauge ever sees it — in this epoch or the frozen result of it.
func TestContinuousPoisonShareRejected(t *testing.T) {
	c, task, share, deliver := intakeCluster(t)
	svc := c.services[0]
	sum0, w0, _ := svc.Mass(task)
	acks := svc.Stats().AcksSent
	for _, sh := range poisonShares(share) {
		deliver(ActionExchange, shareBlock(&sh))
	}
	if sum, w, _ := svc.Mass(task); sum != sum0 || w != w0 {
		t.Fatalf("poison shares changed mass (%g, %g) -> (%g, %g)", sum0, w0, sum, w)
	}
	if got := svc.Stats().AcksSent; got != acks {
		t.Fatalf("poison shares were acked (%d -> %d acks)", acks, got)
	}
	c.assertGaugesZero(t, "after poison shares")

	// Through the next boundary: the epoch freezes at the true average.
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		c.step(ctx, 50*time.Millisecond)
		c.assertGaugesZero(t, "after poison shares")
	}
	fr, ok := svc.FrozenEstimate(task)
	want := (1.0 + 2 + 3) / 4 // three services and the querier, which reports 0
	if !ok || !fr.Defined || math.Abs(fr.Estimate-want)/want > 0.05 {
		t.Fatalf("frozen estimate = %+v (ok=%v), want %g within 5%%", fr, ok, want)
	}
}

// TestOneShotPoisonShareRejected: a share without a window — the
// fire-and-forget form — is refused whatever it carries: the Service faults
// it as the sender's error, and the SimNode drops it unabsorbed and unacked,
// so neither a poisoned nor a healthy one moves mass or a min estimate.
func TestOneShotPoisonShareRejected(t *testing.T) {
	c, task, share, _ := intakeCluster(t)
	svc := c.services[0]
	sum0, w0, _ := svc.Mass(task)
	windowless := share
	windowless.WindowMillis = 0
	env, err := handBuilt(ActionExchange, svc.m.tasks[task].cctx)
	if err != nil {
		t.Fatal(err)
	}
	env.SetBodyBlock(shareBlock(&windowless))
	_, err = c.bus.Call(context.Background(), addrOf(0), env)
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Code.Value != soap.CodeSender {
		t.Fatalf("windowless share answered %v, want a Sender fault", err)
	}
	if sum, w, _ := svc.Mass(task); sum != sum0 || w != w0 {
		t.Fatalf("windowless share changed mass (%g, %g) -> (%g, %g)", sum0, w0, sum, w)
	}

	net := simnet.New(simnet.DefaultConfig(1))
	node, err := NewSimNode(SimNodeConfig{
		Endpoint: net.Node("a"),
		Peers:    gossip.NewStaticPeers([]string{"a", "b"}),
		Fanout:   1,
		TaskID:   "t1",
		Func:     FuncMin,
		Value:    4,
		Window:   time.Second,
		Clock:    net,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Tick(context.Background()) // rolls into epoch 1: the node holds its value
	sum0, w0 = node.State().Mass()
	est0, ok := node.State().Estimate()
	if !ok || est0 != 4 {
		t.Fatalf("min estimate after the first roll = %g (defined %v), want 4", est0, ok)
	}
	healthy := Share{TaskID: "t1", Function: string(FuncMin), From: "b", HasExtremes: true, Min: 1, Max: 1}
	for _, sh := range append(poisonShares(healthy), healthy) {
		msg := transport.Message{From: "b", To: "a", Action: ActionExchange, Body: shareBlock(&sh).Raw}
		if err := node.handleExchange(context.Background(), msg); err != nil {
			t.Fatal(err)
		}
	}
	if sum, w := node.State().Mass(); sum != sum0 || w != w0 {
		t.Fatalf("windowless shares changed mass (%g, %g) -> (%g, %g)", sum0, w0, sum, w)
	}
	if est, _ := node.State().Estimate(); est != est0 {
		t.Fatalf("windowless shares moved the min estimate %g -> %g", est0, est)
	}
	if st := node.Stats(); st.SharesAbsorbed != 0 || st.AcksSent != 0 {
		t.Fatalf("windowless shares were absorbed or acked: %+v", st)
	}
	if e := node.MassError(); e != 0 {
		t.Fatalf("mass error = %g after windowless shares, want exactly 0", e)
	}
}
