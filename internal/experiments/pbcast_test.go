package experiments

import (
	"context"
	"testing"
	"time"

	"wsgossip/internal/gossip"
	"wsgossip/internal/simnet"
)

// The pbcast configuration's behaviour (pbcastGroup, perturb), held below
// E4's table: the publisher's one-hop flood, the receivers' pull repair, and
// the bimodal property that a perturbed minority does not slow the rest.

func newPbcast(t *testing.T, n int, seed int64) (*simnet.Network, []*gossip.Engine) {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(seed))
	members, err := pbcastGroup(net, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return net, members
}

func publishN(t *testing.T, publisher *gossip.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := publisher.Publish(context.Background(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// pullRounds runs rounds anti-entropy rounds, 20 ms apart.
func pullRounds(net *simnet.Network, members []*gossip.Engine, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, m := range members {
			m.Tick(context.Background())
		}
		net.RunFor(20 * time.Millisecond)
	}
}

func TestPbcastFloodReachesAllOnce(t *testing.T) {
	net, members := newPbcast(t, 16, 1)
	publishN(t, members[0], 1)
	net.Run()
	for i, m := range members {
		if st := m.Stats(); st.Delivered != 1 || st.Duplicates != 0 || (i > 0 && st.Forwarded != 0) {
			t.Fatalf("member %d: %+v", i, st)
		}
	}
}

func TestPbcastPullRoundsNeverRedeliver(t *testing.T) {
	net, members := newPbcast(t, 2, 5)
	publishN(t, members[0], 1)
	net.Run()
	for i := 0; i < 5; i++ {
		pullRounds(net, members, 1)
		net.Run()
	}
	if st := members[1].Stats(); st.Delivered != 1 || st.Duplicates != 0 || st.PullReqs != 5 {
		t.Fatalf("receiver: %+v", st)
	}
}

func TestPbcastRepairsGlobalLoss(t *testing.T) {
	net, members := newPbcast(t, 24, 2)
	net.SetLossRate(0.35)
	publishN(t, members[0], 10)
	net.Run()
	missing := 0
	for _, m := range members {
		missing += 10 - int(m.Stats().Delivered)
	}
	if missing == 0 {
		t.Fatal("loss injection produced no gaps; test setup broken")
	}
	net.SetLossRate(0)
	pullRounds(net, members, 15)
	var served int64
	for i, m := range members {
		st := m.Stats()
		if st.Delivered != 10 {
			t.Fatalf("member %d has %d/10 after repair", i, st.Delivered)
		}
		served += st.PullResps
	}
	if served == 0 {
		t.Fatal("repair path never exercised")
	}
}

func TestPbcastPerturbedMemberCatchesUp(t *testing.T) {
	net, members := newPbcast(t, 12, 3)
	perturb(net, members[5:6], 0.6, 0)
	publishN(t, members[0], 20)
	net.Run()
	if got := members[5].Stats().Delivered; got == 20 {
		t.Fatal("perturbed member lost nothing; perturbation broken")
	}
	pullRounds(net, members, 20)
	if got := members[5].Stats().Delivered; got != 20 {
		t.Fatalf("perturbed member has %d/20 after repair", got)
	}
	if net.Faults().Totals().Lost == 0 {
		t.Fatal("no loss counted against the perturbed member")
	}
}

// TestPbcastHealthyMembersUnaffectedByPerturbation is the bimodal property:
// healthy members' delivery does not depend on the perturbed minority.
func TestPbcastHealthyMembersUnaffectedByPerturbation(t *testing.T) {
	net, members := newPbcast(t, 16, 4)
	perturb(net, members[12:], 0.9, 0)
	publishN(t, members[0], 30)
	net.Run()
	for i, m := range members[:12] {
		if got := m.Stats().Delivered; got != 30 {
			t.Fatalf("healthy member %d delivered %d/30", i, got)
		}
	}
}

// ackGroup binds the ACK-based comparator's sender and members r0..r2 on
// net.
func ackGroup(net *simnet.Network) *ackSender {
	members := []string{"r0", "r1", "r2"}
	sender := newAckSender(net.Node("s"), members)
	for _, m := range members {
		bindAckMember(net.Node(m))
	}
	return sender
}

// runAckStream sends total messages stop-and-wait and drains the network.
func runAckStream(net *simnet.Network, sender *ackSender, total int) {
	ctx := context.Background()
	sender.onDone = func() {
		if sender.seq < uint64(total) {
			sender.multicast(ctx)
		}
	}
	sender.multicast(ctx)
	net.Run()
}

func TestAckMulticastStopAndWait(t *testing.T) {
	net := simnet.New(simnet.DefaultConfig(6))
	sender := ackGroup(net)
	runAckStream(net, sender, 10)
	if sender.completed != 10 {
		t.Fatalf("completed = %d, want 10", sender.completed)
	}
	if sender.acked != nil {
		t.Fatal("messages still in flight after drain")
	}
}

// TestAckMulticastThrottledBySlowReceiver is the E4 mechanism in miniature:
// one slow receiver bounds sender throughput because each message waits for
// all acks.
func TestAckMulticastThrottledBySlowReceiver(t *testing.T) {
	run := func(slow time.Duration) time.Duration {
		net := simnet.New(simnet.Config{Seed: 7, MinLatency: time.Millisecond, MaxLatency: time.Millisecond})
		sender := ackGroup(net)
		net.SetSlowdown("r2", slow)
		runAckStream(net, sender, 20)
		if sender.completed != 20 {
			t.Fatalf("completed = %d", sender.completed)
		}
		return net.Now()
	}
	fast := run(0)
	throttled := run(50 * time.Millisecond)
	if throttled < 10*fast {
		t.Fatalf("slow receiver did not throttle: fast=%v throttled=%v", fast, throttled)
	}
}
