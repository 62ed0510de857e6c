package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wsgossip/internal/gossip"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// E4Throughput regenerates the Bimodal Multicast throughput-under-
// perturbation result (Birman et al. 1999, the paper's reference [2] and the
// source of its "stable high throughput" motivation): as a growing fraction
// of receivers is perturbed (slow, lossy processes), pbcast's healthy-node
// throughput stays flat while the ACK-based reliable multicast collapses,
// because its sender waits for the slowest receiver on every message. pbcast
// is gossip.Engine configured as pbcastGroup; perturbation is a link-loss
// rule and a link-delay rule (the processing slowdown) into the perturbed
// members.
func E4Throughput(opt Options) ([]Table, error) {
	n := opt.pick(128, 32)
	messages := opt.pick(150, 40)
	sendEvery := 5 * time.Millisecond
	perturbSlow := 40 * time.Millisecond
	perturbDrop := 0.5

	t := Table{
		ID:    "E4",
		Title: fmt.Sprintf("Throughput under perturbation (N=%d, %d msgs): pbcast vs ACK-based reliable multicast", n, messages),
		Columns: []string{
			"perturbed %", "pbcast healthy msg/s", "pbcast perturbed delivery", "ackmc msg/s",
		},
	}
	for _, pct := range []int{0, 5, 10, 15, 20, 25} {
		perturbed := n * pct / 100
		healthyTput, perturbedDelivery, err := pbcastRun(n, perturbed, messages, sendEvery, perturbSlow, perturbDrop, opt.Seed+int64(pct))
		if err != nil {
			return nil, err
		}
		ackTput := ackmcRun(n, perturbed, messages, perturbSlow, opt.Seed+int64(pct)+7000)
		t.AddRow(i2s(pct)+"%", f2(healthyTput), f3(perturbedDelivery), f2(ackTput))
	}
	t.Notes = "pbcast healthy throughput stays ~flat (the sender never waits) and perturbed nodes still recover " +
		"most messages through anti-entropy; the ACK-based protocol's throughput collapses as soon as any receiver is slow — " +
		"the bimodal multicast result the paper builds its motivation on."
	return []Table{t}, nil
}

// pbcastGroup is Bimodal Multicast (pbcast) as a configuration of
// gossip.Engine: n members on net, p0000 the publisher. Phase 1, the
// unreliable multicast, is the publisher flooding with one hop: one copy to
// every member, which nobody forwards. Phase 2, anti-entropy, is every other
// member pulling: it delivers a push without forwarding it, and each Tick
// sends the digest of its newest held sums to two random members, which serve
// what it lacks.
func pbcastGroup(net *simnet.Network, n int, seed int64) ([]*gossip.Engine, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("p%04d", i)
	}
	peers := gossip.NewStaticPeers(addrs)
	members := make([]*gossip.Engine, n)
	for i, addr := range addrs {
		cfg := gossip.Config{
			Style:    gossip.StylePull,
			Fanout:   2,
			Endpoint: net.Node(addr),
			Peers:    peers,
			RNG:      rand.New(rand.NewSource(seed + int64(i))),
		}
		if i == 0 {
			cfg.Style, cfg.Hops = gossip.StyleFlood, 1
		}
		eng, err := gossip.New(cfg)
		if err != nil {
			return nil, err
		}
		mux := transport.NewMux()
		eng.Register(mux)
		mux.Bind(net.Node(addr))
		members[i] = eng
	}
	return members, nil
}

// perturb makes members perturbed processes: each message into one is lost
// with probability loss (its buffers overflow while it sleeps), and each is
// delayed by slow. With no members it installs nothing: a rule naming no
// destination would match every one.
func perturb(net *simnet.Network, members []*gossip.Engine, loss float64, slow time.Duration) {
	if len(members) == 0 {
		return
	}
	addrs := make([]string, len(members))
	for i, m := range members {
		addrs[i] = m.Addr()
	}
	net.Faults().LinkDelay("perturbed", nil, addrs, slow)
	net.Faults().LinkLoss("perturbed", nil, addrs, loss)
}

// pbcastRun returns healthy-node throughput (unique deliveries per virtual
// second at healthy nodes) and the mean delivery fraction at perturbed nodes
// after repair rounds.
func pbcastRun(n, perturbed, messages int, sendEvery, slow time.Duration, drop float64, seed int64) (float64, float64, error) {
	net := simnet.New(simnet.DefaultConfig(seed))
	nodes, err := pbcastGroup(net, n, seed)
	if err != nil {
		return 0, 0, err
	}
	perturb(net, nodes[n-perturbed:], drop, slow)
	ctx := context.Background()
	// Sender publishes at a fixed rate; all nodes gossip-repair every 10ms.
	for m := 0; m < messages; m++ {
		at := time.Duration(m) * sendEvery
		net.AfterFunc(at, func() {
			_, _ = nodes[0].Publish(ctx, []byte("m"))
		})
	}
	span := time.Duration(messages) * sendEvery
	for tick := time.Duration(0); tick < span+300*time.Millisecond; tick += 10 * time.Millisecond {
		net.AfterFunc(tick, func() {
			for _, node := range nodes {
				node.Tick(ctx)
			}
		})
	}
	net.Run()
	elapsed := float64(span+300*time.Millisecond) / float64(time.Second)
	healthy := 0
	var healthySum float64
	var perturbedSum float64
	perturbedCount := 0
	for i := 1; i < n; i++ {
		frac := float64(nodes[i].Stats().Delivered)
		if i >= n-perturbed {
			perturbedSum += frac / float64(messages)
			perturbedCount++
		} else {
			healthySum += frac
			healthy++
		}
	}
	healthyTput := 0.0
	if healthy > 0 {
		healthyTput = healthySum / float64(healthy) / elapsed
	}
	perturbedDelivery := 1.0
	if perturbedCount > 0 {
		perturbedDelivery = perturbedSum / float64(perturbedCount)
	}
	return healthyTput, perturbedDelivery, nil
}

// ackmcRun returns the ACK-based sender's completed-message throughput.
func ackmcRun(n, perturbed, messages int, slow time.Duration, seed int64) float64 {
	net := simnet.New(simnet.DefaultConfig(seed))
	members := make([]string, 0, n-1)
	for i := 1; i < n; i++ {
		members = append(members, fmt.Sprintf("r%04d", i))
	}
	sender := newAckSender(net.Node("s"), members)
	for _, m := range members {
		bindAckMember(net.Node(m))
	}
	if perturbed > 0 { // a rule naming no destination would match every one
		net.Faults().LinkDelay("perturbed", nil, members[len(members)-perturbed:], slow)
	}
	ctx := context.Background()
	sender.onDone = func() {
		if sender.seq < uint64(messages) {
			sender.multicast(ctx)
		}
	}
	sender.multicast(ctx)
	net.Run()
	elapsed := float64(net.Now()) / float64(time.Second)
	if elapsed == 0 {
		return 0
	}
	return float64(sender.completed) / elapsed
}
