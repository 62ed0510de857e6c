package gossip_test

// Integration tests composing the gossip engine with the membership service
// as its peer provider — the fully decentralized deployment mode where no
// Coordinator hands out targets (DESIGN.md: membership substrate).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/gossip"
	"wsgossip/internal/membership"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

type decentralizedNode struct {
	addr   string
	member *membership.Service
	engine *gossip.Engine
	got    map[string]int
}

func buildDecentralized(t *testing.T, n int, seed int64) (*simnet.Network, []*decentralizedNode) {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(seed))
	nodes := make([]*decentralizedNode, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("d%03d", i)
		node := &decentralizedNode{addr: addr, got: make(map[string]int)}
		ep := net.Node(addr)
		member, err := membership.New(membership.Config{
			Endpoint:     ep,
			Clock:        net,
			RNG:          rand.New(rand.NewSource(seed + int64(i))),
			Fanout:       3,
			SuspectAfter: 300 * time.Millisecond,
			RemoveAfter:  900 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.member = member
		engine, err := gossip.New(gossip.Config{
			Style:    gossip.StylePush,
			Fanout:   5,
			Hops:     10,
			Endpoint: ep,
			Peers:    member, // membership drives peer selection
			RNG:      rand.New(rand.NewSource(seed + 1000 + int64(i))),
			Deliver: func(r gossip.Rumor) {
				node.got[r.ID]++
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		node.engine = engine
		mux := transport.NewMux()
		member.Register(mux)
		engine.Register(mux)
		mux.Bind(ep)
		nodes[i] = node
	}
	return net, nodes
}

// TestDecentralizedDissemination joins nodes through membership gossip, then
// disseminates a rumor using the live view as the peer provider.
func TestDecentralizedDissemination(t *testing.T) {
	const n = 40
	net, nodes := buildDecentralized(t, n, 17)
	ctx := context.Background()
	for i := 1; i < n; i++ {
		nodes[i].member.Join(ctx, []string{nodes[0].addr})
	}
	net.Run()
	for round := 0; round < 12; round++ {
		for _, node := range nodes {
			node.member.Tick(ctx)
		}
		net.RunFor(50 * time.Millisecond)
	}
	for i, node := range nodes {
		if node.member.Size() < n-1 {
			t.Fatalf("node %d view size = %d before dissemination", i, node.member.Size())
		}
	}
	r, err := nodes[0].engine.Publish(ctx, []byte("decentralized"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	reached := 0
	for _, node := range nodes {
		if node.got[r.ID] > 0 {
			reached++
		}
	}
	if frac := float64(reached) / n; frac < 0.95 {
		t.Fatalf("coverage through membership provider = %v", frac)
	}
}

// TestDisseminationSkipsDetectedFailures crashes nodes, lets the failure
// detector evict them, and verifies dissemination wastes no sends on them.
func TestDisseminationSkipsDetectedFailures(t *testing.T) {
	const n = 24
	net, nodes := buildDecentralized(t, n, 19)
	ctx := context.Background()
	for i := 1; i < n; i++ {
		nodes[i].member.Join(ctx, []string{nodes[0].addr})
	}
	net.Run()
	for round := 0; round < 10; round++ {
		for _, node := range nodes {
			node.member.Tick(ctx)
		}
		net.RunFor(50 * time.Millisecond)
	}
	// Crash a quarter of the nodes and let detection run.
	for i := n - n/4; i < n; i++ {
		net.Crash(nodes[i].addr)
	}
	for round := 0; round < 25; round++ {
		for i, node := range nodes {
			if net.Crashed(nodes[i].addr) {
				continue
			}
			node.member.Tick(ctx)
		}
		net.RunFor(50 * time.Millisecond)
	}
	for i := 0; i < n-n/4; i++ {
		for _, m := range nodes[i].member.Members() {
			if net.Crashed(m.Addr) {
				t.Fatalf("survivor %d still lists crashed %s", i, m.Addr)
			}
		}
	}
	net.ResetStats()
	r, err := nodes[0].engine.Publish(ctx, []byte("post-failure"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	reached := 0
	for i := 0; i < n-n/4; i++ {
		if nodes[i].got[r.ID] > 0 {
			reached++
		}
	}
	if frac := float64(reached) / float64(n-n/4); frac < 0.9 {
		t.Fatalf("survivor coverage = %v", frac)
	}
	// No dissemination traffic should have been addressed to evicted nodes.
	if st := net.Stats(); st.Dropped != 0 {
		t.Fatalf("dissemination sent %d messages into the void", st.Dropped)
	}
}

// TestPartitionHealRepair: a partition splits the cluster mid-dissemination;
// pull anti-entropy after healing repairs the minority side.
func TestPartitionHealRepair(t *testing.T) {
	const n = 30
	net := simnet.New(simnet.DefaultConfig(23))
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("p%03d", i)
	}
	peers := gossip.NewStaticPeers(addrs)
	got := make([]map[string]int, n)
	engines := make([]*gossip.Engine, n)
	for i := range addrs {
		i := i
		got[i] = make(map[string]int)
		eng, err := gossip.New(gossip.Config{
			Style:    gossip.StylePushPull,
			Fanout:   3,
			Hops:     8,
			Endpoint: net.Node(addrs[i]),
			Peers:    peers,
			RNG:      rand.New(rand.NewSource(23 + int64(i))),
			Deliver:  func(r gossip.Rumor) { got[i][r.ID]++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		eng.Register(mux)
		mux.Bind(net.Node(addrs[i]))
		engines[i] = eng
	}
	// Partition off the last third before publishing.
	minority := addrs[20:]
	net.Faults().Partition("split", minority)
	ctx := context.Background()
	r, err := engines[0].Publish(ctx, []byte("split"))
	if err != nil {
		t.Fatal(err)
	}
	net.Run()
	for i := 20; i < n; i++ {
		if got[i][r.ID] != 0 {
			t.Fatalf("partitioned node %d received the rumor", i)
		}
	}
	// Heal and run anti-entropy.
	net.Faults().Heal("split")
	for round := 0; round < 15; round++ {
		for _, e := range engines {
			e.Tick(ctx)
		}
		net.RunFor(20 * time.Millisecond)
	}
	for i := 0; i < n; i++ {
		if got[i][r.ID] == 0 {
			t.Fatalf("node %d never repaired after heal", i)
		}
	}
}
