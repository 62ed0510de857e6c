package experiments

import (
	"context"
	"fmt"

	"wsgossip/internal/gossip"
	"wsgossip/internal/simnet"
	"wsgossip/internal/testbed"
	"wsgossip/internal/wsn"
)

// E5Load measures per-node message load versus system size: gossip spreads
// the forwarding work so each node sends O(f) messages per event, while the
// centralized broker's send load grows linearly with the subscriber count —
// the structural reason the paper gives for gossip's scalability.
func E5Load(opt Options) ([]Table, error) {
	sizes := []int{64, 256, 1024, 2048}
	if opt.Quick {
		sizes = []int{64, 256}
	}
	t := Table{
		ID:    "E5",
		Title: "Per-node send load per disseminated event: gossip (f=3) vs centralized broker",
		Columns: []string{
			"N", "gossip mean sends/node", "gossip max sends/node", "broker sends",
		},
	}
	for _, n := range sizes {
		c, err := newEngineCluster(n, opt.Seed+int64(n), gossip.Config{
			Style:  gossip.StylePush,
			Fanout: 3,
			Hops:   defaultHops(n) + 2,
		})
		if err != nil {
			return nil, err
		}
		if _, err := c.Engines[0].Publish(context.Background(), []byte("evt")); err != nil {
			return nil, err
		}
		c.Net.Run()
		var total, max int64
		for _, e := range c.Engines {
			f := e.Stats().Forwarded
			total += f
			if f > max {
				max = f
			}
		}
		brokerSends, err := brokerLoad(n, opt.Seed+int64(n)+1)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			i2s(n),
			f2(float64(total)/float64(n)),
			i642s(max),
			i642s(brokerSends),
		)
	}
	t.Notes = "gossip per-node load is bounded by the fanout independent of N; the broker's hotspot load equals N. " +
		"This is the load-balance argument for gossip as a structuring paradigm."
	return []Table{t}, nil
}

func brokerLoad(n int, seed int64) (int64, error) {
	net := simnet.New(simnet.DefaultConfig(seed))
	broker := wsn.NewBroker(net.Node("broker"))
	testbed.Bind(net.Node("broker"), broker)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("c%04d", i)
		cons := wsn.NewConsumer(net.Node(addr))
		testbed.Bind(net.Node(addr), cons)
		broker.SubscribeLocal(addr)
	}
	if err := broker.Publish(context.Background(), wsn.Notification{ID: "evt"}); err != nil {
		return 0, err
	}
	net.Run()
	return broker.Stats().NotifiesSent, nil
}
