package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// engineCluster is a set of gossip engines over one simulated network, with
// per-node delivery records (delivery virtual time and hop depth).
type engineCluster struct {
	net     *simnet.Network
	addrs   []string
	engines []*gossip.Engine
	// deliveries[i][rumorID] records the virtual time of first delivery.
	deliveries []map[string]time.Duration
	// depths[i][rumorID] records hopBudget - remainingHops at delivery.
	depths []map[string]int
	// redeliveries counts Deliver callbacks beyond the first per (node, rumor).
	redeliveries int
	hops         int
}

type engineParams struct {
	style     gossip.Style
	fanout    int
	hops      int
	seenCache int
	counterK  int
}

func newEngineCluster(n int, seed int64, p engineParams) (*engineCluster, error) {
	net := simnet.New(simnet.DefaultConfig(seed))
	c := &engineCluster{
		net:        net,
		addrs:      make([]string, n),
		engines:    make([]*gossip.Engine, n),
		deliveries: make([]map[string]time.Duration, n),
		depths:     make([]map[string]int, n),
		hops:       p.hops,
	}
	for i := 0; i < n; i++ {
		c.addrs[i] = fmt.Sprintf("n%04d", i)
	}
	peers := gossip.NewStaticPeers(c.addrs)
	for i := 0; i < n; i++ {
		i := i
		c.deliveries[i] = make(map[string]time.Duration)
		c.depths[i] = make(map[string]int)
		eng, err := gossip.New(gossip.Config{
			Style:         p.style,
			Fanout:        p.fanout,
			Hops:          p.hops,
			Endpoint:      net.Node(c.addrs[i]),
			Peers:         peers,
			RNG:           rand.New(rand.NewSource(seed*7919 + int64(i))),
			SeenCacheSize: p.seenCache,
			CounterK:      p.counterK,
			Deliver: func(r gossip.Rumor) {
				if _, seen := c.deliveries[i][r.ID]; seen {
					c.redeliveries++
					return
				}
				c.deliveries[i][r.ID] = net.Now()
				c.depths[i][r.ID] = c.hops - r.Hops
			},
		})
		if err != nil {
			return nil, err
		}
		mux := transport.NewMux()
		eng.Register(mux)
		mux.Bind(net.Node(c.addrs[i]))
		c.engines[i] = eng
	}
	return c, nil
}

// coverage returns the fraction of eligible nodes that received the rumor.
// Crashed nodes are excluded (they cannot deliver).
func (c *engineCluster) coverage(id string) float64 {
	eligible, reached := 0, 0
	for i := range c.engines {
		if c.net.Crashed(c.addrs[i]) {
			continue
		}
		eligible++
		if _, ok := c.deliveries[i][id]; ok {
			reached++
		}
	}
	if eligible == 0 {
		return 0
	}
	return float64(reached) / float64(eligible)
}

// maxDepth returns the deepest hop level at which the rumor was delivered.
func (c *engineCluster) maxDepth(id string) int {
	max := 0
	for i := range c.engines {
		if d, ok := c.depths[i][id]; ok && d > max {
			max = d
		}
	}
	return max
}

// deliveryTimes returns all delivery times for the rumor, relative to t0.
func (c *engineCluster) deliveryTimes(id string, t0 time.Duration) []float64 {
	var out []float64
	for i := range c.engines {
		if at, ok := c.deliveries[i][id]; ok {
			out = append(out, float64(at-t0)/float64(time.Millisecond))
		}
	}
	return out
}

// tickAll runs one Tick on every engine and advances the network interval.
func (c *engineCluster) tickAll(ctx context.Context, rounds int, interval time.Duration) {
	for r := 0; r < rounds; r++ {
		for i, e := range c.engines {
			if c.net.Crashed(c.addrs[i]) {
				continue
			}
			e.Tick(ctx)
		}
		c.net.RunFor(interval)
	}
}

// totalStats sums engine counters across the cluster.
func (c *engineCluster) totalStats() gossip.Stats {
	var t gossip.Stats
	for _, e := range c.engines {
		s := e.Stats()
		t.Published += s.Published
		t.Delivered += s.Delivered
		t.Duplicates += s.Duplicates
		t.Forwarded += s.Forwarded
		t.IHaveSent += s.IHaveSent
		t.IWantSent += s.IWantSent
		t.PullReqs += s.PullReqs
		t.PullResps += s.PullResps
		t.SendErrors += s.SendErrors
	}
	return t
}

// defaultHops returns the standard epidemic hop budget for n nodes, the
// coordinator's default policy's.
func defaultHops(n int) int {
	_, hops := core.DefaultParamPolicy(n)
	return hops
}

// quantile returns the q-quantile of vals (nearest rank); 0 for empty input.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
