package experiments

import (
	"context"
	"math"
	"sort"
	"time"

	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/testbed"
)

// engineCluster is a set of gossip engines over one simulated network, each
// recording when and at what hop depth it first delivered each rumor.
type engineCluster struct {
	*testbed.Sim[gossip.Config]
	hops int
}

// newEngineCluster builds n engines from cfg, node i drawing from the
// stream seed*7919+i.
func newEngineCluster(n int, seed int64, cfg gossip.Config) (*engineCluster, error) {
	s, err := testbed.Engines(testbed.Spec[gossip.Config]{
		N: n, Seed: seed, Addr: "n%04d", Stream: testbed.Stream{Mul: 7919}, Config: cfg,
	})
	if err != nil {
		return nil, err
	}
	return &engineCluster{Sim: s, hops: cfg.Hops}, nil
}

// maxDepth returns the deepest hop level at which the rumor was delivered.
func (c *engineCluster) maxDepth(id string) int {
	max := 0
	for i := range c.Engines {
		if d, ok := c.Delivered(i, id); ok && c.hops-d.Hops > max {
			max = c.hops - d.Hops
		}
	}
	return max
}

// deliveryTimes returns all delivery times for the rumor, relative to t0.
func (c *engineCluster) deliveryTimes(id string, t0 time.Duration) []float64 {
	var out []float64
	for i := range c.Engines {
		if d, ok := c.Delivered(i, id); ok {
			out = append(out, float64(d.At-t0)/float64(time.Millisecond))
		}
	}
	return out
}

// tickAll runs rounds rounds: one Tick on every engine not crashed, then
// interval of network time.
func (c *engineCluster) tickAll(ctx context.Context, rounds int, interval time.Duration) {
	for r := 0; r < rounds; r++ {
		c.Tick(ctx)
		c.Net.RunFor(interval)
	}
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
