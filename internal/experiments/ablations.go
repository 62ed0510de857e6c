package experiments

import (
	"context"
	"fmt"
	"time"

	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
)

// A1Styles ablates the gossip styles the framework encompasses (paper
// Section 4: "encompassing different gossip styles"): eager push, lazy push,
// pull, push-pull, and flooding, comparing coverage, payload traffic,
// control traffic, and completion time for one event.
func A1Styles(opt Options) ([]Table, error) {
	n := opt.pick(1024, 256)
	t := Table{
		ID:    "A1",
		Title: fmt.Sprintf("Gossip styles ablation (N=%d, one event, f=3)", n),
		Columns: []string{
			"style", "coverage", "payload msgs", "control msgs", "virtual ms",
		},
	}
	type styleRun struct {
		style gossip.Style
		ticks int
	}
	for _, sr := range []styleRun{
		{gossip.StylePush, 0},
		{gossip.StyleLazyPush, 0},
		{gossip.StylePull, 25},
		{gossip.StylePushPull, 10},
		{gossip.StyleCounter, 0},
		{gossip.StyleFlood, 0},
	} {
		c, err := newEngineCluster(n, opt.Seed+int64(sr.style)*111, gossip.Config{
			Style:    sr.style,
			Fanout:   3,
			Hops:     defaultHops(n) + 2,
			CounterK: 4,
		})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		t0 := c.Net.Now()
		r, err := c.Engines[0].Publish(ctx, []byte("evt"))
		if err != nil {
			return nil, err
		}
		c.Net.Run()
		if sr.ticks > 0 {
			c.tickAll(ctx, sr.ticks, 20*time.Millisecond)
		}
		st := c.GossipStats()
		control := st.IHaveSent + st.IWantSent + st.PullReqs + st.PullResps
		elapsed := float64(c.Net.Now()-t0) / float64(time.Millisecond)
		t.AddRow(
			sr.style.String(),
			f3(c.Coverage(r.ID)),
			i642s(st.Forwarded),
			i642s(control),
			f2(elapsed),
		)
	}
	t.Notes = "push is fastest; lazy push trades payload traffic for announce/request control messages and extra latency; " +
		"pull alone needs many rounds; push-pull combines push latency with repair; counter mongering (K=4) adapts traffic " +
		"without (f, r) sizing; flood maximizes traffic (~N per forwarder)."
	return []Table{t}, nil
}

// A2DedupCache ablates the seen-cache size: undersized caches forget rumor
// IDs while copies are still circulating, causing duplicate deliveries to
// the application (DESIGN.md decision 4).
func A2DedupCache(opt Options) ([]Table, error) {
	n := opt.pick(128, 64)
	events := opt.pick(120, 60)
	t := Table{
		ID:    "A2",
		Title: fmt.Sprintf("Seen-cache sizing (N=%d, %d events, f=3)", n, events),
		Columns: []string{
			"cache size", "redeliveries", "suppressed duplicates",
		},
	}
	// Sizes below the concurrent-rumor count thrash: evicted IDs are
	// re-accepted AND re-forwarded, so traffic grows combinatorially with
	// the shortfall. Sizes are chosen so the worst case stays tractable
	// while the redelivery cliff is clearly visible.
	for _, size := range []int{16, 64, 256, 4096} {
		c, err := newEngineCluster(n, opt.Seed+int64(size), gossip.Config{
			Style:         gossip.StylePush,
			Fanout:        3,
			Hops:          defaultHops(n) + 2,
			SeenCacheSize: size,
		})
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		for e := 0; e < events; e++ {
			if _, err := c.Engines[e%n].Publish(ctx, []byte("evt")); err != nil {
				return nil, err
			}
			// Interleave publishes with partial network drains so many
			// rumors circulate concurrently, stressing the cache.
			if e%8 == 7 {
				c.Net.RunFor(2 * time.Millisecond)
			}
		}
		c.Net.Run()
		st := c.GossipStats()
		t.AddRow(i2s(size), i2s(c.Redeliveries), i642s(st.Duplicates))
	}
	t.Notes = "once the cache comfortably exceeds the number of concurrently circulating rumors, redeliveries drop to zero; " +
		"the default (65536) is far above any realistic concurrent-rumor count."
	return []Table{t}, nil
}

// A3TargetAssignment ablates the Coordinator's target-assignment strategy
// (DESIGN.md decision: a Coordinator that "knows the entire list of
// subscribers" can balance in-degree). Balanced assignment removes the
// low-in-degree tail that per-registration random sampling leaves, lifting
// the fraction of nodes that receive *every* event.
func A3TargetAssignment(opt Options) ([]Table, error) {
	n := opt.pick(96, 32)
	events := opt.pick(40, 10)
	t := Table{
		ID:    "A3",
		Title: fmt.Sprintf("Coordinator target assignment (N=%d dissem, %d events, f=4)", n, events),
		Columns: []string{
			"strategy", "mean delivery", "nodes w/ complete stream", "worst node misses",
		},
	}
	for _, s := range []struct {
		name     string
		strategy core.TargetStrategy
	}{
		{"balanced", core.TargetBalanced},
		{"random", core.TargetRandom},
	} {
		d, err := newE0DeploymentStrategy(n, opt.Seed+int64(s.strategy), 4, defaultHops(n)+2, s.strategy)
		if err != nil {
			return nil, err
		}
		if _, err := d.run(events); err != nil {
			return nil, err
		}
		complete, worstMiss, totalDelivered := 0, 0, 0
		for _, app := range d.apps {
			got := app.Count()
			totalDelivered += got
			if got >= events {
				complete++
			}
			if miss := events - got; miss > worstMiss {
				worstMiss = miss
			}
		}
		t.AddRow(
			s.name,
			f3(float64(totalDelivered)/float64(events*n)),
			fmt.Sprintf("%d/%d", complete, n),
			i2s(worstMiss),
		)
	}
	t.Notes = "both strategies deliver well on average; balanced assignment eliminates the unlucky low-in-degree " +
		"nodes that random sampling starves, which is what pushes per-node completeness to ~100%."
	return []Table{t}, nil
}
