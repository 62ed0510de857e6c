package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/testbed"
)

// E12WindowSizing is the share-sizing ablation for the epoch-windowed,
// acked push-sum exchange: the per-round fan-out controls how finely each
// node's mass is diced into acked shares. Small fan-out means few, heavy
// shares — cheap on the wire but slow to mix and fragile to a single lost
// share; large fan-out mixes faster and spreads risk but multiplies
// messages, acks, and retry bookkeeping. The table runs one continuous
// count query per fan-out over the lossy simulator and reports, per closed
// epoch, how accuracy, traffic, and repair work trade off — while the
// conservation residual stays pinned at exactly zero in every cell, which
// is the loss-tolerance claim the ablation rides on.
func E12WindowSizing(opt Options) ([]Table, error) {
	const (
		window   = 500 * time.Millisecond
		tick     = 20 * time.Millisecond
		lossRate = 0.10
		epochs   = 3
	)
	n := opt.pick(64, 16)

	t := Table{
		ID: "E12",
		Title: fmt.Sprintf("windowed exchange share sizing under %d%% loss (N=%d, %v windows, continuous count)",
			int(lossRate*100), n, window),
		Columns: []string{
			"fanout", "worst_rel_err", "mass_err_max", "msgs/node/epoch", "bytes/node/epoch", "retries/node", "dups/node",
		},
	}
	for _, fanout := range []int{1, 2, 4, 8} {
		s, err := testbed.SimNodes(testbed.Spec[aggregate.SimNodeConfig]{
			N: n, Seed: opt.Seed + int64(fanout), Addr: "e12n%04d",
			Stream: testbed.Stream{Add: opt.Seed*131 + int64(fanout)*1000},
			Config: aggregate.SimNodeConfig{Fanout: fanout, TaskID: "e12", Func: aggregate.FuncCount, Value: 1, Window: window},
		})
		if err != nil {
			return nil, err
		}
		net, nodes := s.Net, s.Aggs
		net.Faults().SetLoss(lossRate)
		ctx := context.Background()
		var massErrMax float64
		horizon := time.Duration(epochs+1) * window
		for net.Now() < horizon {
			net.RunFor(tick)
			s.Tick(ctx)
			for _, node := range nodes {
				massErrMax = math.Max(massErrMax, math.Abs(node.MassError()))
			}
		}
		if massErrMax != 0 {
			return nil, fmt.Errorf("e12: fanout %d broke conservation: mass error %g", fanout, massErrMax)
		}
		var worstErr float64
		for _, node := range nodes {
			fr, ok := node.Frozen()
			if !ok || !fr.Defined {
				worstErr = math.Inf(1)
				continue
			}
			worstErr = math.Max(worstErr, math.Abs(fr.Estimate-float64(n))/float64(n))
		}
		sum := s.AggStats()
		retries, dups := sum.Retries, sum.DuplicateShares
		st := net.Stats()
		t.AddRow(
			i2s(fanout),
			fmt.Sprintf("%.2e", worstErr),
			fmt.Sprintf("%g", massErrMax),
			f3(float64(st.Sent)/float64(n)/float64(epochs+1)),
			f3(float64(st.Bytes)/float64(n)/float64(epochs+1)),
			f3(float64(retries)/float64(n)),
			f3(float64(dups)/float64(n)),
		)
	}
	t.Notes = "mass_err_max is exactly 0 in every row — the acked exchange's conservation contract holds at every " +
		"sampled instant regardless of share sizing; accuracy improves with fan-out while messages, bytes, and " +
		"retry work grow roughly linearly, so the sweet spot sits at small fan-out (2-4) once the epoch window " +
		"gives the slower mixing time to finish."
	return []Table{t}, nil
}
