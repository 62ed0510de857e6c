package experiments

import (
	"context"

	"wsgossip/internal/epidemic"
	"wsgossip/internal/gossip"
)

// E2FanoutCoverage measures delivery coverage as a function of fanout f and
// compares it with the analytic epidemic prediction (Eugster et al. 2004).
// This validates the paper's Section 2 claim that "parameters f and r can be
// configured such that any desired average number of receivers successfully
// get the message", and that atomic delivery is achieved with high
// probability once f clears the threshold.
func E2FanoutCoverage(opt Options) ([]Table, error) {
	n := opt.pick(1024, 256)
	trials := opt.pick(20, 5)
	hops := defaultHops(n) + 4

	t := Table{
		ID:    "E2",
		Title: "Coverage vs fanout: measured (simulated push) vs analytic prediction",
		Columns: []string{
			"f", "measured coverage", "predicted coverage", "atomic runs",
			"predicted P(atomic)",
		},
	}
	for f := 1; f <= 8; f++ {
		var covSum float64
		atomic := 0
		for trial := 0; trial < trials; trial++ {
			c, err := newEngineCluster(n, opt.Seed+int64(f*1000+trial), gossip.Config{
				Style:  gossip.StylePush,
				Fanout: f,
				Hops:   hops,
			})
			if err != nil {
				return nil, err
			}
			origin := trial % n
			r, err := c.Engines[origin].Publish(context.Background(), []byte("evt"))
			if err != nil {
				return nil, err
			}
			c.Net.Run()
			cov := c.Coverage(r.ID)
			covSum += cov
			if cov == 1.0 {
				atomic++
			}
		}
		predicted, err := epidemic.ExpectedCoverage(n, f, hops)
		if err != nil {
			return nil, err
		}
		pAtomic, err := epidemic.AtomicityProbability(n, f, hops)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			i2s(f),
			f3(covSum/float64(trials)),
			f3(predicted),
			i2s(atomic)+"/"+i2s(trials),
			f3(pAtomic),
		)
	}
	t.Notes = "coverage follows the final-size equation z = 1 - exp(-f z) (~0.80 at f=2, ~0.94 at f=3, >0.999 at f>=7); " +
		"the atomic-run fraction tracks the Poisson-miss prediction, rising towards 1 as f grows — the 'atomically delivered w.h.p.' claim."
	return []Table{t}, nil
}
