package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wsgossip/internal/epidemic"
	"wsgossip/internal/gossip"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// Large-N scaling runs (wsgossip-sim -exp). The regular experiment clusters
// (cluster.go) keep one map[string]time.Duration of deliveries per node plus
// a ~5 KiB math/rand source per engine — fine at N=10^3, gigabytes at
// N=10^6. The scale harness swaps both for the memory-diet primitives the
// simulator grew for exactly this population: simnet.NewCompactRNG (16-byte
// splitmix64 state per node) and a gossip.IDIndex shared across the run so
// per-node delivery tracking is a gossip.DenseSeen bitset over dense rumor
// indices instead of string-keyed maps. Everything reported derives from the
// seeded virtual-time simulation — two runs with equal options must produce
// byte-identical summaries, which is what the determinism tests and the CI
// scale smoke assert.

// ScaleOptions parameterizes a large-N run.
type ScaleOptions struct {
	// N is the population size (10^5..10^6 is the design target).
	N int
	// Fanout and Hops are the paper's f and r; Hops 0 = ceil(log2 N)+2.
	Fanout int
	Hops   int
	// Events is the number of rumors published (default 1).
	Events int
	// Loss is the per-message loss probability in [0,1).
	Loss float64
	// Churn is the fraction of nodes that permanently leave mid-run
	// (churn experiment only), in [0,0.5).
	Churn float64
	// Seed drives every random stream in the run.
	Seed int64
}

func (o *ScaleOptions) normalize() error {
	if o.N < 16 {
		return fmt.Errorf("scale: need n >= 16, got %d", o.N)
	}
	if o.Fanout < 1 {
		o.Fanout = 3
	}
	if o.Hops <= 0 {
		o.Hops = defaultHops(o.N) + 2
	}
	if o.Events < 1 {
		o.Events = 1
	}
	if o.Loss < 0 || o.Loss >= 1 {
		return fmt.Errorf("scale: loss must be in [0,1), got %v", o.Loss)
	}
	if o.Churn < 0 || o.Churn >= 0.5 {
		return fmt.Errorf("scale: churn must be in [0,0.5), got %v", o.Churn)
	}
	return nil
}

// ScaleSummary is the deterministic outcome of one large-N coverage run.
// Every field is a pure function of ScaleOptions.
type ScaleSummary struct {
	N, Fanout, Hops, Events int
	Loss                    float64
	Coverage                float64 // mean over events, fraction of N
	Analytic                float64 // epidemic.ExpectedCoverageLossy prediction
	P50, P99, MaxMs         float64 // delivery latency, virtual milliseconds
	MaxDepth                int     // deepest hop level used by any delivery
	MsgsPerNode             float64 // payload forwards per node
	Sent, Delivered         int64
	Dropped, Bytes          int64
	VirtualMs               float64 // final virtual time
}

// scalePop is the dieted population: engines plus bitset delivery tracking.
type scalePop struct {
	net     *simnet.Network
	addrs   []string
	engines []*gossip.Engine
	idx     *gossip.IDIndex
	seen    []gossip.DenseSeen // per node, over idx indices
	// per-event accumulators, indexed by the rumor's dense index
	reached  []int
	maxDepth []int
	times    [][]float64 // delivery latency per event, virtual ms
	t0       []time.Duration
}

// newScalePop builds n engines on one simulated network using the compact
// per-node RNG and shared-index delivery tracking.
func newScalePop(n int, seed int64, style gossip.Style, fanout, hops, events int) (*scalePop, error) {
	p := &scalePop{
		net:      simnet.New(simnet.DefaultConfig(seed)),
		addrs:    make([]string, n),
		engines:  make([]*gossip.Engine, n),
		idx:      gossip.NewIDIndex(),
		seen:     make([]gossip.DenseSeen, n),
		reached:  make([]int, 0, events),
		maxDepth: make([]int, 0, events),
		times:    make([][]float64, 0, events),
		t0:       make([]time.Duration, 0, events),
	}
	for i := range p.addrs {
		p.addrs[i] = fmt.Sprintf("n%07d", i)
	}
	peers := gossip.NewUniformPeers(p.addrs)
	for i := range p.addrs {
		i := i
		eng, err := gossip.New(gossip.Config{
			Style:    style,
			Fanout:   fanout,
			Hops:     hops,
			Endpoint: p.net.Node(p.addrs[i]),
			Peers:    peers,
			RNG:      simnet.NewCompactRNG(seed*7919 + int64(i)),
			// A scale run disseminates a handful of events; the default
			// 64k-entry seen cache budget is sized for long-lived nodes.
			SeenCacheSize: 256,
			StoreSize:     64,
			Deliver: func(r gossip.Rumor) {
				k := p.idx.Index(r.ID)
				if !p.seen[i].Add(k) {
					return
				}
				// Publish delivers to the origin synchronously, before the
				// caller can register the event — grow the accumulators here.
				p.ensure(k)
				p.reached[k]++
				dt := float64(p.net.Now()-p.t0[k]) / float64(time.Millisecond)
				p.times[k] = append(p.times[k], dt)
				if d := hops - r.Hops; d > p.maxDepth[k] {
					p.maxDepth[k] = d
				}
			},
		})
		if err != nil {
			return nil, err
		}
		mux := transport.NewMux()
		eng.Register(mux)
		mux.Bind(p.net.Node(p.addrs[i]))
		p.engines[i] = eng
	}
	return p, nil
}

// ensure grows the per-event accumulators to cover dense index k, stamping
// new slots with the current virtual time.
func (p *scalePop) ensure(k int) {
	for len(p.reached) <= k {
		p.reached = append(p.reached, 0)
		p.maxDepth = append(p.maxDepth, 0)
		p.times = append(p.times, nil)
		p.t0 = append(p.t0, p.net.Now())
	}
}

// recordEvent registers a just-published rumor for delivery tracking. Called
// immediately after Publish (same virtual instant), so the publish time is
// still Now even though the origin's own delivery already fired.
func (p *scalePop) recordEvent(id string) int {
	k := p.idx.Index(id)
	p.ensure(k)
	p.t0[k] = p.net.Now()
	return k
}

// ScaleCoverage is the E1 scalability point at large N: publish opt.Events
// rumors over push gossip on a lossy LAN profile and report coverage,
// latency percentiles, dissemination depth, and traffic against the
// analytic epidemic prediction.
func ScaleCoverage(opt ScaleOptions) (*ScaleSummary, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	p, err := newScalePop(opt.N, opt.Seed, gossip.StylePush, opt.Fanout, opt.Hops, opt.Events)
	if err != nil {
		return nil, err
	}
	p.net.Faults().SetLoss(opt.Loss)
	ctx := context.Background()
	keys := make([]int, 0, opt.Events)
	for e := 0; e < opt.Events; e++ {
		r, err := p.engines[e%opt.N].Publish(ctx, []byte("evt"))
		if err != nil {
			return nil, err
		}
		keys = append(keys, p.recordEvent(r.ID))
	}
	p.net.Run()

	s := &ScaleSummary{
		N: opt.N, Fanout: opt.Fanout, Hops: opt.Hops, Events: opt.Events,
		Loss: opt.Loss,
	}
	var all []float64
	for _, k := range keys {
		s.Coverage += float64(p.reached[k]) / float64(opt.N)
		if p.maxDepth[k] > s.MaxDepth {
			s.MaxDepth = p.maxDepth[k]
		}
		all = append(all, p.times[k]...)
	}
	s.Coverage /= float64(len(keys))
	if pred, err := epidemic.ExpectedCoverageLossy(opt.N, opt.Fanout, opt.Hops, opt.Loss); err == nil {
		s.Analytic = pred
	}
	s.P50, s.P99, s.MaxMs = quantile(all, 0.50), quantile(all, 0.99), quantile(all, 1.0)
	var forwarded int64
	for _, e := range p.engines {
		forwarded += e.Stats().Forwarded
	}
	s.MsgsPerNode = float64(forwarded) / float64(opt.N)
	st := p.net.Stats()
	s.Sent, s.Delivered, s.Dropped, s.Bytes = st.Sent, st.Delivered, st.Dropped, st.Bytes
	s.VirtualMs = float64(p.net.Now()) / float64(time.Millisecond)
	return s, nil
}

// ScaleChurnSummary is the deterministic outcome of one large-N churn run.
type ScaleChurnSummary struct {
	N, Departed, Alive int
	Fanout, Hops       int
	Loss, Churn        float64
	// PreCoverage is the pre-churn event's coverage over the full
	// population; PostCoverage is the post-churn event's coverage over the
	// surviving cohort.
	PreCoverage, PostCoverage float64
	// EffLoss is the per-message effective loss the post-churn epidemic
	// sees: a static-peer forward targets a departed node with probability
	// Churn, compounding with link loss. Analytic is the epidemic
	// prediction for the surviving cohort under that effective loss.
	EffLoss, Analytic float64
	// PendingAfterDepart is the timer-queue length immediately after the
	// departures: with enqueue-time dropping it reflects only surviving
	// traffic, not a backlog of deliveries into dead nodes.
	PendingAfterDepart       int
	Sent, Delivered, Dropped int64
	VirtualMs                float64
}

// ScaleChurn is the E9 churn point at large N: disseminate once over the
// full population, permanently Depart a Churn fraction (dropping their
// traffic at enqueue — the event queue must not fill with deliveries into
// dead nodes), then disseminate again and measure what the survivors get.
func ScaleChurn(opt ScaleOptions) (*ScaleChurnSummary, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	p, err := newScalePop(opt.N, opt.Seed, gossip.StylePush, opt.Fanout, opt.Hops, 2)
	if err != nil {
		return nil, err
	}
	p.net.Faults().SetLoss(opt.Loss)
	ctx := context.Background()

	// Event 1 on the intact population.
	r1, err := p.engines[0].Publish(ctx, []byte("pre-churn"))
	if err != nil {
		return nil, err
	}
	k1 := p.recordEvent(r1.ID)
	p.net.Run()

	// Permanent departures (never the publisher).
	rng := rand.New(rand.NewSource(opt.Seed * 31))
	departed := rng.Perm(opt.N - 1)[:int(float64(opt.N)*opt.Churn)]
	gone := make([]bool, opt.N)
	for _, idx := range departed {
		gone[idx+1] = true
		p.net.Depart(p.addrs[idx+1])
	}
	pendingAfter := p.net.Pending()

	// Event 2 over the churned population: static peer lists still name the
	// departed nodes, so every forward risks hitting a dead target.
	r2, err := p.engines[0].Publish(ctx, []byte("post-churn"))
	if err != nil {
		return nil, err
	}
	k2 := p.recordEvent(r2.ID)
	p.net.Run()

	alive := opt.N - len(departed)
	s := &ScaleChurnSummary{
		N: opt.N, Departed: len(departed), Alive: alive,
		Fanout: opt.Fanout, Hops: opt.Hops,
		Loss: opt.Loss, Churn: opt.Churn,
		PendingAfterDepart: pendingAfter,
	}
	s.PreCoverage = float64(p.reached[k1]) / float64(opt.N)
	// Post-churn deliveries only count survivors: departed nodes receive
	// nothing after Depart, so reached[k2] is already survivor-only.
	s.PostCoverage = float64(p.reached[k2]) / float64(alive)
	churnFrac := float64(len(departed)) / float64(opt.N)
	s.EffLoss = 1 - (1-opt.Loss)*(1-churnFrac)
	if pred, err := epidemic.ExpectedCoverageLossy(alive, opt.Fanout, opt.Hops, s.EffLoss); err == nil {
		s.Analytic = pred
	}
	st := p.net.Stats()
	s.Sent, s.Delivered, s.Dropped = st.Sent, st.Delivered, st.Dropped
	s.VirtualMs = float64(p.net.Now()) / float64(time.Millisecond)
	return s, nil
}
