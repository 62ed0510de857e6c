// Command wsgossip-sim runs a single parameterized gossip workload on the
// deterministic network simulator and reports coverage, latency, and
// traffic. It is the exploratory companion to wsgossip-bench: sweep any
// point of the (N, f, r, style, loss, crash) space by hand.
//
// Two modes:
//
//	wsgossip-sim -n 1024 -fanout 4 -hops 14 -style push -loss 0.2 -crash 0.1
//	wsgossip-sim -mode aggregate -n 4096 -fanout 3 -agg avg -epochs 3 -loss 0.05
//
// Dissemination mode spreads rumors; aggregate mode runs push-sum
// aggregation (count/sum/avg/min/max) as the one protocol the middleware
// speaks: the acked exchange, restarted every -window for -epochs epochs. It
// reports each closed epoch's estimate accuracy and fails the run if any
// node's conserved mass ever leaves exact zero error, loss or no loss.
//
// Gossip, churn and aggregate modes additionally accept -faults <file>, a
// fault plan (see internal/faults.ParsePlan for the grammar) scheduled on
// the simulation clock: directional cuts, connection-refused links, NAT'd
// nodes, per-link loss and delay, and node crash/recover, all replayable
// under the run's seed. The report then carries per-rule fault counters,
// and the run exits non-zero if the table's totals disagree with the
// network's fault-attributed stats — exact fault↔counter accounting is a
// gate, not a printout.
//
// Any run can be profiled, as wsgossip-bench's can (inspect with go tool
// pprof):
//
//	wsgossip-sim -exp coverage -n 1000000 -seed 3 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/core"
	"wsgossip/internal/epidemic"
	"wsgossip/internal/experiments"
	"wsgossip/internal/faults"
	"wsgossip/internal/gossip"
	"wsgossip/internal/membership"
	"wsgossip/internal/metrics"
	"wsgossip/internal/profile"
	"wsgossip/internal/simnet"
	"wsgossip/internal/testbed"
)

// roundPeriod is the nominal virtual-time round interval self-clocking
// nodes fire at; roundJitter desynchronizes peers around it.
const (
	roundPeriod = 20 * time.Millisecond
	roundJitter = 2 * time.Millisecond
)

// round is a node's protocol round: a loop of its Runner.
func round(tick func(context.Context)) core.Loop {
	return core.Loop{Name: "round", Period: roundPeriod, Jitter: roundJitter, Tick: tick}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wsgossip-sim:", err)
		os.Exit(1)
	}
}

// run runs the command line args, writing the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("wsgossip-sim", flag.ContinueOnError)
	var (
		mode       = fs.String("mode", "gossip", "workload: gossip (dissemination), aggregate (push-sum), or churn (membership-driven dissemination under join/leave)")
		n          = fs.Int("n", 256, "number of nodes")
		fanout     = fs.Int("fanout", 3, "gossip fanout f")
		hops       = fs.Int("hops", 0, "hop budget r (0 = ceil(log2 n)+2)")
		styleName  = fs.String("style", "push", "gossip style: push, pull, pushpull, lazypush, flood")
		loss       = fs.Float64("loss", 0, "message loss probability [0,1); not with -faults, whose plan sets loss with a '0s loss <p>' op")
		crash      = fs.Float64("crash", 0, "crashed-node fraction [0,1)")
		seed       = fs.Int64("seed", 1, "simulation seed")
		ticks      = fs.Int("ticks", 0, "anti-entropy rounds after the push phase (pull styles)")
		events     = fs.Int("events", 1, "number of rumors published")
		aggName    = fs.String("agg", "avg", "aggregate mode function: count, sum, avg, min, max")
		epochs     = fs.Int("epochs", 3, "aggregate mode: number of epoch windows to run (>= 1)")
		window     = fs.Duration("window", 500*time.Millisecond, "aggregate mode epoch window length")
		dumpReg    = fs.Bool("metrics", false, "dump the run's metrics-registry snapshot at end of run")
		minCov     = fs.Float64("min-coverage", 0, "coverage budget: exit non-zero when the run's coverage falls below this fraction, 0 disables")
		expName    = fs.String("exp", "", "large-N scaling experiment: coverage (E1-style point) or churn (E9-style point); uses the memory-diet harness, N=10^5..10^6 is the design target")
		maxRSSMB   = fs.Int("max-rss-mb", 0, "memory budget for -exp runs: exit non-zero when peak RSS (VmHWM) exceeds this many MiB, 0 disables")
		faultPath  = fs.String("faults", "", "fault plan file scheduled on the simulation clock (gossip, churn and aggregate modes); events apply as virtual time advances, so plan times should land inside the run's horizon")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	stop, err := profile.Start(*cpuprofile, *memprofile, "wsgossip-sim")
	if err != nil {
		return err
	}
	defer stop()
	if *minCov < 0 || *minCov > 1 {
		return fmt.Errorf("min-coverage must be in [0,1]")
	}
	var plan *faults.Plan
	if *faultPath != "" {
		if *expName != "" {
			return fmt.Errorf("-faults applies to gossip, churn, and aggregate modes")
		}
		if *loss != 0 {
			return fmt.Errorf("-loss and -faults both set the network's loss: put a '0s loss %g' op in the plan instead", *loss)
		}
		var err error
		if plan, err = loadFaultPlan(*faultPath); err != nil {
			return err
		}
	}

	if *expName != "" {
		return runExp(w, *expName, *n, *fanout, *hops, *loss, *crash, *seed, *events, *minCov, *maxRSSMB)
	}

	if *mode == "aggregate" {
		return runAggregate(w, *n, *fanout, *aggName, *loss, *seed, *dumpReg, *minCov, *epochs, *window, plan)
	}
	if *mode == "churn" {
		return runChurn(w, *n, *fanout, *loss, *crash, *seed, *ticks, *dumpReg, *minCov, plan)
	}
	if *mode != "gossip" {
		return fmt.Errorf("unknown mode %q (want gossip, aggregate, or churn)", *mode)
	}

	style, err := gossip.ParseStyle(*styleName)
	if err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("gossip mode needs -n of at least 2, got %d", *n)
	}
	if *hops == 0 {
		_, *hops = core.DefaultParamPolicy(*n)
	}
	if *loss < 0 || *loss >= 1 || *crash < 0 || *crash >= 1 {
		return fmt.Errorf("loss and crash must be in [0,1)")
	}

	reg := metrics.NewRegistry()
	var sim *testbed.Sim[gossip.Config]
	sim, err = testbed.Engines(testbed.Spec[gossip.Config]{
		N: *n, Seed: *seed, Addr: "n%05d", Stream: testbed.Stream{Mul: 7919},
		Config: gossip.Config{Style: style, Fanout: *fanout, Hops: *hops},
		// Anti-entropy rounds fire from per-node self-clocking runners on
		// the shared virtual clock, not from a harness loop.
		Loops:   func(i int) []core.Loop { return []core.Loop{round(sim.Engines[i].Tick)} },
		Metrics: reg, Plan: plan,
	})
	if err != nil {
		return err
	}
	net := sim.Net
	net.Faults().SetLoss(*loss)
	rng := rand.New(rand.NewSource(*seed))
	crashed := gossip.SamplePeers(rng, sim.Addrs, int(float64(*n)**crash), sim.Addrs[0])
	for _, a := range crashed {
		net.Crash(a)
	}

	ctx := context.Background()
	ids := make([]string, 0, *events)
	t0 := net.Now()
	for e := 0; e < *events; e++ {
		r, err := sim.Engines[e%*n].Publish(ctx, []byte("event"))
		if err != nil {
			return err
		}
		ids = append(ids, r.ID)
	}
	net.Run()
	if *ticks > 0 {
		if err := sim.Start(); err != nil {
			return err
		}
		net.RunFor(time.Duration(*ticks) * roundPeriod)
		sim.Stop()
		net.Run() // drain in-flight deliveries from the final rounds
	}

	alive := *n - len(crashed)
	var covSum float64
	var times []float64
	for _, id := range ids {
		covSum += sim.Coverage(id)
		for i, addr := range sim.Addrs {
			if d, ok := sim.Delivered(i, id); ok && !net.Crashed(addr) {
				times = append(times, float64(d.At-t0)/float64(time.Millisecond))
			}
		}
	}
	sort.Float64s(times)
	pct := func(q float64) float64 {
		if len(times) == 0 {
			return 0
		}
		idx := int(q*float64(len(times))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(times) {
			idx = len(times) - 1
		}
		return times[idx]
	}

	total := sim.GossipStats()

	fmt.Fprintf(w, "wsgossip-sim: N=%d style=%s f=%d r=%d loss=%.2f crash=%.2f seed=%d events=%d\n",
		*n, style, *fanout, *hops, *loss, *crash, *seed, *events)
	fmt.Fprintf(w, "  coverage (alive nodes):   %.4f\n", covSum/float64(len(ids)))
	if predicted, err := epidemic.ExpectedCoverageLossy(alive, *fanout, *hops, *loss); err == nil && style == gossip.StylePush {
		fmt.Fprintf(w, "  analytic prediction:      %.4f\n", predicted)
	}
	fmt.Fprintf(w, "  delivery latency ms:      p50=%.2f p99=%.2f max=%.2f\n", pct(0.50), pct(0.99), pct(1))
	fmt.Fprintf(w, "  payload forwards:         %d (%.2f per node)\n", total.Forwarded, float64(total.Forwarded)/float64(*n))
	fmt.Fprintf(w, "  duplicates suppressed:    %d\n", total.Duplicates)
	fmt.Fprintf(w, "  control msgs:             %d\n", total.IHaveSent+total.IWantSent+total.PullReqs+total.PullResps)
	if err := reportNet(w, reg, net, plan); err != nil {
		return err
	}
	reg.Counter("gossip_forwarded_total").Add(total.Forwarded)
	reg.Counter("gossip_duplicates_total").Add(total.Duplicates)
	reg.Counter("net_bytes_total").Add(net.Stats().Bytes)
	return finish(w, reg, *dumpReg, covSum/float64(len(ids)), *minCov)
}

// loadFaultPlan reads and parses a fault plan file.
func loadFaultPlan(path string) (*faults.Plan, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	plan, err := faults.ParsePlan(string(body))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return plan, nil
}

// reportNet prints the network's totals and the virtual time, and the fault
// counters if a plan ran, and records the totals in reg.
func reportNet(w io.Writer, reg *metrics.Registry, net *simnet.Network, plan *faults.Plan) error {
	st := net.Stats()
	fmt.Fprintf(w, "  network: sent=%d delivered=%d dropped=%d bytes=%d\n", st.Sent, st.Delivered, st.Dropped, st.Bytes)
	fmt.Fprintf(w, "  virtual time:             %v\n", net.Now())
	if plan != nil {
		reg.Counter("net_fault_refused_total").Add(st.FaultRefused)
		reg.Counter("net_fault_dropped_total").Add(st.FaultDropped)
		if err := reportFaults(w, net.Faults(), st); err != nil {
			return err
		}
	}
	reg.Counter("net_sent_total").Add(st.Sent)
	reg.Counter("net_delivered_total").Add(st.Delivered)
	reg.Counter("net_dropped_total").Add(st.Dropped)
	return nil
}

// reportFaults prints the per-rule fault counters (sorted by rule name) and
// enforces exact accounting: every refusal the table charged to a rule must
// show up in the network's FaultRefused, and every cut/partition/link-loss
// drop in FaultDropped. A mismatch means a consumer miscounted — that is a
// bug in the harness, so the run fails rather than printing a wrong report.
func reportFaults(w io.Writer, tbl *faults.Table, st simnet.Stats) error {
	counts := tbl.Counts()
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  faults: refused=%d dropped=%d\n", st.FaultRefused, st.FaultDropped)
	for _, name := range names {
		fmt.Fprintf(w, "    rule %-24s %d\n", name, counts[name])
	}
	tot := tbl.Totals()
	if tot.Refused != st.FaultRefused || tot.Dropped+tot.Lost != st.FaultDropped {
		return fmt.Errorf("fault accounting breach: table totals %+v vs network stats refused=%d dropped=%d",
			tot, st.FaultRefused, st.FaultDropped)
	}
	return nil
}

// finish stamps the run's coverage into the registry, dumps the snapshot
// when requested, and enforces the coverage budget: a run below budget
// exits non-zero so scripted sweeps fail loudly instead of just printing a
// bad number.
func finish(w io.Writer, reg *metrics.Registry, dump bool, coverage, minCov float64) error {
	reg.FloatGauge("sim_coverage").Set(coverage)
	if dump {
		fmt.Fprintln(w, "  metrics registry snapshot:")
		for _, line := range strings.Split(strings.TrimRight(reg.Snapshot(), "\n"), "\n") {
			fmt.Fprintln(w, "    "+line)
		}
	}
	if minCov > 0 && coverage < minCov {
		return fmt.Errorf("coverage %.4f below budget %.4f", coverage, minCov)
	}
	return nil
}

// runExp routes the -exp large-N scaling modes. These are the E1/E9 curves
// re-run at populations the table experiments cannot touch (10^5..10^6
// nodes): the experiments.Scale harness puts every node on the memory diet
// (compact RNG state, shared rumor-ID index, bitset seen-sets) so the run
// fits in single-digit GiB, and the report ends with the process's heap and
// peak-RSS numbers so regressions in per-node footprint are visible — and
// enforceable via -max-rss-mb.
func runExp(w io.Writer, name string, n, fanout, hops int, loss, churn float64, seed int64, events int, minCov float64, maxRSSMB int) error {
	opt := experiments.ScaleOptions{
		N: n, Fanout: fanout, Hops: hops, Events: events,
		Loss: loss, Churn: churn, Seed: seed,
	}
	var coverage float64
	switch name {
	case "coverage":
		s, err := experiments.ScaleCoverage(opt)
		if err != nil {
			return err
		}
		coverage = s.Coverage
		fmt.Fprintf(w, "wsgossip-sim exp=coverage: N=%d f=%d r=%d loss=%.2f seed=%d events=%d\n",
			s.N, s.Fanout, s.Hops, s.Loss, seed, s.Events)
		fmt.Fprintf(w, "  coverage:                 %.4f (analytic %.4f)\n", s.Coverage, s.Analytic)
		fmt.Fprintf(w, "  delivery latency ms:      p50=%.2f p99=%.2f max=%.2f depth=%d\n", s.P50, s.P99, s.MaxMs, s.MaxDepth)
		fmt.Fprintf(w, "  payload forwards:         %.2f per node\n", s.MsgsPerNode)
		fmt.Fprintf(w, "  network: sent=%d delivered=%d dropped=%d bytes=%d\n", s.Sent, s.Delivered, s.Dropped, s.Bytes)
		fmt.Fprintf(w, "  virtual time:             %.2fms\n", s.VirtualMs)
	case "churn":
		if opt.Churn == 0 {
			opt.Churn = 0.2 // -crash carries the churned-out fraction; default to a meaningful one
		}
		s, err := experiments.ScaleChurn(opt)
		if err != nil {
			return err
		}
		coverage = s.PostCoverage
		fmt.Fprintf(w, "wsgossip-sim exp=churn: N=%d (-%d departed) f=%d r=%d loss=%.2f seed=%d\n",
			s.N, s.Departed, s.Fanout, s.Hops, s.Loss, seed)
		fmt.Fprintf(w, "  pre-churn coverage:       %.4f of full population\n", s.PreCoverage)
		fmt.Fprintf(w, "  post-churn coverage:      %.4f of %d survivors (analytic %.4f at eff-loss %.2f)\n",
			s.PostCoverage, s.Alive, s.Analytic, s.EffLoss)
		fmt.Fprintf(w, "  pending after depart:     %d timers\n", s.PendingAfterDepart)
		fmt.Fprintf(w, "  network: sent=%d delivered=%d dropped=%d\n", s.Sent, s.Delivered, s.Dropped)
		fmt.Fprintf(w, "  virtual time:             %.2fms\n", s.VirtualMs)
	default:
		return fmt.Errorf("unknown exp %q (want coverage or churn)", name)
	}
	peakMB := memReport(w)
	if maxRSSMB > 0 && peakMB > 0 && peakMB > maxRSSMB {
		return fmt.Errorf("peak RSS %d MiB exceeds budget %d MiB", peakMB, maxRSSMB)
	}
	if minCov > 0 && coverage < minCov {
		return fmt.Errorf("coverage %.4f below budget %.4f", coverage, minCov)
	}
	return nil
}

// memReport prints the process's heap profile and (on Linux) peak RSS, and
// returns the peak RSS in MiB (0 when unavailable). The numbers are
// intentionally outside the deterministic summary: byte-identical simulation
// output stays diffable across runs while the memory lines vary.
func memReport(w io.Writer) int {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const mib = 1 << 20
	fmt.Fprintf(w, "  mem: heap=%dMiB total-alloc=%dMiB sys=%dMiB gc=%d\n",
		ms.HeapAlloc/mib, ms.TotalAlloc/mib, ms.Sys/mib, ms.NumGC)
	peak := 0
	if body, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "VmHWM:") || strings.HasPrefix(line, "VmRSS:") {
				fields := strings.Fields(line)
				if len(fields) >= 2 {
					var kb int
					if _, err := fmt.Sscanf(fields[1], "%d", &kb); err == nil {
						fmt.Fprintf(w, "  mem: %s %dMiB\n", strings.TrimSuffix(fields[0], ":"), kb/1024)
						if fields[0] == "VmHWM:" {
							peak = kb / 1024
						}
					}
				}
			}
		}
	}
	return peak
}

// runChurn drives membership-driven dissemination under churn: every node's
// gossip engine samples its live membership view (no static peer list
// exists anywhere), a crash-fraction of nodes leaves mid-run, fresh nodes
// join, and a rumor published after the churn must still cover the final
// population through view-driven push-pull rounds.
func runChurn(w io.Writer, n, fanout int, loss, leaveFrac float64, seed int64, ticks int, dumpReg bool, minCov float64, plan *faults.Plan) error {
	if n < 4 || fanout < 1 {
		return fmt.Errorf("churn mode needs n >= 4 and fanout >= 1")
	}
	if loss < 0 || loss >= 1 || leaveFrac < 0 || leaveFrac >= 0.5 {
		return fmt.Errorf("loss must be in [0,1) and crash (leave fraction) in [0,0.5)")
	}
	if ticks <= 0 {
		ticks = 30
	}
	joiners := n / 4
	// One registry for the whole simulated cluster: per-node series sum, so
	// the snapshot reads as cluster totals.
	reg := metrics.NewRegistry()
	var sim *testbed.Sim[gossip.Config]
	sim, err := testbed.Engines(testbed.Spec[gossip.Config]{
		N: n, Seed: seed, Addr: "n%05d", Stream: testbed.Stream{Mul: 7919},
		// The live view IS the peer provider.
		Members: &membership.Config{
			Fanout:       3,
			SuspectAfter: 10 * roundPeriod,
			RemoveAfter:  20 * roundPeriod,
			Metrics:      reg,
		},
		MemberStream: testbed.Stream{Mul: 131},
		Config:       gossip.Config{Style: gossip.StylePushPull, Fanout: fanout, Hops: 12},
		Loops: func(i int) []core.Loop {
			return []core.Loop{
				{Name: "membership", Period: 2 * roundPeriod, Tick: sim.Members[i].Tick},
				round(sim.Engines[i].Tick),
			}
		},
		Metrics: reg, Plan: plan,
	})
	if err != nil {
		return err
	}
	if err := sim.Start(); err != nil {
		return err
	}
	net := sim.Net
	meanView := func() float64 {
		sum, alive := 0, 0
		for i, m := range sim.Members {
			if !net.Departed(sim.Addrs[i]) {
				sum += m.Size()
				alive++
			}
		}
		return float64(sum) / float64(alive)
	}
	net.Faults().SetLoss(loss)
	net.RunFor(time.Duration(ticks) * roundPeriod) // views assemble
	viewBefore := meanView()

	// Event 1 on the assembled overlay.
	ctx := context.Background()
	if _, err := sim.Engines[0].Publish(ctx, []byte("pre-churn")); err != nil {
		return err
	}
	net.RunFor(time.Duration(ticks) * roundPeriod)

	// Churn: leavers announce and crash; joiners bootstrap from node 0.
	rng := rand.New(rand.NewSource(seed * 31))
	leaving := rng.Perm(n - 1)[:int(float64(n)*leaveFrac)]
	for _, idx := range leaving {
		i := idx + 1 // never the seed node
		sim.Members[i].Leave(ctx)
		sim.Runners[i].Stop()
		// Leavers are gone for good: Depart (not Crash) drops traffic to them
		// at enqueue, so the churned-out cohort does not keep filling the
		// timer queue with deliveries that would only be dropped on arrival.
		net.Depart(sim.Addrs[i])
	}
	for i := 0; i < joiners; i++ {
		if err := sim.Add(); err != nil {
			return err
		}
	}
	net.RunFor(time.Duration(ticks) * roundPeriod)

	// Event 2 over the churned overlay: joiners must get it from views
	// they assembled themselves, leavers must not resurrect.
	r2, err := sim.Engines[0].Publish(ctx, []byte("post-churn"))
	if err != nil {
		return err
	}
	net.RunFor(time.Duration(2*ticks) * roundPeriod)
	sim.Stop()
	net.Run()

	alive, covered, joinCovered := 0, 0, 0
	for i, addr := range sim.Addrs {
		if net.Departed(addr) {
			continue
		}
		alive++
		if _, ok := sim.Delivered(i, r2.ID); ok {
			covered++
			if i >= n {
				joinCovered++
			}
		}
	}
	viewAfter := meanView()
	fmt.Fprintf(w, "wsgossip-sim churn: N=%d (+%d joined, -%d left) f=%d loss=%.2f seed=%d\n",
		n, joiners, len(leaving), fanout, loss, seed)
	fmt.Fprintf(w, "  mean view size:           %.1f before churn, %.1f after\n", viewBefore, viewAfter)
	fmt.Fprintf(w, "  post-churn coverage:      %d/%d alive (%d/%d joiners)\n", covered, alive, joinCovered, joiners)
	if err := reportNet(w, reg, net, plan); err != nil {
		return err
	}
	return finish(w, reg, dumpReg, float64(covered)/float64(alive), minCov)
}

// runAggregate drives aggregate mode: n SimNodes over a static peer list,
// each holding a value drawn from the seed, run the acked loss-tolerant
// exchange; push-sum restarts at each multiple of window, and each closed
// epoch is reported as it freezes. The conservation contract is enforced,
// not just printed: any node whose mass-error residual leaves exact zero at
// any sampled instant fails the run with a non-zero exit — this is the CI
// smoke gate for the loss-tolerance claim. plan is scheduled on the
// network's clock.
func runAggregate(w io.Writer, n, fanout int, fnName string, loss float64, seed int64, dumpReg bool, minCov float64, epochs int, window time.Duration, plan *faults.Plan) error {
	fn, err := aggregate.ParseFunc(fnName)
	if err != nil {
		return err
	}
	if n < 2 || fanout < 1 {
		return fmt.Errorf("aggregate mode needs n >= 2 and fanout >= 1")
	}
	if loss < 0 || loss >= 1 {
		return fmt.Errorf("loss must be in [0,1)")
	}
	if epochs < 1 {
		return fmt.Errorf("aggregate mode needs epochs >= 1")
	}
	if window < 4*roundPeriod {
		return fmt.Errorf("window %v too short: epochs need several %v rounds to mix", window, roundPeriod)
	}
	reg := metrics.NewRegistry()
	rng := rand.New(rand.NewSource(seed))
	values := make([]float64, n)
	var truthSum float64
	truthMin, truthMax := math.Inf(1), math.Inf(-1)
	for i := range values {
		v := rng.Float64() * 1000
		values[i] = v
		truthSum += v
		truthMin = math.Min(truthMin, v)
		truthMax = math.Max(truthMax, v)
	}
	var sim *testbed.Sim[aggregate.SimNodeConfig]
	sim, err = testbed.SimNodes(testbed.Spec[aggregate.SimNodeConfig]{
		N: n, Seed: seed, Addr: "n%05d", Stream: testbed.Stream{Mul: 6151},
		Config:  aggregate.SimNodeConfig{Fanout: fanout, TaskID: "sim", Func: fn, Window: window},
		Shape:   func(i int, cfg *aggregate.SimNodeConfig) { cfg.Value = values[i] },
		Loops:   func(i int) []core.Loop { return []core.Loop{round(sim.Aggs[i].Tick)} },
		Metrics: reg, Plan: plan,
	})
	if err != nil {
		return err
	}
	net, nodes := sim.Net, sim.Aggs
	net.Faults().SetLoss(loss)
	truth := map[aggregate.Func]float64{
		aggregate.FuncCount: float64(n),
		aggregate.FuncSum:   truthSum,
		aggregate.FuncAvg:   truthSum / float64(n),
		aggregate.FuncMin:   truthMin,
		aggregate.FuncMax:   truthMax,
	}[fn]
	if err := sim.Start(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wsgossip-sim aggregate (windowed): N=%d f=%d fn=%s epochs=%d window=%v loss=%.2f seed=%d faults=%v\n",
		n, fanout, fn, epochs, window, loss, seed, plan != nil)

	// Sample the conservation residual every round on every node; the gate
	// is exact zero at every instant, which is what the acked exchange
	// guarantees no matter what the fault plan does to the links.
	massViolations := 0
	var worstMassErr float64
	sampleMass := func() {
		for _, node := range nodes {
			if e := node.MassError(); e != 0 {
				massViolations++
				worstMassErr = math.Max(worstMassErr, math.Abs(e))
			}
		}
	}
	for e := 1; e <= epochs; e++ {
		// Run to just past this epoch's closing boundary so every node has
		// rolled and frozen it (runner jitter keeps ticks within one period
		// of the boundary).
		target := time.Duration(e)*window + 2*roundPeriod
		for net.Now() < target {
			net.RunFor(roundPeriod)
			sampleMass()
		}
		defined := 0
		var worstErr float64
		for _, node := range nodes {
			fr, ok := node.Frozen()
			if !ok || fr.Epoch != uint64(e) || !fr.Defined {
				continue
			}
			defined++
			worstErr = math.Max(worstErr, math.Abs(fr.Estimate-truth)/math.Max(math.Abs(truth), 1e-12))
		}
		fmt.Fprintf(w, "  epoch %d: estimates %d/%d defined, worst rel err %.3e\n", e, defined, n, worstErr)
		reg.FloatGauge("aggregate_worst_rel_error").Set(worstErr)
	}
	sim.Stop()
	net.Run() // drain in-flight shares and acks from the final rounds
	sampleMass()

	stats := sim.AggStats()
	fmt.Fprintf(w, "  exchange: sent=%d absorbed=%d committed=%d retried=%d dup=%d stale=%d recovered=%d retired=%d\n",
		stats.SharesSent, stats.SharesAbsorbed, stats.Commits, stats.Retries,
		stats.DuplicateShares, stats.StaleShares, stats.Recovered, stats.UnackedDropped)
	fmt.Fprintf(w, "  mass error: %d violation(s), worst %g (gate: exactly 0 everywhere, always)\n",
		massViolations, worstMassErr)
	if err := reportNet(w, reg, net, plan); err != nil {
		return err
	}
	reg.FloatGauge("aggregate_mass_error").Set(worstMassErr)
	if massViolations > 0 {
		return fmt.Errorf("mass conservation violated %d time(s), worst residual %g: the acked exchange must hold aggregate_mass_error at exactly 0 under loss",
			massViolations, worstMassErr)
	}
	// Coverage is the fraction of nodes whose final epoch froze with a
	// defined estimate.
	finalDefined := 0
	for _, node := range nodes {
		if fr, ok := node.Frozen(); ok && fr.Epoch == uint64(epochs) && fr.Defined {
			finalDefined++
		}
	}
	return finish(w, reg, dumpReg, float64(finalDefined)/float64(n), minCov)
}
