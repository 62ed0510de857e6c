// Property-based conservation contract for the epoch-windowed, acked
// push-sum exchange: under ARBITRARY generated schedules of link loss,
// cuts, partitions, crashes, recoveries, and joins, no node's mass-error
// residual may ever leave zero — the pairwise-atomic share (commit on ack,
// reclaim on synchronous refusal, retire at epoch boundaries) makes the
// conservation ledger balance at every observable instant, not just at
// quiescence. The generated plans are seeded and deterministic; failures
// print the full schedule so a counterexample can be shrunk by hand and
// committed below as a regression.
package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/testbed"
)

// faultOp is one scheduled fault action, applied just before tick `step`.
type faultOp struct {
	step int
	kind string // loss, linkloss, cut, partition, healall, crash, recover, join
	a, b string
	rate float64
	grp  []string
}

func (op faultOp) String() string {
	return fmt.Sprintf("{step:%d %s a:%q b:%q rate:%g grp:%v}", op.step, op.kind, op.a, op.b, op.rate, op.grp)
}

// conservationPlan is one full property-test case: a cluster shape plus a
// fault schedule.
type conservationPlan struct {
	name   string
	seed   int64
	nodes  int // initial live nodes (indices [0,nodes))
	late   int // extra pre-crashed nodes that "join" via recover ops
	steps  int // faulty phase length, in ticks
	window time.Duration
	ops    []faultOp
}

const (
	consTick = 20 * time.Millisecond
	// consEps is the relative tolerance for end-of-run estimate and global
	// weight checks. Mass-error residuals use no tolerance at all: the
	// ledger snaps float dust to exactly zero, and the property is that it
	// never reads anything else.
	consEps = 1e-2
)

// aggCluster is a simulated cluster of windowed push-sum nodes running a
// continuous count query ("how many nodes are alive?") with node 0 as the
// anchor root.
type aggCluster struct {
	*testbed.Sim[aggregate.SimNodeConfig]
	t *testing.T
}

func consAddr(i int) string { return fmt.Sprintf(consAddrFormat, i) }

const consAddrFormat = "agg%03d"

// newAggCluster builds nodes live nodes and late more that start crashed:
// they exist on the network (their inbound deliveries drop) but neither
// tick nor contribute until a join op.
func newAggCluster(t *testing.T, seed int64, nodes, late int, window time.Duration) *aggCluster {
	t.Helper()
	s, err := testbed.SimNodes(testbed.Spec[aggregate.SimNodeConfig]{
		N: nodes + late, Seed: seed, Addr: consAddrFormat, Stream: testbed.Stream{Mul: 7907},
		Config: aggregate.SimNodeConfig{Fanout: 2, TaskID: "conserve", Func: aggregate.FuncCount, Value: 1, Window: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range s.Addrs[nodes:] {
		s.Net.Crash(addr)
	}
	return &aggCluster{Sim: s, t: t}
}

// tick advances one round: deliver everything due, then run one push-sum
// round on every live node in index order (determinism).
func (c *aggCluster) tick(ctx context.Context) {
	c.Net.RunFor(consTick)
	c.Tick(ctx)
}

// checkMass asserts the conservation contract on every live node. The
// residual must be exactly zero — not small, zero: the ledger cancels
// commit and recovery terms exactly and snaps sub-tolerance float dust.
func (c *aggCluster) checkMass(stage string, plan *conservationPlan) {
	c.t.Helper()
	for i, node := range c.Aggs {
		if c.Net.Crashed(c.Addrs[i]) {
			continue
		}
		if e := node.MassError(); e != 0 {
			c.t.Fatalf("%s: node %s mass error = %g, want exactly 0\nepoch=%d outstanding=%g contributed=%g stats=%+v\nplan: %+v",
				stage, c.Addrs[i], e, node.Epoch(), node.Outstanding(), node.Contributed(), node.Stats(), plan)
		}
	}
}

// apply executes one fault op against the network and table.
func (c *aggCluster) apply(op faultOp) {
	tbl := c.Net.Faults()
	switch op.kind {
	case "loss":
		tbl.SetLoss(op.rate)
	case "linkloss":
		tbl.LinkLoss("op-linkloss", []string{op.a}, []string{op.b}, op.rate)
	case "cut":
		tbl.CutBoth("op-cut", []string{op.a}, []string{op.b})
	case "partition":
		tbl.Partition("op-partition", op.grp)
	case "healall":
		tbl.HealAll()
	case "crash":
		c.Net.Crash(op.a)
	case "recover", "join":
		c.Net.Recover(op.a)
	default:
		c.t.Fatalf("unknown fault op kind %q", op.kind)
	}
}

// runConservation drives one plan: the faulty phase with per-tick mass
// checks, then a healed quiescent phase that must restore global
// conservation and a correct count estimate.
func runConservation(t *testing.T, plan conservationPlan) {
	c := newAggCluster(t, plan.seed, plan.nodes, plan.late, plan.window)
	ctx := context.Background()

	byStep := make(map[int][]faultOp)
	for _, op := range plan.ops {
		byStep[op.step] = append(byStep[op.step], op)
	}
	for step := 0; step < plan.steps; step++ {
		for _, op := range byStep[step] {
			c.apply(op)
		}
		c.tick(ctx)
		// The heart of the property: conservation holds mid-chaos at every
		// observable instant, on every live node.
		c.checkMass(fmt.Sprintf("step %d", step), &plan)
	}

	// Heal everything and recover every node, then cross into a fresh epoch
	// so all nodes restart from clean contributions.
	c.Net.Faults().HealAll()
	for _, addr := range c.Addrs {
		c.Net.Recover(addr)
	}
	now := c.Net.Now()
	nextBoundary := now.Truncate(plan.window) + plan.window
	c.Net.RunFor(nextBoundary - now)

	// One clean window of rounds, checking mass throughout.
	cleanRounds := int(plan.window/consTick) - 1
	for step := 0; step < cleanRounds; step++ {
		c.tick(ctx)
		c.checkMass(fmt.Sprintf("clean round %d", step), &plan)
	}
	// Drain all in-flight shares and acks. With no faults every share lands
	// and every ack commits, so nothing stays outstanding.
	c.Net.Run()
	c.checkMass("after drain", &plan)

	total := plan.nodes + plan.late
	epoch := c.Aggs[0].Epoch()
	var heldWeight, contributed float64
	for i, node := range c.Aggs {
		if got := node.Epoch(); got != epoch {
			t.Fatalf("node %s in epoch %d, node %s in epoch %d after clean window\nplan: %+v",
				c.Addrs[i], got, c.Addrs[0], epoch, plan)
		}
		if out := node.Outstanding(); out != 0 {
			t.Fatalf("node %s still has outstanding weight %g after no-fault drain\nplan: %+v",
				c.Addrs[i], out, plan)
		}
		_, w := node.State().Mass()
		heldWeight += w
		contributed += node.Contributed()
	}
	// Global conservation at quiescence: with zero faults in the live epoch
	// and nothing outstanding, held weight equals injected weight.
	if diff := math.Abs(heldWeight - contributed); diff > consEps*math.Max(1, contributed) {
		t.Fatalf("global weight leak: held %g vs contributed %g (diff %g)\nplan: %+v",
			heldWeight, contributed, diff, plan)
	}
	// And the continuous count query tracks the (fully recovered) truth.
	est, ok := c.Aggs[0].State().Estimate()
	if !ok {
		t.Fatalf("root has no estimate after clean window\nplan: %+v", plan)
	}
	if rel := math.Abs(est-float64(total)) / float64(total); rel > consEps {
		t.Fatalf("root count estimate %g, want %d within %g\nplan: %+v", est, total, consEps, plan)
	}
}

// genPlan builds a seeded random fault schedule. Everything derives from
// the seed, so a failing plan reproduces from its subtest name alone.
func genPlan(seed int64) conservationPlan {
	rng := rand.New(rand.NewSource(seed))
	plan := conservationPlan{
		name:   fmt.Sprintf("gen-%d", seed),
		seed:   seed,
		nodes:  8 + rng.Intn(5),
		late:   1 + rng.Intn(2),
		steps:  60,
		window: 400 * time.Millisecond,
	}
	pick := func(lo, hi int) string { return consAddr(lo + rng.Intn(hi-lo)) }
	// Never crash the anchor root: a count query with no anchor has nothing
	// to converge to (weight stays zero everywhere). The conservation
	// property itself would still hold, but the end-of-run estimate check
	// needs a live root.
	pickVictim := func() string { return pick(1, plan.nodes) }
	crashed := 0
	for step := 2; step < plan.steps-10; step += 1 + rng.Intn(6) {
		var op faultOp
		switch k := rng.Intn(8); k {
		case 0:
			op = faultOp{kind: "loss", rate: 0.05 + 0.25*rng.Float64()}
		case 1:
			op = faultOp{kind: "linkloss", a: pick(0, plan.nodes), b: pick(0, plan.nodes), rate: 0.5}
		case 2:
			op = faultOp{kind: "cut", a: pickVictim(), b: pickVictim()}
		case 3:
			grp := []string{pick(1, plan.nodes), pickVictim(), pickVictim()}
			op = faultOp{kind: "partition", grp: grp}
		case 4:
			op = faultOp{kind: "healall"}
		case 5:
			// Bound concurrent crashes so the cluster keeps a majority.
			if crashed >= plan.nodes/3 {
				op = faultOp{kind: "healall"}
			} else {
				crashed++
				op = faultOp{kind: "crash", a: pickVictim()}
			}
		case 6:
			if crashed > 0 {
				crashed--
			}
			op = faultOp{kind: "recover", a: pickVictim()}
		case 7:
			op = faultOp{kind: "join", a: consAddr(plan.nodes + rng.Intn(plan.late))}
		}
		op.step = step
		plan.ops = append(plan.ops, op)
	}
	return plan
}

// TestConservationProperty is the generated-schedule sweep. Each subtest is
// one seeded plan; the seeds are fixed so the sweep is deterministic under
// -count=N and -race.
func TestConservationProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		plan := genPlan(seed)
		t.Run(plan.name, func(t *testing.T) {
			runConservation(t, plan)
		})
	}
}

// TestConservationRegressions pins hand-shrunk schedules around the
// trickiest interleavings of the acked exchange — the cases the generated
// sweep only hits by luck. Each is minimal: remove any op and the schedule
// no longer exercises its path.
func TestConservationRegressions(t *testing.T) {
	window := 400 * time.Millisecond
	plans := []conservationPlan{
		{
			// A receiver crashes while shares to it are in flight and its
			// acks are lost; the sender must carry the outstanding weight
			// across the epoch boundary and retire it without ever showing a
			// residual. Recovery after the boundary then lands stale shares
			// (retired epoch) that are acked but not absorbed.
			name: "crash-holding-inflight-mass", seed: 101, nodes: 6, late: 0, steps: 50, window: window,
			ops: []faultOp{
				{step: 5, kind: "crash", a: consAddr(3)},
				{step: 35, kind: "recover", a: consAddr(3)},
			},
		},
		{
			// A symmetric cut makes first sends fail *silently* (fault drop,
			// not refusal), so the sender may not reclaim mass mid-epoch —
			// it must keep retrying, suspect the target, and retire the
			// share only at the boundary.
			name: "cut-forbids-midepoch-recovery", seed: 102, nodes: 6, late: 0, steps: 50, window: window,
			ops: []faultOp{
				{step: 3, kind: "cut", a: consAddr(1), b: consAddr(2)},
				{step: 30, kind: "healall"},
			},
		},
		{
			// Heavy global loss across an epoch boundary: retries, duplicate
			// deliveries, and stale acks all interleave. Dedup must keep
			// double-absorption out of the ledger.
			name: "global-loss-across-boundary", seed: 103, nodes: 8, late: 1, steps: 50, window: window,
			ops: []faultOp{
				{step: 2, kind: "loss", rate: 0.3},
				{step: 24, kind: "join", a: consAddr(8)},
				{step: 40, kind: "healall"},
			},
		},
	}
	for _, plan := range plans {
		t.Run(plan.name, func(t *testing.T) {
			runConservation(t, plan)
		})
	}
}
