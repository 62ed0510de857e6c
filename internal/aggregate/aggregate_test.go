package aggregate

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// cluster is an N-service aggregation deployment over the in-memory SOAP
// bus, plus its querier, on one virtual clock that only the tests advance.
type cluster struct {
	bus      *soap.MemBus
	clk      *clock.Virtual
	coord    *core.Coordinator
	querier  *Querier
	services []*Service
	values   []float64
}

func newCluster(t *testing.T, n int, seed int64, value func(i int) float64) *cluster {
	t.Helper()
	ctx := context.Background()
	bus := soap.NewMemBus()
	c := &cluster{bus: bus, clk: clock.NewVirtual()}
	c.coord = core.NewCoordinator(core.CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(seed)),
	})
	bus.Register("mem://coordinator", c.coord.Handler())
	for i := 0; i < n; i++ {
		addr := addrOf(i)
		v := value(i)
		c.values = append(c.values, v)
		svc, err := NewService(ServiceConfig{
			Address: addr,
			Caller:  bus,
			Value:   func() float64 { return v },
			RNG:     rand.New(rand.NewSource(seed + 100 + int64(i))),
			Clock:   c.clk,
		})
		if err != nil {
			t.Fatalf("NewService: %v", err)
		}
		bus.Register(addr, svc.Handler())
		c.services = append(c.services, svc)
		if err := core.SubscribeClient(ctx, bus, "mem://coordinator", addr,
			core.RoleDisseminator, core.ProtocolAggregate); err != nil {
			t.Fatalf("subscribe %s: %v", addr, err)
		}
	}
	q, err := NewQuerier(QuerierConfig{
		Address:    "mem://querier",
		Caller:     bus,
		Activation: "mem://coordinator",
		RNG:        rand.New(rand.NewSource(seed + 7)),
		Clock:      c.clk,
	})
	if err != nil {
		t.Fatalf("NewQuerier: %v", err)
	}
	bus.Register("mem://querier", q.Handler())
	if err := core.SubscribeClient(ctx, bus, "mem://coordinator", "mem://querier",
		core.RoleDisseminator, core.ProtocolAggregate); err != nil {
		t.Fatalf("subscribe querier: %v", err)
	}
	c.querier = q
	return c
}

func addrOf(i int) string {
	return "mem://agg" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// clusterWindow is long enough that no epoch closes while a test mixes.
const clusterWindow = time.Hour

// run starts a query for fn and drives exchange rounds everywhere until the
// querier's estimate is stable (converged) or maxRounds pass. It returns the
// task and the number of driven rounds.
func (c *cluster) run(t *testing.T, fn Func) (*Task, int) {
	t.Helper()
	ctx := context.Background()
	tk, err := c.querier.StartContinuous(ctx, "value", fn, clusterWindow)
	if err != nil {
		t.Fatalf("StartContinuous(%s): %v", fn, err)
	}
	var stable stability
	rounds := 0
	for rounds < maxRounds {
		for _, svc := range c.services {
			svc.Tick(ctx)
		}
		c.querier.Tick(ctx)
		rounds++
		if stable.converged(c.querier.Estimate(tk.ID)) {
			break
		}
	}
	return tk, rounds
}

// maxRounds bounds run: several times the analytic push-sum round count at
// these sizes.
const maxRounds = 100

// stability declares an estimate converged once its last three readings are
// defined and agree within a relative 1e-4.
type stability struct{ last []float64 }

func (s *stability) converged(est float64, ok bool) bool {
	if !ok {
		s.last = s.last[:0]
		return false
	}
	if s.last = append(s.last, est); len(s.last) > 3 {
		s.last = s.last[1:]
	}
	if len(s.last) < 3 {
		return false
	}
	lo, hi := slices.Min(s.last), slices.Max(s.last)
	return (hi-lo)/math.Max(math.Abs(lo), math.Abs(hi)) <= 1e-4
}

// participants counts services that joined the task.
func (c *cluster) participants(taskID string) int {
	n := 0
	for _, svc := range c.services {
		if _, _, ok := svc.Mass(taskID); ok {
			n++
		}
	}
	return n
}

// totalMass sums (s, w) across every participant including the querier.
func (c *cluster) totalMass(taskID string) (float64, float64) {
	var sum, weight float64
	for _, svc := range c.services {
		s, w, ok := svc.Mass(taskID)
		if ok {
			sum += s
			weight += w
		}
	}
	s, w, _ := c.querier.Mass(taskID)
	return sum + s, weight + w
}

// TestQuerierAvgWithinOnePercentN64 is the acceptance bar: a Querier over
// an N=64 MemBus cluster obtains an average within 1% of ground truth using
// only gossip exchanges.
func TestQuerierAvgWithinOnePercentN64(t *testing.T) {
	const n = 64
	c := newCluster(t, n, 11, func(i int) float64 { return 10 + 3*float64(i) })
	truth := 0.0
	for _, v := range c.values {
		truth += v
	}
	truth /= float64(n)

	tk, rounds := c.run(t, FuncAvg)
	if got := c.participants(tk.ID); got != n {
		t.Fatalf("start dissemination reached %d/%d services", got, n)
	}
	if rounds >= maxRounds {
		t.Fatalf("querier did not converge within %d rounds", maxRounds)
	}
	est, ok := c.querier.Estimate(tk.ID)
	if !ok {
		t.Fatalf("querier has no defined estimate after %d rounds", rounds)
	}
	relErr := math.Abs(est-truth) / truth
	t.Logf("avg: truth=%.4f est=%.4f relErr=%.2e rounds=%d", truth, est, relErr, rounds)
	if relErr > 0.01 {
		t.Fatalf("avg estimate %.6f vs truth %.6f: relative error %.4f > 1%%", est, truth, relErr)
	}
}

// TestMassConservation verifies the engine's core invariant: Σs and Σw are
// unchanged by any number of exchange rounds (every ack has landed when a
// MemBus round returns, so no mass is outstanding).
func TestMassConservation(t *testing.T) {
	const n = 32
	c := newCluster(t, n, 3, func(i int) float64 { return float64(i * i) })
	tk, _ := c.run(t, FuncAvg)

	wantSum := 0.0
	for i, v := range c.values {
		if _, _, ok := c.services[i].Mass(tk.ID); ok {
			wantSum += v
		}
	}
	gotSum, gotWeight := c.totalMass(tk.ID)
	wantWeight := float64(c.participants(tk.ID)) // avg: w=1 per participant
	if math.Abs(gotSum-wantSum) > 1e-6*math.Abs(wantSum) {
		t.Fatalf("sum mass not conserved: got %.9f want %.9f", gotSum, wantSum)
	}
	if math.Abs(gotWeight-wantWeight) > 1e-9 {
		t.Fatalf("weight mass not conserved: got %.9f want %.9f", gotWeight, wantWeight)
	}
}

// TestCountSumMinMax checks the remaining aggregate functions end to end.
func TestCountSumMinMax(t *testing.T) {
	const n = 48
	value := func(i int) float64 { return 5 + float64((i*37)%101) }
	cases := []struct {
		fn    Func
		truth func(vals []float64) float64
	}{
		{FuncCount, func(vals []float64) float64 { return float64(len(vals)) }},
		{FuncSum, func(vals []float64) float64 {
			s := 0.0
			for _, v := range vals {
				s += v
			}
			return s
		}},
		{FuncMin, func(vals []float64) float64 {
			m := math.Inf(1)
			for _, v := range vals {
				m = math.Min(m, v)
			}
			return m
		}},
		{FuncMax, func(vals []float64) float64 {
			m := math.Inf(-1)
			for _, v := range vals {
				m = math.Max(m, v)
			}
			return m
		}},
	}
	for _, tc := range cases {
		t.Run(string(tc.fn), func(t *testing.T) {
			c := newCluster(t, n, int64(len(tc.fn))*13, func(i int) float64 { return value(i) })
			tk, rounds := c.run(t, tc.fn)
			if got := c.participants(tk.ID); got != n {
				t.Fatalf("start reached %d/%d services", got, n)
			}
			truth := tc.truth(c.values)
			est, ok := c.querier.Estimate(tk.ID)
			if !ok {
				t.Fatalf("no defined estimate after %d rounds", rounds)
			}
			relErr := math.Abs(est-truth) / math.Max(math.Abs(truth), 1)
			t.Logf("%s: truth=%.4f est=%.4f relErr=%.2e rounds=%d", tc.fn, truth, est, relErr, rounds)
			if relErr > 0.01 {
				t.Fatalf("%s estimate %.6f vs truth %.6f: relative error %.4f > 1%%", tc.fn, est, truth, relErr)
			}
		})
	}
}

// TestCollectAgreement drives a query to convergence, closes its epoch, and
// checks that every participant froze an estimate agreeing with the
// querier's.
func TestCollectAgreement(t *testing.T) {
	const n = 32
	c := newCluster(t, n, 5, func(i int) float64 { return 100 + float64(i) })
	tk, _ := c.run(t, FuncAvg)
	c.clk.Advance(clusterWindow)
	ctx := context.Background()
	for _, svc := range c.services {
		svc.Tick(ctx)
	}
	c.querier.Tick(ctx)
	own, ok := c.querier.FrozenEstimate(tk.ID)
	if !ok || own.Epoch != 1 || !own.Defined {
		t.Fatalf("querier froze %+v (ok=%v), want a defined epoch 1", own, ok)
	}
	for i, svc := range c.services {
		fr, ok := svc.FrozenEstimate(tk.ID)
		if !ok || fr.Epoch != 1 || !fr.Defined {
			t.Fatalf("service %d froze %+v (ok=%v), want a defined epoch 1", i, fr, ok)
		}
		if math.Abs(fr.Estimate-own.Estimate)/own.Estimate > 0.01 {
			t.Fatalf("service %d froze %.6f, disagreeing with the querier's %.6f by >1%%", i, fr.Estimate, own.Estimate)
		}
	}
}

// TestQueryUnknownTaskFaults: there is no estimate query on the wire — a
// participant's estimate is read locally or frozen per epoch — so a query
// action is faulted as one no handler serves.
func TestQueryUnknownTaskFaults(t *testing.T) {
	c := newCluster(t, 4, 9, func(i int) float64 { return 1 })
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		To:        addrOf(0),
		Action:    core.Namespace + ":aggregate:query",
		MessageID: wsa.NewMessageID(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(Start{TaskID: "no-such-task"}); err != nil {
		t.Fatal(err)
	}
	_, err := c.bus.Call(context.Background(), addrOf(0), env)
	var fault *soap.Fault
	if !errors.As(err, &fault) || fault.Code.Value != soap.CodeSender || !strings.Contains(fault.Reason.Text, "no handler") {
		t.Fatalf("expected a Sender fault naming no handler, got %v", err)
	}
}

// TestPassiveJoinUpgradedByLateStart reproduces an exchange share outrunning
// the start flood: the node first joins passively from a share that names
// no metric (contributing nothing), then the start arrives and names the
// metric; from the next epoch boundary on, the node contributes that
// metric's value exactly once.
func TestPassiveJoinUpgradedByLateStart(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, 4, 13, func(i int) float64 { return 100 })
	// Activate a real interaction so registration works.
	tk, err := c.querier.StartContinuous(ctx, "load", FuncAvg, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh service that the start flood has not reached yet.
	late, err := NewService(ServiceConfig{
		Address: "mem://late",
		Caller:  c.bus,
		Values:  map[string]func() float64{"load": func() float64 { return 42 }},
		RNG:     rand.New(rand.NewSource(99)),
		Clock:   c.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.bus.Register("mem://late", late.Handler())

	sendTo := func(action string, body any) {
		env, err := handMarshalled(action, tk.Context, body)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.bus.Send(ctx, "mem://late", env); err != nil {
			t.Fatal(err)
		}
	}

	// 1. Exchange share arrives first: passive join, no value contributed.
	sendTo(ActionExchange, Share{TaskID: tk.ID, Function: string(FuncAvg), From: "mem://peer", Sum: 7, Weight: 0.5,
		WindowMillis: 1000, Epoch: 1, Seq: 1, Root: c.querier.Address()})
	sum, weight, ok := late.Mass(tk.ID)
	if !ok || sum != 7 || weight != 0.5 {
		t.Fatalf("passive join mass = (%v, %v, %v), want (7, 0.5, true)", sum, weight, ok)
	}
	// 2. The start finally arrives, twice: it names the metric but must not
	// contribute mid-window.
	start := Start{TaskID: tk.ID, Function: string(FuncAvg), Root: c.querier.Address(), WindowMillis: 1000, Metric: "load"}
	sendTo(ActionStart, start)
	sendTo(ActionStart, start)
	if sum, weight, _ = late.Mass(tk.ID); sum != 7 || weight != 0.5 {
		t.Fatalf("late start contributed mid-window: mass = (%v, %v), want (7, 0.5)", sum, weight)
	}
	// 3. The next boundary: the start's metric is contributed once.
	c.clk.Advance(time.Second)
	late.Tick(ctx)
	if _, contributed := late.Outstanding(tk.ID); contributed != 1 {
		t.Fatalf("joiner contributed weight %g after the boundary, want 1", contributed)
	}
	// Only the joiner ticked, so it has absorbed nothing of epoch 2 yet: its
	// estimate is its own contribution.
	if est, ok := late.Estimate(tk.ID); !ok || math.Abs(est-42) > 1e-9 {
		t.Fatalf("joiner's epoch-2 estimate = %v (defined %v), want the start's metric value 42", est, ok)
	}
}

// TestStateSplitAbsorbRoundTrip checks the pure push-sum math.
func TestStateSplitAbsorbRoundTrip(t *testing.T) {
	a := NewState(FuncAvg, 10, false, false)
	b := NewState(FuncAvg, 30, false, false)
	for r := 0; r < 50; r++ {
		sa, wa := a.Split(1)
		sb, wb := b.Split(1)
		a.Absorb(Share{Sum: sb, Weight: wb})
		b.Absorb(Share{Sum: sa, Weight: wa})
	}
	ea, _ := a.Estimate()
	eb, _ := b.Estimate()
	if math.Abs(ea-20) > 1e-9 || math.Abs(eb-20) > 1e-9 {
		t.Fatalf("two-node push-sum should converge to 20, got %.9f and %.9f", ea, eb)
	}
	sa, wa := a.Mass()
	sb, wb := b.Mass()
	if math.Abs(sa+sb-40) > 1e-9 || math.Abs(wa+wb-2) > 1e-9 {
		t.Fatalf("mass not conserved: sums %.9f weights %.9f", sa+sb, wa+wb)
	}
}
