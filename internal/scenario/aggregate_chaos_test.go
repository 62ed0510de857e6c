// Chaos scenarios for the continuous aggregation plane: churn mid-window
// and sustained link loss, with exact fault↔metric accounting. Both run on
// the virtual clock from fixed seeds, so they are bit-identical under
// -race -count=5 — determinism is part of what they assert.
package scenario

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/aggregate"
	"wsgossip/internal/gossip"
	"wsgossip/internal/testbed"
)

const (
	aggChaosWindow = 500 * time.Millisecond
	aggChaosTick   = 20 * time.Millisecond
)

// liveSet is the membership plane's stand-in: a peer set the harness
// updates as nodes crash and join. Continuous aggregation re-tracks N
// within one epoch *given current membership* — pruning dead peers is the
// failure detector's job, not push-sum's. (Within a window, transiently
// unresponsive targets are still handled by the exchange's own suspicion.)
type liveSet struct{ addrs []string }

func (m *liveSet) SelectPeers(rng *rand.Rand, n int, exclude string) []string {
	return gossip.SamplePeers(rng, m.addrs, n, exclude)
}

// aggChaosNodes builds n windowed count nodes on one simnet seeded seed.
// peers should span the full eventual membership: sends to addresses that
// do not exist yet fail synchronously, which the exchange recovers from.
func aggChaosNodes(t *testing.T, seed int64, n int, stream testbed.Stream, peers gossip.PeerProvider) *testbed.Sim[aggregate.SimNodeConfig] {
	t.Helper()
	s, err := testbed.SimNodes(testbed.Spec[aggregate.SimNodeConfig]{
		N: n, Seed: seed, Addr: consAddrFormat, Stream: stream, Peers: peers,
		Config: aggregate.SimNodeConfig{Fanout: 2, TaskID: "chaos", Func: aggregate.FuncCount, Value: 1, Window: aggChaosWindow},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAggregateChaosChurnMidWindow crashes 25% of a 16-node cluster and
// joins two fresh nodes in the middle of an epoch window. The epoch in
// progress is polluted by construction; the contract is that the FIRST full
// epoch after the churn already tracks the new true N on every survivor —
// re-tracking within one epoch boundary, with joiners' contributions
// deferred to that boundary rather than bleeding into the torn window.
func TestAggregateChaosChurnMidWindow(t *testing.T) {
	const (
		seed    = 47
		initial = 16
		crashes = 4 // 25% of initial
		joins   = 2
	)
	addrs := make([]string, initial+joins)
	for i := range addrs {
		addrs[i] = consAddr(i)
	}
	// Membership starts as the sixteen initial nodes; the churn event
	// rewrites it, exactly as the failure-detector plane would.
	peers := &liveSet{addrs: addrs[:initial]}
	s := aggChaosNodes(t, seed, initial, testbed.Stream{Mul: 6151}, peers)
	net, nodes := s.Net, s.Aggs
	ctx := context.Background()

	tick := func() {
		net.RunFor(aggChaosTick)
		s.Tick(ctx)
	}
	// Run two full epochs pre-churn; the closed epoch 2 must count all 16.
	for net.Now() < 2*aggChaosWindow+aggChaosTick {
		tick()
	}
	for i := 0; i < initial; i++ {
		fr, ok := nodes[i].Frozen()
		if !ok || fr.Epoch != 2 {
			t.Fatalf("node %s: no frozen epoch-2 estimate (have %+v, ok=%v)", addrs[i], fr, ok)
		}
		if !fr.Defined {
			t.Fatalf("node %s: epoch-2 estimate undefined", addrs[i])
		}
		if rel := math.Abs(fr.Estimate-initial) / initial; rel > 0.01 {
			t.Fatalf("node %s: pre-churn count %.3f, want %d within 1%%", addrs[i], fr.Estimate, initial)
		}
	}

	// Churn in the middle of epoch 3's window: crash the last four original
	// nodes, join two new ones, and let "membership" see both changes.
	if now := net.Now(); now <= 2*aggChaosWindow || now >= 3*aggChaosWindow {
		t.Fatalf("churn point %v not inside epoch 3's window", now)
	}
	for i := initial - crashes; i < initial; i++ {
		net.Crash(addrs[i])
	}
	for i := initial; i < initial+joins; i++ {
		if err := s.Add(); err != nil {
			t.Fatal(err)
		}
	}
	nodes = s.Aggs
	peers.addrs = append(append([]string(nil), addrs[:initial-crashes]...), addrs[initial:]...)
	const alive = initial - crashes + joins

	// Joiners defer their contribution to epoch 4, the first boundary after
	// they exist.
	for i := initial; i < initial+joins; i++ {
		nodes[i].Tick(ctx)
		if got := nodes[i].Contributed(); got != 0 {
			t.Fatalf("joiner %s contributed %g mid-window, want deferral to the next boundary", addrs[i], got)
		}
	}

	// Epoch 3 is torn by construction (its window saw both cohorts); epoch 4
	// is the first full post-churn epoch. Run to its close — the tick at
	// t=2.0s rolls every live node into epoch 5 and freezes 4 — and the
	// frozen estimate must already track the new true N on every survivor
	// and joiner: re-tracking within one epoch of the churn event.
	checkFrozen := func(epoch uint64) {
		t.Helper()
		for i, node := range nodes {
			if net.Crashed(addrs[i]) {
				continue
			}
			if e := node.MassError(); e != 0 {
				t.Fatalf("node %s mass error %g under churn, want exactly 0", addrs[i], e)
			}
			fr, ok := node.Frozen()
			if !ok || fr.Epoch != epoch {
				t.Fatalf("node %s: frozen epoch %d, want %d (%+v ok=%v)", addrs[i], fr.Epoch, epoch, fr, ok)
			}
			if !fr.Defined {
				t.Fatalf("node %s: epoch-%d estimate undefined", addrs[i], epoch)
			}
			if rel := math.Abs(fr.Estimate-alive) / alive; rel > 0.01 {
				t.Fatalf("node %s: post-churn count %.3f, want %d within 1%% (frozen epoch %d)",
					addrs[i], fr.Estimate, alive, epoch)
			}
		}
	}
	for net.Now() < 4*aggChaosWindow {
		tick()
	}
	checkFrozen(4)
	// And the tracking holds, not just the first recovery epoch.
	for net.Now() < 5*aggChaosWindow {
		tick()
	}
	checkFrozen(5)

	// Exact accounting. No fault table is installed and crashed nodes never
	// tick, so every accepted send came from a live node's exchange: network
	// sends must equal the sum of per-node share and ack sends, and after a
	// drain every sent message was either delivered or dropped on a crashed
	// recipient. Joins add nothing here — sends to a not-yet-joined address
	// fail synchronously and are not counted as network sends.
	net.Run()
	sum := s.AggStats()
	sharesSent, acksSent := sum.SharesSent, sum.AcksSent
	st := net.Stats()
	if st.Sent != sharesSent+acksSent {
		t.Errorf("network sent %d, nodes sent %d shares + %d acks = %d",
			st.Sent, sharesSent, acksSent, sharesSent+acksSent)
	}
	if st.Sent != st.Delivered+st.Dropped {
		t.Errorf("sent %d != delivered %d + dropped %d after drain", st.Sent, st.Delivered, st.Dropped)
	}
	if st.FaultRefused != 0 || st.FaultDropped != 0 {
		t.Errorf("no fault table installed but fault counters read refused=%d dropped=%d",
			st.FaultRefused, st.FaultDropped)
	}
	if st.Dropped == 0 {
		t.Error("churn run dropped nothing — crashes did not bite")
	}
}

// TestAggregateChaosSustainedLinkLoss runs the windowed exchange under 10%
// fault-table link loss for four full epochs. Loss delays convergence but
// may not destroy mass: every node's conservation residual stays exactly
// zero at every tick, every closed epoch still tracks N, and at the end the
// network's fault counters and the fault table's own totals agree send for
// send.
func TestAggregateChaosSustainedLinkLoss(t *testing.T) {
	const (
		seed     = 93
		n        = 12
		lossRate = 0.10
	)
	s := aggChaosNodes(t, seed, n, testbed.Stream{Mul: 9377}, nil)
	net, addrs, nodes := s.Net, s.Addrs, s.Aggs
	tbl := net.Faults()
	tbl.SetLoss(lossRate)
	ctx := context.Background()

	for net.Now() < 5*aggChaosWindow {
		net.RunFor(aggChaosTick)
		s.Tick(ctx)
		// The loss-tolerance contract, checked at every observable instant:
		// lost shares sit in the outstanding ledger until acked or retired,
		// never in the residual.
		for i, node := range nodes {
			if e := node.MassError(); e != 0 {
				t.Fatalf("t=%v node %s mass error %g under %d%% loss, want exactly 0\nstats=%+v",
					net.Now(), addrs[i], e, int(lossRate*100), node.Stats())
			}
		}
	}

	// The final tick (t=2.5s) rolled every node into epoch 6, freezing epoch
	// 5: four full epochs ran lossy, and despite the loss every node's
	// closing estimate tracks the true count.
	for i, node := range nodes {
		fr, ok := node.Frozen()
		if !ok || fr.Epoch != 5 {
			t.Fatalf("node %s: frozen epoch %d want 5 (ok=%v)", addrs[i], fr.Epoch, ok)
		}
		if !fr.Defined {
			t.Fatalf("node %s: epoch-4 estimate undefined under loss", addrs[i])
		}
		if rel := math.Abs(fr.Estimate-n) / n; rel > 0.01 {
			t.Fatalf("node %s: lossy-epoch count %.3f, want %d within 1%%", addrs[i], fr.Estimate, n)
		}
	}
	sum := s.AggStats()
	retries, recovered, duplicates := sum.Retries, sum.Recovered, sum.DuplicateShares
	// The run must actually have exercised the loss machinery: drops
	// occurred, retries repaired them, and redeliveries were deduped.
	if retries == 0 || duplicates == 0 {
		t.Errorf("loss run too quiet: retries=%d duplicates=%d", retries, duplicates)
	}
	// Loss rules drop silently — first sends never fail synchronously, so
	// mid-epoch recovery must never have fired.
	if recovered != 0 {
		t.Errorf("recovered %d shares under silent loss — recovery requires a synchronous refusal", recovered)
	}

	// Exact fault↔metric accounting after a full drain: the table's loss
	// draws are the network's fault drops, loss is the only drop source, and
	// nothing was refused.
	net.Run()
	st := net.Stats()
	tot := tbl.Totals()
	if st.FaultDropped != tot.Lost {
		t.Errorf("network fault-dropped %d, fault table lost %d", st.FaultDropped, tot.Lost)
	}
	if tot.Refused != 0 || tot.Dropped != 0 || st.FaultRefused != 0 {
		t.Errorf("loss-only table shows refused=%d dropped=%d (net refused=%d)",
			tot.Refused, tot.Dropped, st.FaultRefused)
	}
	if st.Dropped != st.FaultDropped {
		t.Errorf("dropped %d != fault-dropped %d: something besides the table dropped traffic",
			st.Dropped, st.FaultDropped)
	}
	if st.Sent != st.Delivered+st.Dropped {
		t.Errorf("sent %d != delivered %d + dropped %d after drain", st.Sent, st.Delivered, st.Dropped)
	}
	if tot.Lost == 0 {
		t.Error("10%% loss table never fired")
	}
}
