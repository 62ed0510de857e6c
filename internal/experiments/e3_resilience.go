package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wsgossip/internal/gossip"
	"wsgossip/internal/simnet"
	"wsgossip/internal/testbed"
	"wsgossip/internal/wsn"
)

// E3Resilience measures delivery ratio under crash faults and message loss
// for gossip dissemination versus the centralized WS-Notification broker
// (paper claim: gossip protocols are "highly resilient to network and
// process faults"; centralized dissemination is the brittle alternative).
func E3Resilience(opt Options) ([]Table, error) {
	n := opt.pick(512, 128)
	trials := opt.pick(5, 2)

	crash := Table{
		ID:    "E3a",
		Title: fmt.Sprintf("Delivery ratio among surviving nodes vs crashed fraction (N=%d)", n),
		Columns: []string{
			"crashed %", "push f=4", "push-pull f=4", "wsn broker",
		},
	}
	for _, pct := range []int{0, 10, 20, 30, 40, 50} {
		push, err := gossipUnderCrash(n, opt.Seed+int64(pct), pct, trials, gossip.StylePush, false)
		if err != nil {
			return nil, err
		}
		pushPull, err := gossipUnderCrash(n, opt.Seed+int64(pct)+500, pct, trials, gossip.StylePushPull, true)
		if err != nil {
			return nil, err
		}
		broker, err := brokerUnderCrash(n, opt.Seed+int64(pct)+900, pct, trials, 0)
		if err != nil {
			return nil, err
		}
		crash.AddRow(i2s(pct)+"%", f3(push), f3(pushPull), f3(broker))
	}
	crash.Notes = "plain push degrades gracefully: every crashed target wastes one of a node's f transmissions, so the " +
		"effective fanout falls with the crash fraction, yet even at 50% crashed most survivors are reached with no retry logic at all; " +
		"push-pull repair restores survivors to 1.0. The broker reaches survivors too (crashes of subscribers do not hurt it) but is a " +
		"single point of failure — crash the broker and delivery is 0 (see wsn tests)."

	loss := Table{
		ID:    "E3b",
		Title: fmt.Sprintf("Delivery ratio vs message loss (N=%d, no crashes)", n),
		Columns: []string{
			"loss %", "push f=4", "push-pull f=4 (+repair)", "wsn broker",
		},
	}
	for _, pct := range []int{0, 10, 20, 30, 40} {
		rate := float64(pct) / 100
		push, err := gossipUnderLoss(n, opt.Seed+int64(pct)+1300, rate, trials, gossip.StylePush, false)
		if err != nil {
			return nil, err
		}
		pushPull, err := gossipUnderLoss(n, opt.Seed+int64(pct)+1700, rate, trials, gossip.StylePushPull, true)
		if err != nil {
			return nil, err
		}
		broker, err := brokerUnderCrash(n, opt.Seed+int64(pct)+2100, 0, trials, rate)
		if err != nil {
			return nil, err
		}
		loss.AddRow(i2s(pct)+"%", f3(push), f3(pushPull), f3(broker))
	}
	loss.Notes = "the broker loses exactly the link loss rate (one try per subscriber, no redundancy); " +
		"push gossip's redundant paths absorb most loss, and push-pull anti-entropy repairs the rest to ~1.0."
	return []Table{crash, loss}, nil
}

func gossipUnderCrash(n int, seed int64, crashPct, trials int, style gossip.Style, repair bool) (float64, error) {
	covs, err := crashTrials(n, seed, crashPct, trials, style, repair)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, c := range covs {
		sum += c
	}
	return sum / float64(trials), nil
}

// crashTrials runs trials publications among n engines with crashPct percent
// of them crashed, and returns each trial's delivery ratio among survivors.
func crashTrials(n int, seed int64, crashPct, trials int, style gossip.Style, repair bool) ([]float64, error) {
	covs := make([]float64, 0, trials)
	for trial := 0; trial < trials; trial++ {
		c, err := newEngineCluster(n, seed+int64(trial)*31, gossip.Config{
			Style:  style,
			Fanout: 4,
			Hops:   defaultHops(n) + 2,
		})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed + int64(trial)))
		crashed := gossip.SamplePeers(rng, c.Addrs, n*crashPct/100, c.Addrs[0])
		for _, a := range crashed {
			c.Net.Crash(a)
		}
		r, err := c.Engines[0].Publish(context.Background(), []byte("evt"))
		if err != nil {
			return nil, err
		}
		c.Net.Run()
		if repair {
			c.tickAll(context.Background(), 10, 20*time.Millisecond)
		}
		covs = append(covs, c.Coverage(r.ID))
	}
	return covs, nil
}

func gossipUnderLoss(n int, seed int64, loss float64, trials int, style gossip.Style, repair bool) (float64, error) {
	var sum float64
	for trial := 0; trial < trials; trial++ {
		c, err := newEngineCluster(n, seed+int64(trial)*37, gossip.Config{
			Style:  style,
			Fanout: 4,
			Hops:   defaultHops(n) + 2,
		})
		if err != nil {
			return 0, err
		}
		c.Net.Faults().SetLoss(loss)
		r, err := c.Engines[0].Publish(context.Background(), []byte("evt"))
		if err != nil {
			return 0, err
		}
		c.Net.Run()
		if repair {
			c.tickAll(context.Background(), 10, 20*time.Millisecond)
		}
		sum += c.Coverage(r.ID)
	}
	return sum / float64(trials), nil
}

// brokerUnderCrash runs the WS-Notification baseline with a crashed
// subscriber fraction and link loss, returning delivery ratio among
// survivors.
func brokerUnderCrash(n int, seed int64, crashPct, trials int, loss float64) (float64, error) {
	var sum float64
	for trial := 0; trial < trials; trial++ {
		net := simnet.New(simnet.DefaultConfig(seed + int64(trial)*41))
		broker := wsn.NewBroker(net.Node("broker"))
		testbed.Bind(net.Node("broker"), broker)
		consumers := make([]*wsn.Consumer, n)
		addrs := make([]string, n)
		for i := 0; i < n; i++ {
			addrs[i] = fmt.Sprintf("c%04d", i)
			consumers[i] = wsn.NewConsumer(net.Node(addrs[i]))
			testbed.Bind(net.Node(addrs[i]), consumers[i])
			broker.SubscribeLocal(addrs[i])
		}
		rng := rand.New(rand.NewSource(seed + int64(trial)))
		crashed := gossip.SamplePeers(rng, addrs, n*crashPct/100, "")
		for _, a := range crashed {
			net.Crash(a)
		}
		net.Faults().SetLoss(loss)
		if err := broker.Publish(context.Background(), wsn.Notification{ID: "evt"}); err != nil {
			return 0, err
		}
		net.Run()
		alive, reached := 0, 0
		for i := range consumers {
			if net.Crashed(addrs[i]) {
				continue
			}
			alive++
			if consumers[i].Has("evt") {
				reached++
			}
		}
		if alive > 0 {
			sum += float64(reached) / float64(alive)
		}
	}
	return sum / float64(trials), nil
}
