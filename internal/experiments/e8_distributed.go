package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"wsgossip/internal/core"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// E8DistributedCoordinator evaluates the distributed Coordinator the paper's
// Section 3 sketches ("a distributed Coordinator is supported by
// WS-Coordination ... as the list of subscribers can be maintained in a
// distributed fashion as proposed by WS-Membership"): k coordinator
// replicas share the subscription list; activities and registrations are
// spread across them. The table reports load balance and view consistency.
func E8DistributedCoordinator(opt Options) ([]Table, error) {
	subscribers := opt.pick(512, 128)
	activities := opt.pick(40, 8)
	regsPerActivity := opt.pick(10, 4)

	t := Table{
		ID:    "E8",
		Title: fmt.Sprintf("Distributed coordinator: %d subscribers, %d activities x %d registrations", subscribers, activities, regsPerActivity),
		Columns: []string{
			"coordinators", "views consistent", "max regs/coord", "min regs/coord",
			"max subs/coord", "replication msgs",
		},
	}
	for _, k := range []int{1, 2, 4, 8} {
		row, err := runE8(k, subscribers, activities, regsPerActivity, opt.Seed+int64(k))
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	t.Notes = "subscription views stay consistent across replicas while registration and subscribe load split ~evenly; " +
		"replication cost grows with k (each subscribe is forwarded to k-1 replicas)."
	return []Table{t}, nil
}

func runE8(k, subscribers, activities, regsPerActivity int, seed int64) ([]string, error) {
	bus := soap.NewMemBus()
	addrs := make([]string, k)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("mem://coord%d", i)
	}
	coords := make([]*core.Coordinator, k)
	for i := range addrs {
		var replicas []string
		for j, other := range addrs {
			if j != i {
				replicas = append(replicas, other)
			}
		}
		coords[i] = core.NewCoordinator(core.CoordinatorConfig{
			Address:  addrs[i],
			RNG:      rand.New(rand.NewSource(seed + int64(i))),
			Caller:   bus,
			Replicas: replicas,
		})
		bus.Register(addrs[i], coords[i].Handler())
	}
	ctx := context.Background()
	// Subscribers arrive round-robin at the k coordinators.
	for i := 0; i < subscribers; i++ {
		endpoint := fmt.Sprintf("mem://sub%04d", i)
		if err := core.SubscribeClient(ctx, bus, addrs[i%k], endpoint, core.RoleDisseminator); err != nil {
			return nil, err
		}
	}
	// Activities round-robin; each activity receives registrations at its
	// own coordinator (the context pins the Registration service).
	for a := 0; a < activities; a++ {
		owner := coords[a%k]
		cctx := owner.CreateActivity()
		for r := 0; r < regsPerActivity; r++ {
			participant := fmt.Sprintf("mem://sub%04d", (a*regsPerActivity+r)%subscribers)
			regClient := wscoord.NewRegistrationClient(bus, participant)
			if _, err := regClient.Register(ctx, cctx, core.ProtocolPushGossip, participant); err != nil {
				return nil, err
			}
		}
	}
	consistent := true
	for _, c := range coords {
		if len(c.Subscribers()) != subscribers {
			consistent = false
		}
	}
	maxRegs, minRegs := int64(-1), int64(-1)
	maxSubs := int64(0)
	var replications int64
	for _, c := range coords {
		st := c.Stats()
		if maxRegs < 0 || st.Registrations > maxRegs {
			maxRegs = st.Registrations
		}
		if minRegs < 0 || st.Registrations < minRegs {
			minRegs = st.Registrations
		}
		if st.Subscribes > maxSubs {
			maxSubs = st.Subscribes
		}
		replications += st.Replications
	}
	consStr := "yes"
	if !consistent {
		consStr = "NO"
	}
	return []string{
		i2s(k), consStr, i642s(maxRegs), i642s(minRegs), i642s(maxSubs), i642s(replications),
	}, nil
}
