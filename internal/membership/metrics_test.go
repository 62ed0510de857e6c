package membership

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"wsgossip/internal/metrics"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// TestMembershipMetrics drives a three-node cluster through join, failure,
// and leave, checking the registry series track the view at each step.
func TestMembershipMetrics(t *testing.T) {
	ctx := context.Background()
	net := simnet.New(simnet.DefaultConfig(42))
	regs := make([]*metrics.Registry, 3)
	svcs := make([]*Service, 3)
	for i := range svcs {
		addr := fmt.Sprintf("n%d", i)
		regs[i] = metrics.NewRegistry()
		svc, err := New(Config{
			Endpoint:     net.Node(addr),
			Clock:        net,
			RNG:          rand.New(rand.NewSource(int64(i) + 1)),
			Fanout:       2,
			SuspectAfter: 400 * time.Millisecond,
			RemoveAfter:  time.Second,
			Metrics:      regs[i],
		})
		if err != nil {
			t.Fatalf("service %d: %v", i, err)
		}
		mux := transport.NewMux()
		svc.Register(mux)
		mux.Bind(net.Node(addr))
		svcs[i] = svc
	}

	svcs[1].Join(ctx, []string{"n0"})
	svcs[2].Join(ctx, []string{"n0"})
	net.RunFor(50 * time.Millisecond)
	for r := 0; r < 5; r++ {
		for _, s := range svcs {
			s.Tick(ctx)
		}
		net.RunFor(100 * time.Millisecond)
	}

	for i, s := range svcs {
		if got, want := regs[i].Gauge("membership_view_size").Value(), int64(s.Size()); got != want {
			t.Fatalf("node %d view-size gauge = %d, Size() = %d", i, got, want)
		}
	}
	if regs[0].Counter("membership_exchanges_total").Value() == 0 {
		t.Fatal("no exchanges counted after five gossip rounds")
	}

	// Crash n2 (stop ticking it); the survivors must suspect then evict it.
	for r := 0; r < 25; r++ {
		svcs[0].Tick(ctx)
		svcs[1].Tick(ctx)
		net.RunFor(100 * time.Millisecond)
	}
	if regs[0].Counter("membership_suspects_total").Value() == 0 {
		t.Fatal("crashed peer never counted as suspected")
	}
	if regs[0].Counter("membership_evictions_total").Value() == 0 {
		t.Fatal("crashed peer never counted as evicted")
	}
	if got, want := regs[0].Gauge("membership_view_size").Value(), int64(svcs[0].Size()); got != want {
		t.Fatalf("view-size gauge = %d after eviction, Size() = %d", got, want)
	}

	// n1 announces departure; n0 must apply and count the tombstone.
	svcs[1].Leave(ctx)
	net.RunFor(50 * time.Millisecond)
	if regs[0].Counter("membership_leaves_total").Value() == 0 {
		t.Fatal("leave announcement never counted")
	}
	if got, want := regs[0].Gauge("membership_view_size").Value(), int64(svcs[0].Size()); got != want {
		t.Fatalf("view-size gauge = %d after leave, Size() = %d", got, want)
	}

	var sb strings.Builder
	if err := regs[0].WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"membership_view_size", "membership_exchanges_total",
		"membership_suspects_total", "membership_evictions_total",
		"membership_leaves_total", "membership_leave_rejected_total",
	} {
		if !strings.Contains(sb.String(), family) {
			t.Fatalf("exposition missing %s:\n%s", family, sb.String())
		}
	}
}
