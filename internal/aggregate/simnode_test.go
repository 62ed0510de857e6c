package aggregate

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/gossip"
	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// TestSimNodePushSumConvergence runs the transport-level push-sum binding
// over the deterministic simulator and checks estimate accuracy and mass
// conservation at N=128.
func TestSimNodePushSumConvergence(t *testing.T) {
	const (
		n      = 128
		fanout = 3
		rounds = 30
	)
	net := simnet.New(simnet.DefaultConfig(9))
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "s" + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + string(rune('a'+i/676))
	}
	peers := gossip.NewStaticPeers(addrs)
	nodes := make([]*SimNode, n)
	truth := 0.0
	for i := range addrs {
		v := float64(i * 3)
		truth += v
		node, err := NewSimNode(SimNodeConfig{
			Endpoint: net.Node(addrs[i]),
			Peers:    peers,
			Fanout:   fanout,
			TaskID:   "t1",
			Func:     FuncAvg,
			Value:    v,
			RNG:      rand.New(rand.NewSource(int64(i) + 5)),
			// One epoch outlasts the run: push-sum never restarts.
			Window: time.Hour,
			Clock:  net,
		})
		if err != nil {
			t.Fatalf("NewSimNode: %v", err)
		}
		mux := transport.NewMux()
		node.Register(mux)
		mux.Bind(net.Node(addrs[i]))
		nodes[i] = node
	}
	truth /= n

	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		for _, node := range nodes {
			node.Tick(ctx)
		}
		net.RunFor(20 * time.Millisecond)
	}
	net.Run() // every share and ack lands: no mass is in flight

	var massSum, massWeight float64
	for _, node := range nodes {
		s, w := node.State().Mass()
		massSum += s
		massWeight += w
		est, ok := node.State().Estimate()
		if !ok {
			t.Fatalf("node %s has no estimate after %d rounds", node.cfg.Endpoint.Addr(), rounds)
		}
		if relErr := math.Abs(est-truth) / truth; relErr > 0.01 {
			t.Fatalf("node estimate %.4f vs truth %.4f: rel err %.4f > 1%%", est, truth, relErr)
		}
	}
	if math.Abs(massSum-truth*n) > 1e-6*truth*n {
		t.Fatalf("sum mass not conserved: got %.6f want %.6f", massSum, truth*n)
	}
	if math.Abs(massWeight-n) > 1e-9 {
		t.Fatalf("weight mass not conserved: got %.6f want %d", massWeight, n)
	}
}

// refusingEndpoint is a transport endpoint that delivers nothing: Send
// accepts (and drops) a message, or refuses it while refuse is set.
type refusingEndpoint struct {
	addr   string
	refuse bool
}

func (e *refusingEndpoint) Addr() string                 { return e.addr }
func (e *refusingEndpoint) SetHandler(transport.Handler) {}
func (e *refusingEndpoint) Send(context.Context, transport.Message) error {
	if e.refuse {
		return transport.ErrUnreachable
	}
	return nil
}

// TestSimNodeReclaimAsymmetry is TestContinuousReclaimAsymmetry's rule on the
// simulator's binding: a refused first send is reclaimed on the spot, but a
// refused retry stays pending, since its first copy may have arrived.
func TestSimNodeReclaimAsymmetry(t *testing.T) {
	ep := &refusingEndpoint{addr: "a"}
	node, err := NewSimNode(SimNodeConfig{
		Endpoint: ep,
		Peers:    gossip.NewStaticPeers([]string{"a", "b"}),
		Fanout:   1,
		TaskID:   "t1",
		Func:     FuncSum,
		Value:    1,
		Root:     true,
		Window:   time.Hour,
		Clock:    clock.NewVirtual(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	node.Tick(ctx) // a first send, accepted and never acked: it stays pending
	pending := node.Outstanding()
	if pending == 0 || node.Stats().SharesSent != 1 {
		t.Fatalf("after an accepted first send: outstanding %g, sent %d", pending, node.Stats().SharesSent)
	}

	ep.refuse = true
	node.Tick(ctx) // the retry and a fresh share, both refused
	st := node.Stats()
	if st.Recovered != 1 || st.SendErrors != 2 {
		t.Fatalf("recovered %d and counted %d refusals, want the fresh share reclaimed and both refusals counted", st.Recovered, st.SendErrors)
	}
	if got := node.Outstanding(); got != pending {
		t.Fatalf("outstanding %g after a refused retry, want the retried share's %g still pending", got, pending)
	}
	if e := node.MassError(); e != 0 {
		t.Fatalf("mass error %g, want exactly 0", e)
	}
}
