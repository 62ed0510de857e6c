package scenario

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/delivery"
	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/testbed"
)

// A Disseminator sends a peer it has handed the coordination context bare
// copies: no context, its own address in the gossip header's From. These
// tests restart a receiver at the same address, or lose its first copy, so a
// bare copy reaches a node that does not hold the interaction, on every
// binding the stack has, and check that the node delivers it, refuses it,
// and is registered and forwarding again after the sender's next copy.

type refusalNote struct {
	XMLName xml.Name `xml:"urn:example:refusal Note"`
	Seq     int      `xml:"Seq"`
}

// refusalNet is one binding as the tests drive it: the caller each address
// sends through, the binding of an address to its handler (again on a
// restart), and a wait until cond holds or the binding's traffic has
// settled.
type refusalNet struct {
	caller func(addr string) soap.Caller
	bind   func(addr string, h soap.Handler)
	settle func(cond func() bool) bool
	addr   func(name string) string
}

// refusalNode is a Disseminator and what its application received, by
// sequence number.
type refusalNode struct {
	d    *core.Disseminator
	mu   sync.Mutex
	seen map[int]int
}

func (n *refusalNode) HandleSOAP(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var note refusalNote
	if err := req.Envelope.DecodeBody(&note); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.seen[note.Seq]++
	n.mu.Unlock()
	return nil, nil
}

func (n *refusalNode) count(seq int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seen[seq]
}

// contextTap records, for each copy sent to one address, whether it carried
// the coordination context.
type contextTap struct {
	soap.Caller
	to string

	mu     sync.Mutex
	copies []bool
}

func (c *contextTap) SendEncoded(ctx context.Context, to string, data []byte) error {
	if to == c.to && strings.Contains(string(data), core.ActionNotify+"<") {
		c.mu.Lock()
		c.copies = append(c.copies, strings.Contains(string(data), "<CoordinationContext"))
		c.mu.Unlock()
	}
	return c.Caller.SendEncoded(ctx, to, data)
}

func (c *contextTap) log() []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]bool(nil), c.copies...)
}

// onlyTo lets the initiator reach one disseminator, so every other node
// hears of a notification from the disseminators alone.
type onlyTo struct {
	soap.Caller
	to string
}

func (o onlyTo) SendEncoded(ctx context.Context, to string, data []byte) error {
	if to != o.to {
		return errors.New("not a test target")
	}
	return o.Caller.SendEncoded(ctx, to, data)
}

// refusalCluster is a coordinator, an initiator that sends to A only, and two
// disseminators A and B, each the other's one target.
type refusalCluster struct {
	t     *testing.T
	net   refusalNet
	init  *core.Initiator
	inter *core.Interaction
	a, b  *refusalNode
	tap   *contextTap // A's sends to B
	seq   int
}

func newRefusalCluster(t *testing.T, net refusalNet) *refusalCluster {
	t.Helper()
	ctx := context.Background()
	coordAddr := net.addr("coordinator")
	coord := core.NewCoordinator(core.CoordinatorConfig{
		Address: coordAddr, RNG: rand.New(rand.NewSource(1)),
		Params: func(int) (int, int) { return 1, 4 },
	})
	net.bind(coordAddr, coord.Handler())
	c := &refusalCluster{t: t, net: net}
	aAddr, bAddr := net.addr("a"), net.addr("b")
	c.tap = &contextTap{Caller: net.caller(aAddr), to: bAddr}
	c.a = c.node(aAddr, c.tap)
	c.b = c.node(bAddr, net.caller(bAddr))
	for _, addr := range []string{aAddr, bAddr} {
		if err := core.SubscribeClient(ctx, net.caller(addr), coordAddr, addr, core.RoleDisseminator); err != nil {
			t.Fatal(err)
		}
	}
	initAddr := net.addr("initiator")
	var err error
	if c.init, err = core.NewInitiator(core.InitiatorConfig{
		Address: initAddr, Caller: onlyTo{Caller: net.caller(initAddr), to: aAddr}, Activation: coordAddr,
	}); err != nil {
		t.Fatal(err)
	}
	if c.inter, err = c.init.StartInteraction(ctx); err != nil {
		t.Fatal(err)
	}
	return c
}

// node starts a Disseminator at addr (anew on a restart: no state).
func (c *refusalCluster) node(addr string, caller soap.Caller) *refusalNode {
	n := &refusalNode{seen: make(map[int]int)}
	d, err := core.NewDisseminator(core.DisseminatorConfig{Address: addr, Caller: caller, App: n, RNG: rand.New(rand.NewSource(2))})
	if err != nil {
		c.t.Fatal(err)
	}
	n.d = d
	c.net.bind(addr, d.Handler())
	return n
}

// publish sends the next notification, and waits until B's application has
// it.
func (c *refusalCluster) publish() int {
	c.t.Helper()
	c.seq++
	seq := c.seq
	if _, _, err := c.init.Notify(context.Background(), c.inter, &refusalNote{Seq: seq}); err != nil {
		c.t.Fatal(err)
	}
	if !c.net.settle(func() bool { return c.b.count(seq) > 0 }) {
		c.t.Fatalf("notification %d never reached B", seq)
	}
	return seq
}

// checkRestart runs the restart story on one binding: B, given the context,
// gets a bare copy; B restarts at the same address and gets a bare copy it
// delivers once and refuses; A's next copy carries the context, and B
// registers and forwards again.
func checkRestart(t *testing.T, net refusalNet) {
	c := newRefusalCluster(t, net)
	c.publish()
	c.publish()
	if got := c.tap.log(); len(got) != 2 || !got[0] || got[1] {
		t.Fatalf("A's copies to B carried the context %v, want [true false]", got)
	}
	if st := c.b.d.Stats(); st.Registrations != 1 || st.Refused != 0 {
		t.Fatalf("B before the restart: %+v", st)
	}

	bAddr := net.addr("b")
	c.b = c.node(bAddr, net.caller(bAddr)) // restarted: no interaction state
	bare := c.publish()
	if !c.net.settle(func() bool { return c.a.d.Stats().Refusals == 1 }) {
		t.Fatalf("A took %d refusals, want 1 (B: %+v)", c.a.d.Stats().Refusals, c.b.d.Stats())
	}
	if got := c.b.count(bare); got != 1 {
		t.Fatalf("restarted B delivered the bare copy %d times", got)
	}
	if st := c.b.d.Stats(); st.Refused != 1 || st.Registrations != 0 || st.Forwarded != 0 {
		t.Fatalf("restarted B after the bare copy: %+v", st)
	}

	next := c.publish()
	if !c.net.settle(func() bool { return c.b.d.Stats().Forwarded > 0 }) {
		t.Fatalf("restarted B never forwarded: %+v", c.b.d.Stats())
	}
	if got := c.tap.log(); len(got) != 4 || got[2] || !got[3] {
		t.Fatalf("A's copies to B carried the context %v, want [true false false true]", got)
	}
	if st := c.b.d.Stats(); st.Registrations != 1 || st.Refused != 1 || c.b.count(next) != 1 {
		t.Fatalf("restarted B after A's next copy: %+v, delivered %d", st, c.b.count(next))
	}
}

func memBusNet() refusalNet {
	bus := soap.NewMemBus()
	return refusalNet{
		caller: func(string) soap.Caller { return bus },
		bind:   bus.Register,
		settle: func(cond func() bool) bool { return cond() },
		addr:   func(name string) string { return "mem://" + name },
	}
}

func virtBusNet(bus *testbed.Bus, clk *clock.Virtual) refusalNet {
	return refusalNet{
		caller: func(addr string) soap.Caller { return bus.Caller(addr) },
		bind:   bus.Register,
		settle: func(cond func() bool) bool {
			for i := 0; i < 100 && !cond(); i++ {
				clk.Advance(10 * time.Millisecond)
			}
			return cond()
		},
		addr: func(name string) string { return "virt://" + name },
	}
}

// switchable is an HTTP endpoint's handler, swapped on a restart.
type switchable struct {
	mu sync.Mutex
	h  soap.Handler
}

func (s *switchable) HandleSOAP(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		return nil, soap.NewFault(soap.CodeReceiver, "not started")
	}
	return h.HandleSOAP(ctx, req)
}

// httpPlaneNet serves each name on a loopback listener and sends every
// node's traffic through a delivery plane of its own over the HTTP client.
func httpPlaneNet(t *testing.T) refusalNet {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var mu sync.Mutex
	addrs := make(map[string]string)
	handlers := make(map[string]*switchable)
	planes := make(map[string]*delivery.Plane)
	client := soap.NewHTTPClient(nil)
	t.Cleanup(func() {
		mu.Lock()
		for _, p := range planes {
			p.Close()
		}
		mu.Unlock()
		cancel()
		wg.Wait()
	})
	return refusalNet{
		addr: func(name string) string {
			mu.Lock()
			defer mu.Unlock()
			if a, ok := addrs[name]; ok {
				return a
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			a := fmt.Sprintf("http://%s/", ln.Addr())
			sw := &switchable{}
			addrs[name], handlers[a] = a, sw
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = soap.Serve(ctx, ln, soap.NewHTTPServer(sw))
			}()
			return a
		},
		bind: func(addr string, h soap.Handler) {
			mu.Lock()
			sw := handlers[addr]
			mu.Unlock()
			sw.mu.Lock()
			sw.h = h
			sw.mu.Unlock()
		},
		caller: func(addr string) soap.Caller {
			mu.Lock()
			defer mu.Unlock()
			p, ok := planes[addr]
			if !ok {
				p = delivery.NewPlane(delivery.Config{Caller: client, Clock: clock.NewReal()})
				planes[addr] = p
			}
			return p
		},
		settle: func(cond func() bool) bool {
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
				if cond() {
					return true
				}
			}
			return cond()
		},
	}
}

// TestRestartedNodeRefusesBareCopy: on every binding — MemBus, HTTP behind
// a delivery plane that queues, and the delayed one-way virtual bus — a node
// restarted at its address delivers the bare copy it gets once, refuses it
// to the sender its From names, and gets the context on the sender's next
// copy, registers and forwards again. Without the refusal every later copy
// would be bare, and the node would never register.
func TestRestartedNodeRefusesBareCopy(t *testing.T) {
	t.Run("membus", func(t *testing.T) { checkRestart(t, memBusNet()) })
	t.Run("http-plane", func(t *testing.T) { checkRestart(t, httpPlaneNet(t)) })
	t.Run("virtbus", func(t *testing.T) {
		clk := clock.NewVirtual()
		checkRestart(t, virtBusNet(testbed.NewBus(clk, 7, time.Millisecond, 5*time.Millisecond), clk))
	})
}

// TestLostFirstCopyIsRefused: over a one-way bus that drops a copy after its
// sender was told it went out, a late joiner whose first copy, the one with
// the context, is lost gets the next copy bare; it refuses it, and the copy
// after carries the context again.
func TestLostFirstCopyIsRefused(t *testing.T) {
	clk := clock.NewVirtual()
	bus := testbed.NewBus(clk, 7, time.Millisecond, 5*time.Millisecond)
	c := newRefusalCluster(t, virtBusNet(bus, clk))
	bus.Faults().Cut("first", []string{"virt://a"}, []string{"virt://b"})
	if _, _, err := c.init.Notify(context.Background(), c.inter, &refusalNote{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	bus.Faults().Heal("first")
	c.seq = 1
	if st := c.b.d.Stats(); st.Received != 0 {
		t.Fatalf("B got the cut copy: %+v", st)
	}
	bare := c.publish()
	if !c.net.settle(func() bool { return c.a.d.Stats().Refusals == 1 }) {
		t.Fatalf("A took %d refusals, want 1", c.a.d.Stats().Refusals)
	}
	if c.b.count(bare) != 1 || c.b.d.Stats().Registrations != 0 {
		t.Fatalf("B after the bare copy: delivered %d, %+v", c.b.count(bare), c.b.d.Stats())
	}
	c.publish()
	if got := c.tap.log(); len(got) != 3 || !got[0] || got[1] || !got[2] {
		t.Fatalf("A's copies to B carried the context %v, want [true false true]", got)
	}
	if st := c.b.d.Stats(); st.Registrations != 1 || st.Refused != 1 {
		t.Fatalf("B after A's next copy: %+v", st)
	}
}

// TestOvertakenContextCopySpreads: on the testbed bus, a restarted B gets a
// notification first as a bare copy from A, which gave B the context before
// the restart, and then with the context from C, which never did. B delivers
// and refuses the bare copy, and has no state to spread it with; the copy
// with the context registers B and spreads the notification once. B forwards
// exactly once, and its application takes the notification exactly once.
func TestOvertakenContextCopySpreads(t *testing.T) {
	const coordAddr, a, b, c = "virt://coordinator", "virt://a", "virt://b", "virt://c"
	clk := clock.NewVirtual()
	bus := testbed.NewBus(clk, 7, time.Millisecond, 5*time.Millisecond)
	ctx := context.Background()
	coord := core.NewCoordinator(core.CoordinatorConfig{
		Address: coordAddr, RNG: rand.New(rand.NewSource(1)),
		Params: func(int) (int, int) { return 2, 4 },
	})
	bus.Register(coordAddr, coord.Handler())
	// node starts a Disseminator at addr (anew on a restart) that forwards
	// to peers only.
	node := func(addr string, peers ...string) *refusalNode {
		n := &refusalNode{seen: make(map[int]int)}
		d, err := core.NewDisseminator(core.DisseminatorConfig{
			Address: addr, Caller: bus.Caller(addr), App: n,
			RNG: rand.New(rand.NewSource(2)), Peers: gossip.NewStaticPeers(peers),
		})
		if err != nil {
			t.Fatal(err)
		}
		n.d = d
		bus.Register(addr, d.Handler())
		return n
	}
	nodeA := node(a, b, c)
	nodeB := node(b, a)
	if err := core.SubscribeClient(ctx, bus, coordAddr, a, core.RoleDisseminator); err != nil {
		t.Fatal(err)
	}
	init, err := core.NewInitiator(core.InitiatorConfig{
		Address: "virt://initiator", Caller: onlyTo{Caller: bus.Caller("virt://initiator"), to: a}, Activation: coordAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	inter := start(t, init, core.ProtocolPushGossip)
	notify := func(seq int) {
		if _, _, err := init.Notify(ctx, inter, &refusalNote{Seq: seq}); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
	}
	// A gives B the context; C does not exist yet, so A's copy to it fails
	// and C is never given it.
	notify(1)
	if st := nodeB.d.Stats(); st.Registrations != 1 {
		t.Fatalf("B before the restart: %+v", st)
	}
	nodeB = node(b, a)
	node(c, b)
	bus.Faults().LinkDelay("late", []string{c}, []string{b}, 50*time.Millisecond)
	notify(2)
	if got := nodeA.d.Stats().Refusals; got != 1 {
		t.Fatalf("A took %d refusals, want B's one", got)
	}
	if st := nodeB.d.Stats(); nodeB.count(2) != 1 || st.Refused != 1 || st.Registrations != 1 || st.Forwarded != 1 {
		t.Fatalf("restarted B: delivered %d, %+v; want it delivered, refused, registered and forwarded once each", nodeB.count(2), st)
	}
}
