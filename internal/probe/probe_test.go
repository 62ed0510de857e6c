package probe

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// probeNet is a synchronous in-memory fabric: Send dispatches straight into
// the destination's dispatcher, with directional link cuts.
type probeNet struct {
	mu    sync.Mutex
	nodes map[string]*soap.Dispatcher
	cut   map[string]bool // "from|to"
}

func newProbeNet() *probeNet {
	return &probeNet{nodes: map[string]*soap.Dispatcher{}, cut: map[string]bool{}}
}

func (n *probeNet) block(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[from+"|"+to] = true
}

type netCaller struct {
	n    *probeNet
	from string
}

func (c *netCaller) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, errors.New("probe test: no request-response traffic expected")
}

func (c *netCaller) Send(ctx context.Context, to string, env *soap.Envelope) error {
	c.n.mu.Lock()
	blocked := c.n.cut[c.from+"|"+to]
	d := c.n.nodes[to]
	c.n.mu.Unlock()
	if blocked || d == nil {
		return fmt.Errorf("probe test: connection refused: %s -> %s", c.from, to)
	}
	_, err := d.HandleSOAP(ctx, &soap.Request{Envelope: env, Remote: c.from})
	return err
}

// SendEncoded delivers data as Send does the envelope it holds.
func (c *netCaller) SendEncoded(ctx context.Context, to string, data []byte) error {
	env, err := soap.Decode(data)
	if err != nil {
		return err
	}
	return c.Send(ctx, to, env)
}

// probeRig is one node: a prober with its dispatcher on the shared net.
type probeRig struct {
	p    *Prober
	reg  *metrics.Registry
	down []string
	avrt []string
}

func newRig(t *testing.T, net *probeNet, clk clock.Clock, self string, peers []string, k int) *probeRig {
	t.Helper()
	rig := &probeRig{reg: metrics.NewRegistry()}
	var pp gossip.PeerProvider
	if peers != nil {
		pp = gossip.NewStaticPeers(peers)
	}
	rig.p = New(Config{
		Self:      self,
		Caller:    &netCaller{n: net, from: self},
		Clock:     clk,
		Peers:     pp,
		K:         k,
		Timeout:   2 * time.Second,
		RNG:       rand.New(rand.NewSource(int64(len(self)))),
		Metrics:   rig.reg,
		OnDown:    func(a string) { rig.down = append(rig.down, a) },
		OnAverted: func(a string) { rig.avrt = append(rig.avrt, a) },
	})
	d := soap.NewDispatcher()
	rig.p.RegisterActions(d)
	net.mu.Lock()
	net.nodes[self] = d
	net.mu.Unlock()
	return rig
}

// TestConfirmAverted: the direct link a->b is dead but helpers can reach b,
// so the round resolves positively, marks b degraded, and never fires
// OnDown — not even when the timeout window later elapses.
func TestConfirmAverted(t *testing.T) {
	net := newProbeNet()
	clk := clock.NewVirtual()
	all := []string{"a", "b", "h1", "h2"}
	a := newRig(t, net, clk, "a", all, 0)
	newRig(t, net, clk, "b", all, 0)
	newRig(t, net, clk, "h1", all, 0)
	newRig(t, net, clk, "h2", all, 0)
	net.block("a", "b") // one-way: only our outbound path is dead

	a.p.Confirm("b")

	if len(a.avrt) != 1 || a.avrt[0] != "b" {
		t.Fatalf("OnAverted calls = %v, want [b]", a.avrt)
	}
	if !a.p.IsDegraded("b") {
		t.Fatal("b not marked degraded")
	}
	if got := a.reg.Counter("membership_suspicions_averted_total").Value(); got != 1 {
		t.Fatalf("averted counter = %d, want 1", got)
	}
	if got := a.reg.CounterVec("delivery_indirect_probes_total", "result").With(ResultAverted).Value(); got != 1 {
		t.Fatalf("averted rounds = %d, want 1", got)
	}
	// The stopped timeout must not resurrect the suspicion.
	clk.Advance(5 * time.Second)
	if len(a.down) != 0 {
		t.Fatalf("OnDown fired after averted round: %v", a.down)
	}
	st := a.p.Stats()
	if st.Pending != 0 || st.Averted != 1 || len(st.Degraded) != 1 {
		t.Fatalf("stats = %+v", st)
	}

	a.p.ClearDegraded("b")
	if a.p.IsDegraded("b") {
		t.Fatal("ClearDegraded left b degraded")
	}
}

// TestConfirmTimeout: nobody can reach b, so the round times out and
// escalates to OnDown exactly once.
func TestConfirmTimeout(t *testing.T) {
	net := newProbeNet()
	clk := clock.NewVirtual()
	all := []string{"a", "b", "h1", "h2"}
	a := newRig(t, net, clk, "a", all, 0)
	newRig(t, net, clk, "b", all, 0)
	newRig(t, net, clk, "h1", all, 0)
	newRig(t, net, clk, "h2", all, 0)
	net.block("a", "b")
	net.block("h1", "b")
	net.block("h2", "b")

	a.p.Confirm("b")
	if len(a.down) != 0 {
		t.Fatalf("OnDown fired before the timeout: %v", a.down)
	}
	clk.Advance(2 * time.Second)
	if len(a.down) != 1 || a.down[0] != "b" {
		t.Fatalf("OnDown calls = %v, want [b]", a.down)
	}
	if a.p.IsDegraded("b") {
		t.Fatal("timed-out target marked degraded")
	}
	if got := a.reg.CounterVec("delivery_indirect_probes_total", "result").With(ResultTimeout).Value(); got != 1 {
		t.Fatalf("timeout rounds = %d, want 1", got)
	}
	// A late positive for the dead round must be ignored: re-run with the
	// link healed and confirm a fresh round still works.
	net.mu.Lock()
	delete(net.cut, "h1|b")
	delete(net.cut, "h2|b")
	net.mu.Unlock()
	a.p.Confirm("b")
	if len(a.avrt) != 1 {
		t.Fatalf("fresh round after timeout: averted = %v", a.avrt)
	}
}

// TestConfirmNoHelpers: with no usable helper candidates the suspicion
// proceeds immediately, preserving pre-probe behaviour.
func TestConfirmNoHelpers(t *testing.T) {
	net := newProbeNet()
	clk := clock.NewVirtual()
	// Peer view contains only self and the target — no third parties.
	a := newRig(t, net, clk, "a", []string{"a", "b"}, 0)
	newRig(t, net, clk, "b", []string{"a", "b"}, 0)

	a.p.Confirm("b")
	if len(a.down) != 1 || a.down[0] != "b" {
		t.Fatalf("OnDown calls = %v, want [b]", a.down)
	}
	if got := a.reg.CounterVec("delivery_indirect_probes_total", "result").With(ResultNoHelpers).Value(); got != 1 {
		t.Fatalf("no_helpers rounds = %d, want 1", got)
	}

	// Nil provider behaves the same.
	c := newRig(t, net, clk, "c", nil, 0)
	c.p.Confirm("b")
	if len(c.down) != 1 {
		t.Fatalf("nil-provider OnDown calls = %v", c.down)
	}
}

// TestConfirmDedupAndK: repeated Confirms while a round is open do not
// stack, and K caps the helper fan-out.
func TestConfirmDedupAndK(t *testing.T) {
	net := newProbeNet()
	clk := clock.NewVirtual()
	all := []string{"a", "b", "h1", "h2", "h3"}
	a := newRig(t, net, clk, "a", all, 1)
	newRig(t, net, clk, "b", all, 0)
	for _, h := range []string{"h1", "h2", "h3"} {
		newRig(t, net, clk, h, all, 0)
	}
	net.block("a", "b")
	net.block("h1", "b")
	net.block("h2", "b")
	net.block("h3", "b")

	a.p.Confirm("b")
	a.p.Confirm("b") // open round: no second fan-out
	msgs := a.reg.CounterVec("probe_messages_total", "type")
	if got := msgs.With("ping_req").Value(); got != 1 {
		t.Fatalf("ping_req count = %d, want 1 (K=1, deduped)", got)
	}
	if st := a.p.Stats(); st.Pending != 1 {
		t.Fatalf("pending = %d, want 1", st.Pending)
	}
	clk.Advance(2 * time.Second)
	if len(a.down) != 1 {
		t.Fatalf("OnDown calls = %v, want exactly one", a.down)
	}
}

// TestBodyBlockNames: soap names each marshaled body from its start tag; it
// must be the name an xml.Unmarshal probe of the same bytes reports.
func TestBodyBlockNames(t *testing.T) {
	for _, body := range []any{
		pingReqBody{Origin: "mem://a", Target: "mem://b", Nonce: "1"},
		pingBody{From: "mem://a", Nonce: "1"},
		pingAckBody{From: "mem://b", Nonce: "1"},
		pingReqAckBody{From: "mem://c", Target: "mem://b", Nonce: "1"},
	} {
		raw, err := xml.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		var probe struct {
			XMLName xml.Name
		}
		if err := xml.Unmarshal(raw, &probe); err != nil {
			t.Fatal(err)
		}
		env := soap.NewEnvelope()
		if err := env.SetBody(body); err != nil {
			t.Fatal(err)
		}
		if got := env.BodyName(); got != probe.XMLName {
			t.Errorf("%T named %v, probe says %v", body, got, probe.XMLName)
		}
	}
}

// concNet is TestProberConcurrentUse's loopback: a send decodes the bytes and
// delivers them synchronously at the destination's dispatcher, or drops them
// on a seeded coin, and records the nonce of every round and relay opened.
type concNet struct {
	t      *testing.T
	nodes  map[string]*soap.Dispatcher
	closed map[string]*atomic.Bool // set once the node's Close has returned

	mu     sync.Mutex
	rng    *rand.Rand
	rounds map[string]map[string]bool // "origin|target" -> round nonces sent
	nonces []string                   // every round and relay nonce sent
}

type concCaller struct {
	n    *concNet
	from string
}

func (c *concCaller) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, errors.New("probe test: no request-response traffic expected")
}

func (c *concCaller) Send(ctx context.Context, to string, env *soap.Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return c.SendEncoded(ctx, to, data)
}

func (c *concCaller) SendEncoded(ctx context.Context, to string, data []byte) error {
	n := c.n
	if n.closed[c.from].Load() {
		n.t.Errorf("%s sent to %s after its Close returned", c.from, to)
	}
	env, err := soap.Decode(data)
	if err != nil {
		return err
	}
	n.mu.Lock()
	switch env.Addressing().Action {
	case ActionPingReq:
		var b pingReqBody
		if err := env.DecodeBody(&b); err == nil && b.Origin == c.from {
			key := b.Origin + "|" + b.Target
			if n.rounds[key] == nil {
				n.rounds[key] = map[string]bool{}
			}
			n.rounds[key][b.Nonce] = true
			n.nonces = append(n.nonces, b.Nonce)
		}
	case ActionPing:
		var b pingBody
		if err := env.DecodeBody(&b); err == nil {
			n.nonces = append(n.nonces, b.Nonce)
		}
	}
	drop := n.rng.Intn(4) == 0
	d := n.nodes[to]
	n.mu.Unlock()
	if drop || d == nil {
		return fmt.Errorf("probe test: %s -> %s dropped", c.from, to)
	}
	_, err = d.HandleSOAP(ctx, &soap.Request{Envelope: env, Remote: c.from})
	return err
}

// nonce returns a nonce some message carried, or a forged one.
func (n *concNet) nonce(rng *rand.Rand) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.nonces) == 0 || rng.Intn(5) == 0 {
		return fmt.Sprintf("forged#%d", rng.Intn(9))
	}
	return n.nonces[len(n.nonces)-1-rng.Intn(min(len(n.nonces), 8))]
}

// TestProberConcurrentUse drives four probers on the real clock from eight
// goroutines: Confirm, ClearDegraded, Stats, IsDegraded and Degraded, all
// four probe actions delivered by hand with current, stale and forged nonces
// through a loopback that drops one message in four, and Close. Every round
// a prober opened must resolve at most once, its callbacks must agree with
// its counters, and once a prober's Close returns it must send and call back
// nothing more.
func TestProberConcurrentUse(t *testing.T) {
	addrs := []string{"p0", "p1", "p2", "p3"}
	net := &concNet{t: t, nodes: map[string]*soap.Dispatcher{}, closed: map[string]*atomic.Bool{},
		rng: rand.New(rand.NewSource(1)), rounds: map[string]map[string]bool{}}
	probers := map[string]*Prober{}
	regs := map[string]*metrics.Registry{}
	resolved := map[string]*atomic.Int64{} // "origin|target" -> OnDown and OnAverted calls
	net.closed["hand"] = new(atomic.Bool)  // the test's own deliveries
	for _, a := range addrs {
		net.closed[a] = new(atomic.Bool)
		for _, b := range addrs {
			resolved[a+"|"+b] = new(atomic.Int64)
		}
	}
	for i, a := range addrs {
		a := a
		callback := func(target string) {
			if net.closed[a].Load() {
				t.Errorf("%s called back for %s after its Close returned", a, target)
			}
			resolved[a+"|"+target].Add(1)
		}
		regs[a] = metrics.NewRegistry()
		probers[a] = New(Config{
			Self: a, Caller: &concCaller{n: net, from: a}, Clock: clock.NewReal(),
			Peers: gossip.NewStaticPeers(addrs), K: 2, Timeout: time.Duration(1+i) * time.Millisecond,
			RNG: rand.New(rand.NewSource(int64(i + 1))), Metrics: regs[a], OnDown: callback, OnAverted: callback,
		})
		d := soap.NewDispatcher()
		probers[a].RegisterActions(d)
		net.nodes[a] = d
	}
	closeProber := func(a string) {
		probers[a].Close()
		net.closed[a].Store(true)
	}

	const workers, ops = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < ops; i++ {
				a, target := addrs[rng.Intn(len(addrs))], addrs[rng.Intn(len(addrs))]
				p := probers[a]
				var body any
				var action string
				switch rng.Intn(12) {
				case 0, 1, 2:
					p.Confirm(target)
				case 3:
					p.ClearDegraded(target)
				case 4:
					_, _, _ = p.Stats(), p.IsDegraded(target), p.Degraded()
				case 5:
					action, body = ActionPingReq, pingReqBody{Origin: target, Target: addrs[rng.Intn(len(addrs))], Nonce: net.nonce(rng)}
				case 6:
					action, body = ActionPing, pingBody{From: target, Nonce: net.nonce(rng)}
				case 7, 8:
					action, body = ActionPingAck, pingAckBody{From: target, Nonce: net.nonce(rng)}
				case 9, 10:
					action, body = ActionPingReqAck, pingReqAckBody{From: target, Target: addrs[rng.Intn(len(addrs))], Nonce: net.nonce(rng)}
				default:
					if g == 0 && i > ops/2 && !net.closed[a].Load() {
						closeProber(a)
					}
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
				}
				if body != nil {
					env := soap.NewEnvelope()
					if err := env.SetBody(body); err != nil {
						t.Error(err)
						return
					}
					_ = (&concCaller{n: net, from: "hand"}).Send(context.Background(), a, withAction(t, env, a, action))
				}
			}
		}()
	}
	wg.Wait()
	time.Sleep(10 * time.Millisecond) // the open rounds time out
	for _, a := range addrs {
		closeProber(a)
	}
	var averted, timedOut int64
	for _, a := range addrs {
		rounds := regs[a].CounterVec("delivery_indirect_probes_total", "result")
		averted += rounds.With(ResultAverted).Value()
		timedOut += rounds.With(ResultTimeout).Value()
		ended := rounds.With(ResultAverted).Value() + rounds.With(ResultTimeout).Value() + rounds.With(ResultNoHelpers).Value()
		calls := int64(0)
		for _, target := range addrs {
			n := resolved[a+"|"+target].Load()
			calls += n
			net.mu.Lock()
			opened := int64(len(net.rounds[a+"|"+target]))
			net.mu.Unlock()
			// A round with no helper to ask resolves without opening; with
			// four peers and K=2 every round here has helpers.
			if n > opened {
				t.Errorf("%s resolved its rounds for %s %d times, opened %d", a, target, n, opened)
			}
		}
		if calls != ended {
			t.Errorf("%s called back %d times, counted %d ended rounds", a, calls, ended)
		}
		if st := probers[a].Stats(); st.Pending != 0 {
			t.Errorf("%s holds %d open rounds after Close", a, st.Pending)
		}
	}
	if averted == 0 || timedOut == 0 {
		t.Errorf("%d rounds averted and %d timed out: schedule too tame", averted, timedOut)
	}
}

// withAction addresses env to to with action.
func withAction(t *testing.T, env *soap.Envelope, to, action string) *soap.Envelope {
	if err := env.SetAddressing(wsa.Headers{To: to, Action: action, MessageID: wsa.NewMessageID()}); err != nil {
		t.Error(err)
	}
	return env
}
