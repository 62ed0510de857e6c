package delivery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/gossip"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

// scriptedCaller is a Caller whose per-target outcomes are scripted: each
// attempt pops the next error from the target's queue (empty queue =
// success). Successful deliveries are recorded in order, decoded.
type scriptedCaller struct {
	mu        sync.Mutex
	outcomes  map[string][]error
	delivered map[string][]*soap.Envelope
	attempts  map[string]int
}

func newScripted() *scriptedCaller {
	return &scriptedCaller{
		outcomes:  make(map[string][]error),
		delivered: make(map[string][]*soap.Envelope),
		attempts:  make(map[string]int),
	}
}

func (c *scriptedCaller) script(to string, errs ...error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outcomes[to] = append(c.outcomes[to], errs...)
}

func (c *scriptedCaller) pop(to string, env *soap.Envelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts[to]++
	if q := c.outcomes[to]; len(q) > 0 {
		err := q[0]
		c.outcomes[to] = q[1:]
		if err != nil {
			return err
		}
	}
	c.delivered[to] = append(c.delivered[to], env)
	return nil
}

func (c *scriptedCaller) attemptCount(to string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts[to]
}

func (c *scriptedCaller) deliveredCount(to string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.delivered[to])
}

func (c *scriptedCaller) Call(_ context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	return nil, c.pop(to, env)
}

func (c *scriptedCaller) Send(_ context.Context, to string, env *soap.Envelope) error {
	return c.pop(to, env)
}

func (c *scriptedCaller) SendEncoded(_ context.Context, to string, data []byte) error {
	env, err := soap.Decode(data)
	if err != nil {
		return err
	}
	return c.pop(to, env.Clone())
}

var _ soap.Caller = (*scriptedCaller)(nil)

type note struct {
	XMLName struct{} `xml:"urn:test Note"`
	Text    string   `xml:"Text"`
}

func testEnv(t *testing.T, text string) *soap.Envelope {
	t.Helper()
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{Action: "urn:test/notify", MessageID: wsa.NewMessageID()}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(note{Text: text}); err != nil {
		t.Fatal(err)
	}
	return env
}

func testConfig(caller soap.Caller, clk clock.Clock, reg *metrics.Registry) Config {
	return Config{
		Caller:           caller,
		Clock:            clk,
		RNG:              rand.New(rand.NewSource(42)),
		Metrics:          reg,
		QueueCap:         4,
		AttemptTimeout:   time.Second,
		MaxAttempts:      3,
		BackoffBase:      100 * time.Millisecond,
		BackoffMax:       time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Second,
	}
}

var errConnRefused = errors.New("dial: connection refused")

func counterValue(reg *metrics.Registry, family, label, value string) int64 {
	return reg.CounterVec(family, label).With(value).Value()
}

// bindings runs fn once with the plane handed envelopes (Send, which encodes
// them on the way in) and once with it handed bytes (SendEncoded); either
// way it queues bytes and attempts them with SendEncoded. bind is what the
// plane wraps, script its outcomes, and send hands the plane one message
// for urn:peer.
func bindings(t *testing.T, fn func(t *testing.T, bind soap.Caller, script *scriptedCaller, send func(*Plane, string) error)) {
	t.Run("envelope", func(t *testing.T) {
		c := newScripted()
		fn(t, c, c, func(p *Plane, text string) error {
			return p.Send(context.Background(), "urn:peer", testEnv(t, text))
		})
	})
	t.Run("encoded", func(t *testing.T) {
		c := newScripted()
		fn(t, c, c, func(p *Plane, text string) error {
			data, err := testEnv(t, text).Encode()
			if err != nil {
				t.Fatal(err)
			}
			return p.SendEncoded(context.Background(), "urn:peer", data)
		})
	})
}

func TestPlaneSendSuccessInline(t *testing.T) {
	bindings(t, func(t *testing.T, bind soap.Caller, caller *scriptedCaller, send func(*Plane, string) error) {
		clk := clock.NewVirtual()
		reg := metrics.NewRegistry()
		p := NewPlane(testConfig(bind, clk, reg))

		if err := send(p, "hello"); err != nil {
			t.Fatalf("send: %v", err)
		}
		if got := caller.deliveredCount("urn:peer"); got != 1 {
			t.Fatalf("delivered = %d, want 1", got)
		}
		if got := reg.Counter("delivery_attempts_total").Value(); got != 1 {
			t.Fatalf("attempts = %d, want 1", got)
		}
		if got := reg.Counter("delivery_retries_total").Value(); got != 0 {
			t.Fatalf("retries = %d, want 0", got)
		}
	})
}

func TestPlaneRetriesTransientFailure(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	caller.script("urn:peer", errConnRefused) // first attempt fails, second succeeds
	p := NewPlane(testConfig(caller, clk, reg))

	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "x")); err != nil {
		t.Fatalf("send: %v (the plane should own the retry)", err)
	}
	if got := caller.deliveredCount("urn:peer"); got != 0 {
		t.Fatalf("delivered before backoff = %d", got)
	}
	// Jittered backoff is within [base/2, base]: one base advance covers it.
	clk.Advance(100 * time.Millisecond)
	if got := caller.deliveredCount("urn:peer"); got != 1 {
		t.Fatalf("delivered after backoff = %d, want 1", got)
	}
	if got := reg.Counter("delivery_retries_total").Value(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := counterValue(reg, "delivery_attempt_failures_total", "kind", "transport"); got != 1 {
		t.Fatalf("transport failures = %d, want 1", got)
	}
}

func TestPlaneAttemptBudget(t *testing.T) {
	bindings(t, func(t *testing.T, bind soap.Caller, caller *scriptedCaller, send func(*Plane, string) error) {
		clk := clock.NewVirtual()
		reg := metrics.NewRegistry()
		caller.script("urn:peer", errConnRefused, errConnRefused, errConnRefused, errConnRefused)
		p := NewPlane(testConfig(bind, clk, reg)) // MaxAttempts: 3

		if err := send(p, "x"); err != nil {
			t.Fatalf("send: %v", err)
		}
		// Drive well past every backoff: the message must stop at 3 attempts.
		for i := 0; i < 20; i++ {
			clk.Advance(time.Second)
		}
		if got := caller.attemptCount("urn:peer"); got != 3 {
			t.Fatalf("attempts = %d, want exactly the budget of 3", got)
		}
		if got := counterValue(reg, "delivery_drops_total", "reason", "budget"); got != 1 {
			t.Fatalf("budget drops = %d, want 1", got)
		}
		if got := reg.Counter("delivery_retries_total").Value(); got != 2 {
			t.Fatalf("retries = %d, want 2", got)
		}
		if got := reg.Gauge("delivery_queue_depth").Value(); got != 0 {
			t.Fatalf("queue depth = %d, want 0 after drop", got)
		}
	})
}

func TestPlaneBreakerOpensAndProbes(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	// 3 transport failures trip the threshold; the 4th attempt (the probe)
	// succeeds.
	caller.script("urn:peer", errConnRefused, errConnRefused, errConnRefused)
	cfg := testConfig(caller, clk, reg)
	cfg.MaxAttempts = 5
	var downs []string
	cfg.OnPeerDown = func(addr string) { downs = append(downs, addr) }
	p := NewPlane(cfg)

	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	clk.Advance(100 * time.Millisecond) // attempt 2
	clk.Advance(200 * time.Millisecond) // attempt 3 → breaker opens
	if got := counterValue(reg, "delivery_breaker_transitions_total", "to", "open"); got != 1 {
		t.Fatalf("open transitions = %d, want 1", got)
	}
	if len(downs) != 1 || downs[0] != "urn:peer" {
		t.Fatalf("OnPeerDown calls = %v, want [urn:peer]", downs)
	}
	if got := reg.Gauge("delivery_breaker_open").Value(); got != 1 {
		t.Fatalf("open gauge = %d, want 1", got)
	}

	// Fresh sends fast-fail while the circuit is open.
	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "y")); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("send while open = %v, want ErrCircuitOpen", err)
	}
	if got := counterValue(reg, "delivery_drops_total", "reason", "circuit_open"); got != 1 {
		t.Fatalf("circuit drops = %d, want 1", got)
	}

	// After the cooldown the queued message is the half-open probe; its
	// success closes the circuit.
	clk.Advance(2 * time.Second)
	if got := caller.deliveredCount("urn:peer"); got != 1 {
		t.Fatalf("delivered after probe = %d, want 1", got)
	}
	if got := counterValue(reg, "delivery_breaker_transitions_total", "to", "closed"); got != 1 {
		t.Fatalf("closed transitions = %d, want 1", got)
	}
	if got := reg.Gauge("delivery_breaker_open").Value(); got != 0 {
		t.Fatalf("open gauge = %d, want 0 after recovery", got)
	}
	// And the peer accepts traffic again.
	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "z")); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
	if got := caller.deliveredCount("urn:peer"); got != 2 {
		t.Fatalf("delivered = %d, want 2", got)
	}
}

// TestPlaneOnPeerUpFiresOnClose pins the recovery hook: OnPeerUp runs
// exactly once, on the open → closed transition, and never on ordinary
// successes with a closed circuit.
func TestPlaneOnPeerUpFiresOnClose(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	caller.script("urn:peer", errConnRefused, errConnRefused, errConnRefused)
	cfg := testConfig(caller, clk, reg)
	cfg.MaxAttempts = 5
	var downs, ups []string
	cfg.OnPeerDown = func(addr string) { downs = append(downs, addr) }
	cfg.OnPeerUp = func(addr string) { ups = append(ups, addr) }
	p := NewPlane(cfg)

	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	clk.Advance(100 * time.Millisecond) // attempt 2
	clk.Advance(200 * time.Millisecond) // attempt 3 → breaker opens
	if len(downs) != 1 || len(ups) != 0 {
		t.Fatalf("after open: downs=%v ups=%v", downs, ups)
	}
	clk.Advance(2 * time.Second) // cooldown → half-open probe succeeds
	if len(ups) != 1 || ups[0] != "urn:peer" {
		t.Fatalf("OnPeerUp calls = %v, want [urn:peer]", ups)
	}
	// Further ordinary successes do not re-fire the hook.
	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "y")); err != nil {
		t.Fatalf("send after recovery: %v", err)
	}
	if len(ups) != 1 {
		t.Fatalf("OnPeerUp re-fired on plain success: %v", ups)
	}
}

func TestPlaneFailedProbeReopens(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	caller.script("urn:peer",
		errConnRefused, errConnRefused, errConnRefused, // trip
		errConnRefused) // failed probe
	cfg := testConfig(caller, clk, reg)
	cfg.MaxAttempts = 10
	p := NewPlane(cfg)

	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "x")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(100 * time.Millisecond)
	clk.Advance(200 * time.Millisecond) // breaker open
	clk.Advance(2 * time.Second)        // probe fires, fails → re-open
	if got := reg.Gauge("delivery_breaker_open").Value(); got != 1 {
		t.Fatalf("open gauge = %d, want 1 after failed probe", got)
	}
	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "y")); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("send = %v, want ErrCircuitOpen (cooldown restarted)", err)
	}
	// Second cooldown, successful probe.
	clk.Advance(2 * time.Second)
	if got := caller.deliveredCount("urn:peer"); got != 1 {
		t.Fatalf("delivered = %d, want 1", got)
	}
}

func TestPlaneShedDefersQueue(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	caller.script("urn:peer", soap.NewOverloadedFault("busy", 500*time.Millisecond))
	p := NewPlane(testConfig(caller, clk, reg))

	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "m1")); err != nil {
		t.Fatalf("shed send: %v (plane should defer, not fail)", err)
	}
	// The peer is deferred: a second message queues behind the first.
	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "m2")); err != nil {
		t.Fatalf("queued send: %v", err)
	}
	if got := caller.attemptCount("urn:peer"); got != 1 {
		t.Fatalf("attempts during deferral = %d, want 1", got)
	}
	if got := reg.Counter("delivery_deferrals_total").Value(); got != 1 {
		t.Fatalf("deferrals = %d, want 1", got)
	}
	// A shed is not a transport failure: the breaker must stay closed.
	if got := counterValue(reg, "delivery_breaker_transitions_total", "to", "open"); got != 0 {
		t.Fatalf("breaker opened on shed: %d transitions", got)
	}

	clk.Advance(500 * time.Millisecond)
	if got := caller.deliveredCount("urn:peer"); got != 2 {
		t.Fatalf("delivered after deferral = %d, want 2", got)
	}
	// m1 was re-attempted (1 retry); m2's first attempt is not a retry.
	if got := reg.Counter("delivery_retries_total").Value(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	if got := counterValue(reg, "delivery_attempt_failures_total", "kind", "shed"); got != 1 {
		t.Fatalf("shed failures = %d, want 1", got)
	}
}

func TestPlaneQueueBound(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	caller.script("urn:peer", soap.NewOverloadedFault("busy", time.Second))
	cfg := testConfig(caller, clk, reg)
	cfg.QueueCap = 2
	p := NewPlane(cfg)

	// First send is shed and requeued (queue: 1). One more fits (2), the
	// next must be refused.
	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "m1")); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "m2")); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "m3")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("send = %v, want ErrQueueFull", err)
	}
	if got := counterValue(reg, "delivery_drops_total", "reason", "queue_full"); got != 1 {
		t.Fatalf("queue_full drops = %d, want 1", got)
	}
	if got := reg.Gauge("delivery_queue_depth").Value(); got != 2 {
		t.Fatalf("queue depth = %d, want 2", got)
	}
}

func TestPlaneFIFOAcrossRetry(t *testing.T) {
	clk := clock.NewVirtual()
	caller := newScripted()
	caller.script("urn:peer", errConnRefused)
	p := NewPlane(testConfig(caller, clk, nil))

	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "first")); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "second")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	caller.mu.Lock()
	defer caller.mu.Unlock()
	if len(caller.delivered["urn:peer"]) != 2 {
		t.Fatalf("delivered = %d, want 2", len(caller.delivered["urn:peer"]))
	}
	var texts []string
	for _, env := range caller.delivered["urn:peer"] {
		var n note
		if err := env.DecodeBody(&n); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, n.Text)
	}
	if texts[0] != "first" || texts[1] != "second" {
		t.Fatalf("delivery order = %v, want [first second]", texts)
	}
}

// TestPlaneClonesQueuedEnvelope: a queued envelope must be immune to
// caller-side mutation after Send returns: the plane queues the bytes Send
// encoded, not the envelope.
func TestPlaneClonesQueuedEnvelope(t *testing.T) {
	clk := clock.NewVirtual()
	caller := newScripted()
	caller.script("urn:peer", soap.NewOverloadedFault("busy", 100*time.Millisecond))
	p := NewPlane(testConfig(caller, clk, nil))

	env := testEnv(t, "original")
	if err := p.Send(context.Background(), "urn:peer", env); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(note{Text: "mutated"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(100 * time.Millisecond)
	caller.mu.Lock()
	defer caller.mu.Unlock()
	if len(caller.delivered["urn:peer"]) != 1 {
		t.Fatalf("delivered = %d, want 1", len(caller.delivered["urn:peer"]))
	}
	var n note
	if err := caller.delivered["urn:peer"][0].DecodeBody(&n); err != nil {
		t.Fatal(err)
	}
	if n.Text != "original" {
		t.Fatalf("delivered %q, want the pre-mutation clone", n.Text)
	}
}

func TestPlaneEncodedSenderRetriesSameBytes(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	caller.script("urn:peer", errConnRefused)
	p := NewPlane(testConfig(caller, clk, reg))

	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "enc")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	caller.mu.Lock()
	defer caller.mu.Unlock()
	if len(caller.delivered["urn:peer"]) != 1 {
		t.Fatalf("delivered = %d, want 1", len(caller.delivered["urn:peer"]))
	}
	var n note
	if err := caller.delivered["urn:peer"][0].DecodeBody(&n); err != nil {
		t.Fatal(err)
	}
	if n.Text != "enc" {
		t.Fatalf("delivered %q after encoded retry", n.Text)
	}
}

func TestPlaneSenderFaultDropsMessageNotPeer(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	caller.script("urn:peer", soap.NewFault(soap.CodeSender, "bad bytes"))
	p := NewPlane(testConfig(caller, clk, reg))

	err := p.Send(context.Background(), "urn:peer", testEnv(t, "x"))
	if !soap.IsSenderFault(err) {
		t.Fatalf("err = %v, want the sender fault surfaced", err)
	}
	clk.Advance(10 * time.Second)
	if got := caller.attemptCount("urn:peer"); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry of poisoned bytes)", got)
	}
	if got := counterValue(reg, "delivery_drops_total", "reason", "sender_fault"); got != 1 {
		t.Fatalf("sender_fault drops = %d, want 1", got)
	}
	// The peer itself is healthy: next send flows.
	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "ok")); err != nil {
		t.Fatalf("send after sender fault: %v", err)
	}
}

func TestPlaneCallThroughBreaker(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	caller.script("urn:peer", errConnRefused, errConnRefused, errConnRefused)
	cfg := testConfig(caller, clk, reg)
	cfg.MaxAttempts = 1 // sends don't retry; failures come from calls too
	p := NewPlane(cfg)

	for i := 0; i < 3; i++ {
		if _, err := p.Call(context.Background(), "urn:peer", testEnv(t, "q")); err == nil {
			t.Fatal("scripted call succeeded")
		}
	}
	if _, err := p.Call(context.Background(), "urn:peer", testEnv(t, "q")); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("call while open = %v, want ErrCircuitOpen", err)
	}
	clk.Advance(2 * time.Second)
	// Due circuit: the next call is the probe and closes it on success.
	if _, err := p.Call(context.Background(), "urn:peer", testEnv(t, "q")); err != nil {
		t.Fatalf("probe call: %v", err)
	}
	if got := counterValue(reg, "delivery_breaker_transitions_total", "to", "closed"); got != 1 {
		t.Fatalf("closed transitions = %d, want 1", got)
	}
}

func TestPlaneFilterViewDemotesOpenCircuits(t *testing.T) {
	clk := clock.NewVirtual()
	caller := newScripted()
	caller.script("urn:b", errConnRefused, errConnRefused, errConnRefused)
	cfg := testConfig(caller, clk, nil)
	cfg.MaxAttempts = 1
	p := NewPlane(cfg)

	view := p.FilterView(gossip.NewStaticPeers([]string{"urn:a", "urn:b", "urn:c"}))
	rng := rand.New(rand.NewSource(7))

	// Trip urn:b's breaker: three failed sends, each past the previous
	// failure's backoff window so it is attempted (not queued).
	for i := 0; i < 3; i++ {
		_ = p.Send(context.Background(), "urn:b", testEnv(t, "x"))
		clk.Advance(200 * time.Millisecond)
	}
	got := view.SelectPeers(rng, -1, "")
	if len(got) != 2 {
		t.Fatalf("peers while urn:b open = %v, want urn:a and urn:c", got)
	}
	for _, a := range got {
		if a == "urn:b" {
			t.Fatalf("open-circuit peer sampled: %v", got)
		}
	}

	// Once the cooldown elapses the peer is probe-due and sampled again,
	// so regular traffic performs the probe.
	clk.Advance(2 * time.Second)
	got = view.SelectPeers(rng, -1, "")
	if len(got) != 3 {
		t.Fatalf("peers after cooldown = %v, want all three", got)
	}
}

func TestPlaneStatesAndStats(t *testing.T) {
	clk := clock.NewVirtual()
	caller := newScripted()
	caller.script("urn:peer", soap.NewOverloadedFault("busy", time.Second))
	p := NewPlane(testConfig(caller, clk, nil))

	if err := p.Send(context.Background(), "urn:peer", testEnv(t, "x")); err != nil {
		t.Fatal(err)
	}
	states := p.States()
	if len(states) != 1 || states[0].Addr != "urn:peer" {
		t.Fatalf("states = %+v", states)
	}
	if states[0].Queued != 1 || states[0].DeferredFor != time.Second {
		t.Fatalf("state = %+v, want queued 1, deferred 1s", states[0])
	}
	st := p.Stats()
	if st.Peers != 1 || st.Queued != 1 || st.Deferred != 1 || st.OpenCircuits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPlaneClose(t *testing.T) {
	bindings(t, func(t *testing.T, bind soap.Caller, caller *scriptedCaller, send func(*Plane, string) error) {
		clk := clock.NewVirtual()
		reg := metrics.NewRegistry()
		caller.script("urn:peer", soap.NewOverloadedFault("busy", time.Second))
		p := NewPlane(testConfig(bind, clk, reg))

		if err := send(p, "x"); err != nil {
			t.Fatal(err)
		}
		p.Close()
		if err := send(p, "y"); !errors.Is(err, ErrClosed) {
			t.Fatalf("send after close = %v, want ErrClosed", err)
		}
		if got := counterValue(reg, "delivery_drops_total", "reason", "closed"); got != 2 {
			t.Fatalf("closed drops = %d, want 2 (1 queued + 1 refused)", got)
		}
		clk.Advance(10 * time.Second)
		if got := caller.attemptCount("urn:peer"); got != 1 {
			t.Fatalf("attempts after close = %d, want 1", got)
		}
	})
}

// closingBinding closes its plane in the middle of every attempt, which
// then fails.
type closingBinding struct{ p *Plane }

func (b closingBinding) Send(context.Context, string, *soap.Envelope) error { return nil }
func (b closingBinding) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}
func (b closingBinding) SendEncoded(context.Context, string, []byte) error {
	b.p.Close()
	return errConnRefused
}

// TestPlaneCloseDropsAttemptInFlight: a message whose attempt was in flight
// at Close and failed is dropped as closed, not requeued into a plane whose
// pumps are stopped.
func TestPlaneCloseDropsAttemptInFlight(t *testing.T) {
	reg := metrics.NewRegistry()
	b := &closingBinding{}
	b.p = NewPlane(testConfig(b, clock.NewVirtual(), reg))
	if err := b.p.SendEncoded(context.Background(), "urn:peer", encodedEnv(t, "x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send = %v, want ErrClosed", err)
	}
	if got := counterValue(reg, "delivery_drops_total", "reason", "closed"); got != 1 {
		t.Fatalf("closed drops = %d, want 1", got)
	}
	if st := b.p.Stats(); st.Queued != 0 || reg.Gauge("delivery_queue_depth").Value() != 0 {
		t.Fatalf("stats %+v, queue depth %d: nothing may stay queued after Close", st, reg.Gauge("delivery_queue_depth").Value())
	}
}

func encodedEnv(t *testing.T, text string) []byte {
	t.Helper()
	data, err := testEnv(t, text).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The TestNotify tests pin how a one-way notification sent as bytes
// (SendEncoded) settles: it lands exactly once, or the plane refuses or
// drops it and says so — in SendEncoded's return or in a drop counter.

func TestNotifySettlesOnceAfterRetries(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	caller.script("urn:peer", errConnRefused) // first attempt fails, retry lands
	p := NewPlane(testConfig(caller, clk, reg))

	if err := p.SendEncoded(context.Background(), "urn:peer", encodedEnv(t, "x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got := caller.deliveredCount("urn:peer"); got != 0 {
		t.Fatalf("delivered = %d before the retry, want 0", got)
	}
	clk.Advance(100 * time.Millisecond)
	if got := caller.deliveredCount("urn:peer"); got != 1 {
		t.Fatalf("delivered = %d after the retry, want 1", got)
	}
	for i := 0; i < 20; i++ {
		clk.Advance(time.Second)
	}
	if got, want := [2]int{caller.attemptCount("urn:peer"), caller.deliveredCount("urn:peer")}, [2]int{2, 1}; got != want {
		t.Fatalf("attempts, delivered = %v, want %v: a landed message is never sent again", got, want)
	}
	if got := reg.Gauge("delivery_queue_depth").Value(); got != 0 {
		t.Fatalf("queue depth = %d, want 0 once landed", got)
	}
}

func TestNotifyFastFailSettlesAndReturns(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	p := NewPlane(testConfig(caller, clk, reg))
	p.Close()

	err := p.SendEncoded(context.Background(), "urn:peer", encodedEnv(t, "x"))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed plane = %v, want ErrClosed", err)
	}
	if got := counterValue(reg, "delivery_drops_total", "reason", "closed"); got != 1 {
		t.Fatalf("closed drops = %d, want 1", got)
	}
	clk.Advance(10 * time.Second)
	if got := caller.attemptCount("urn:peer"); got != 0 {
		t.Fatalf("attempts = %d, want 0 for a refused message", got)
	}
	if got := reg.Gauge("delivery_queue_depth").Value(); got != 0 {
		t.Fatalf("queue depth = %d, want 0", got)
	}
}

func TestNotifyCloseSettlesQueuedBacklog(t *testing.T) {
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	caller := newScripted()
	caller.script("urn:peer", errConnRefused) // park the message in backoff
	p := NewPlane(testConfig(caller, clk, reg))

	if err := p.SendEncoded(context.Background(), "urn:peer", encodedEnv(t, "x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if got := reg.Gauge("delivery_queue_depth").Value(); got != 1 {
		t.Fatalf("queue depth = %d, want 1 while parked", got)
	}
	p.Close()
	if got := counterValue(reg, "delivery_drops_total", "reason", "closed"); got != 1 {
		t.Fatalf("closed drops = %d, want 1", got)
	}
	if got := reg.Gauge("delivery_queue_depth").Value(); got != 0 {
		t.Fatalf("queue depth = %d, want 0 after Close", got)
	}
	clk.Advance(10 * time.Second)
	if got, want := [2]int{caller.attemptCount("urn:peer"), caller.deliveredCount("urn:peer")}, [2]int{1, 0}; got != want {
		t.Fatalf("attempts, delivered = %v, want %v: Close drops the backlog", got, want)
	}
}

// TestPlaneCloseLeavesNoGoroutine: on the real clock, Close with a backlog
// waiting out its retry backoff stops every pump timer — nothing is attempted
// after Close and no goroutine outlives it.
func TestPlaneCloseLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	caller := newScripted()
	cfg := testConfig(caller, clock.NewReal(), nil)
	cfg.BackoffBase, cfg.BackoffMax = time.Millisecond, time.Millisecond
	p := NewPlane(cfg)
	peers := []string{"urn:a", "urn:b", "urn:c"}
	for _, peer := range peers {
		caller.script(peer, errConnRefused) // parks the first message in backoff
		for i := 0; i < 3; i++ {
			if err := p.Send(context.Background(), peer, testEnv(t, "x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Close()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines after Close, %d before the plane", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A pump that was mid-attempt at Close has returned by now.
	attempts := make([]int, len(peers))
	for i, peer := range peers {
		attempts[i] = caller.attemptCount(peer)
	}
	time.Sleep(20 * cfg.BackoffMax) // every backoff would have expired many times over
	for i, peer := range peers {
		if got := caller.attemptCount(peer); got != attempts[i] {
			t.Fatalf("%s: %d attempts after Close", peer, got-attempts[i])
		}
	}
}

// TestPlaneDeterministic pins the full schedule: two identical runs on
// fresh virtual clocks produce identical metric snapshots.
func TestPlaneDeterministic(t *testing.T) {
	run := func() string {
		clk := clock.NewVirtual()
		reg := metrics.NewRegistry()
		caller := newScripted()
		caller.script("urn:p1", errConnRefused, errConnRefused)
		caller.script("urn:p2", soap.NewOverloadedFault("busy", 300*time.Millisecond))
		p := NewPlane(testConfig(caller, clk, reg))
		for i := 0; i < 3; i++ {
			_ = p.Send(context.Background(), "urn:p1", testEnv(t, "a"))
			_ = p.Send(context.Background(), "urn:p2", testEnv(t, "b"))
		}
		for i := 0; i < 50; i++ {
			clk.Advance(100 * time.Millisecond)
		}
		return reg.Snapshot()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("runs diverged:\n--- run 1\n%s\n--- run 2\n%s", first, second)
	}
}

// stressBinding lands, rejects, sheds or fails each attempt by a seeded
// draw per peer, from any goroutine, and records every message that lands.
type stressBinding struct {
	mu     sync.Mutex
	rng    map[string]*rand.Rand
	landed map[string]bool
	twice  []string
}

func (b *stressBinding) outcome(to string) error {
	b.mu.Lock()
	r := b.rng[to].Intn(10)
	b.mu.Unlock()
	runtime.Gosched()
	switch {
	case r < 5:
		return nil
	case r < 6:
		return soap.NewFault(soap.CodeSender, "rejected")
	case r < 7:
		return soap.NewOverloadedFault("busy", 2*time.Millisecond)
	}
	return errConnRefused
}

func (b *stressBinding) Send(context.Context, string, *soap.Envelope) error { return nil }

func (b *stressBinding) Call(_ context.Context, to string, _ *soap.Envelope) (*soap.Envelope, error) {
	return nil, b.outcome(to)
}

func (b *stressBinding) SendEncoded(_ context.Context, to string, data []byte) error {
	if err := b.outcome(to); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.landed[string(data)] {
		b.twice = append(b.twice, string(data))
	}
	b.landed[string(data)] = true
	return nil
}

// TestPlaneConcurrentSendersAndCalls sends and calls to three peers from
// eight goroutines at once, on the real clock with millisecond backoffs and
// cooldowns, through a binding that lands, rejects, sheds and fails on a
// seeded schedule. Once the plane has drained, every message it accepted has
// landed exactly once or been dropped with a counted reason, and no message
// whose send was refused has landed. CI runs it under -race on 1 to 8 CPUs.
func TestPlaneConcurrentSendersAndCalls(t *testing.T) {
	peers := []string{"urn:a", "urn:b", "urn:c"}
	b := &stressBinding{rng: map[string]*rand.Rand{}, landed: map[string]bool{}}
	for i, peer := range peers {
		b.rng[peer] = rand.New(rand.NewSource(int64(i + 1)))
	}
	reg := metrics.NewRegistry()
	cfg := testConfig(b, clock.NewReal(), reg)
	cfg.BackoffBase, cfg.BackoffMax, cfg.BreakerCooldown = time.Millisecond, 4*time.Millisecond, 5*time.Millisecond
	p := NewPlane(cfg)
	defer p.Close()

	const senders, ops = 8, 200
	accepted := make([][]string, senders)
	refused := make([]int64, senders)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < ops; i++ {
				peer := peers[rng.Intn(len(peers))]
				if rng.Intn(5) == 0 {
					_, err := p.Call(context.Background(), peer, nil)
					if errors.Is(err, ErrCircuitOpen) {
						refused[g]++
					}
					continue
				}
				id := fmt.Sprintf("g%d/%d", g, i)
				if err := p.SendEncoded(context.Background(), peer, []byte(id)); err != nil {
					refused[g]++
				} else {
					accepted[g] = append(accepted[g], id)
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; ; i++ {
		if st := p.Stats(); st.Queued == 0 && st.Inflight == 0 {
			break
		}
		if i == 2000 {
			t.Fatalf("plane not drained: %+v", p.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.twice) > 0 {
		t.Fatalf("landed twice: %v", b.twice)
	}
	var lost, refusals int64
	ok := map[string]bool{}
	for g := range accepted {
		refusals += refused[g]
		for _, id := range accepted[g] {
			ok[id] = true
			if !b.landed[id] {
				lost++
			}
		}
	}
	for id := range b.landed {
		if !ok[id] {
			t.Fatalf("%s landed but its send was refused", id)
		}
	}
	var drops int64
	for _, reason := range dropReasons {
		drops += counterValue(reg, "delivery_drops_total", "reason", reason)
	}
	if lost != drops-refusals {
		t.Fatalf("%d accepted messages never landed, %d drops counted after acceptance", lost, drops-refusals)
	}
	if lost == 0 || len(b.landed) == 0 {
		t.Fatalf("schedule too tame: %d landed, %d lost", len(b.landed), lost)
	}
}
