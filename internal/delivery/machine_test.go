package delivery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// lawBinding is the binding under TestPlaneLaws: synchronous, it draws each
// attempt's outcome — landed, Sender fault, retry-after hint or transport
// failure — from the run's RNG by the peer's current mode, and records every
// message that lands. It checks the breaker law as each attempt arrives.
type lawBinding struct {
	t      *testing.T
	rng    *rand.Rand
	clk    *clock.Virtual
	plane  *Plane
	mode   map[string]int // index into lawModes
	landed map[string][]int
	once   map[string]bool // every message that has landed
	// failedAt is, per peer, when a one-way attempt to it last failed in
	// transport.
	failedAt map[string]time.Duration
	step     int
	seed     int64
}

// lawModes are a peer's outcome weights: ok, Sender fault, retry-after,
// transport failure.
var lawModes = [][4]int{
	{1, 0, 0, 0}, // healthy
	{4, 1, 2, 3}, // flaky
	{0, 0, 0, 1}, // down
	{1, 0, 3, 0}, // busy: mostly sheds
}

const lawMaxHint = 800 * time.Millisecond

func (b *lawBinding) outcome(to string) error {
	// The breaker law: an attempt reaches an open circuit only as its one
	// probe, once the cooldown has run out.
	if pe := b.plane.mach.peers[to]; pe.br.open && (b.clk.Now() < pe.br.openUntil || pe.inflight != 1) {
		b.t.Fatalf("seed %d step %d: attempt to %s at %v, circuit open until %v, %d in flight",
			b.seed, b.step, to, b.clk.Now(), pe.br.openUntil, pe.inflight)
	}
	w := lawModes[b.mode[to]]
	r := b.rng.Intn(w[0] + w[1] + w[2] + w[3])
	switch {
	case r < w[0]:
		return nil
	case r < w[0]+w[1]:
		return soap.NewFault(soap.CodeSender, "rejected")
	case r < w[0]+w[1]+w[2]:
		return soap.NewOverloadedFault("busy", time.Duration(1+b.rng.Int63n(int64(lawMaxHint))))
	}
	return errConnRefused
}

func (b *lawBinding) Send(context.Context, string, *soap.Envelope) error { return nil }

func (b *lawBinding) Call(_ context.Context, to string, _ *soap.Envelope) (*soap.Envelope, error) {
	return nil, b.outcome(to)
}

func (b *lawBinding) SendEncoded(_ context.Context, to string, data []byte) error {
	if err := b.outcome(to); err != nil {
		if err == errConnRefused {
			b.failedAt[to] = b.clk.Now()
		}
		return err
	}
	id := string(data)
	if b.once[id] {
		b.t.Fatalf("seed %d step %d: %s landed twice", b.seed, b.step, id)
	}
	b.once[id] = true
	var seq int
	if _, err := fmt.Sscanf(id[len(to)+1:], "%d", &seq); err != nil {
		b.t.Fatalf("message %q: %v", id, err)
	}
	b.landed[to] = append(b.landed[to], seq)
	return nil
}

// TestPlaneLaws drives a Plane on a virtual clock through random schedules
// over one to four peers — fresh sends, Calls, one drawn outcome per
// attempt, peers changing between healthy, flaky, down and busy, clock
// advances, and Close — and checks after every step:
//   - every accepted message has landed, been dropped with a counted
//     reason, or is still queued, and no message lands twice or after its
//     send was refused;
//   - a queue with nothing in flight always has a pump armed no later than
//     the latest of its cooldown end, deferral and backoff — so an open
//     breaker never strands its backlog (the stranded-backlog bug);
//   - an open circuit lets an attempt through only as its one probe, after
//     the cooldown (lawBinding);
//   - no queue exceeds QueueCap, and the queue and in-flight gauges and the
//     OnPeerDown/OnPeerUp hooks agree with the peers' state;
//   - each peer's messages land in the order they were sent;
//   - a transport failure of a message backs its peer off into the future,
//     by at least the smallest backoff the jitter allows (BackoffBase/2).
//
// A run not closed ends by healing every peer under steady traffic: each
// circuit must be closed within BackoffMax + BreakerCooldown.
func TestPlaneLaws(t *testing.T) {
	seen := map[string]int64{} // drops by reason, and circuit transitions, over all runs
	for seed := int64(1); seed <= 200; seed++ {
		reg := runPlaneLaws(t, seed)
		for _, reason := range dropReasons {
			seen[reason] += counterValue(reg, "delivery_drops_total", "reason", reason)
		}
		for _, to := range []string{"open", "closed"} {
			seen["to "+to] += counterValue(reg, "delivery_breaker_transitions_total", "to", to)
		}
	}
	// The schedules must reach every way a message settles.
	for what, n := range seen {
		if n == 0 {
			t.Errorf("no run counted %s", what)
		}
	}
}

var dropReasons = []string{"queue_full", "circuit_open", "budget", "sender_fault", "closed"}

// runPlaneLaws is one TestPlaneLaws run; it returns the plane's registry.
func runPlaneLaws(t *testing.T, seed int64) *metrics.Registry {
	rng := rand.New(rand.NewSource(seed))
	peers := []string{"urn:a", "urn:b", "urn:c", "urn:d"}[:1+rng.Intn(4)]
	clk := clock.NewVirtual()
	reg := metrics.NewRegistry()
	b := &lawBinding{t: t, rng: rng, clk: clk, seed: seed,
		mode: map[string]int{}, landed: map[string][]int{}, once: map[string]bool{}, failedAt: map[string]time.Duration{}}
	cfg := Config{
		Caller:           b,
		Clock:            clk,
		RNG:              rand.New(rand.NewSource(seed)),
		Metrics:          reg,
		QueueCap:         3,
		AttemptTimeout:   time.Second,
		MaxAttempts:      3,
		BackoffBase:      50 * time.Millisecond,
		BackoffMax:       400 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Second,
	}
	up := map[string]bool{} // by the hooks: false once OnPeerDown has run
	for _, peer := range peers {
		up[peer] = true
		b.mode[peer] = rng.Intn(len(lawModes))
	}
	hook := func(want bool) func(string) {
		return func(addr string) {
			if up[addr] == want {
				t.Fatalf("seed %d step %d: hook reports %s up=%v twice", seed, b.step, addr, want)
			}
			up[addr] = want
		}
	}
	cfg.OnPeerDown, cfg.OnPeerUp = hook(false), hook(true)
	p := NewPlane(cfg)
	b.plane = p

	seq := map[string]int{}
	accepted := map[string]bool{}
	refused := 0 // refusals the caller was told of, each counted once as a drop
	send := func(peer string) {
		seq[peer]++
		id := fmt.Sprintf("%s/%d", peer, seq[peer])
		if err := p.SendEncoded(context.Background(), peer, []byte(id)); err != nil {
			refused++
		} else {
			accepted[id] = true
		}
	}
	call := func(peer string) {
		_, err := p.Call(context.Background(), peer, nil)
		if errors.Is(err, ErrClosed) || errors.Is(err, ErrCircuitOpen) {
			refused++
		}
	}
	check := func(step int) {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d at %v: %s", seed, step, clk.Now(), fmt.Sprintf(format, args...))
		}
		now := clk.Now()
		queued := map[string]bool{}
		total := 0
		for _, peer := range peers {
			pe := p.mach.peers[peer]
			if pe == nil {
				continue
			}
			total += len(pe.queue)
			if len(pe.queue) > cfg.QueueCap {
				fail("%s queues %d, cap %d", peer, len(pe.queue), cfg.QueueCap)
			}
			if pe.inflight != 0 || pe.br.probing {
				fail("%s: %d in flight, probing %v, between steps", peer, pe.inflight, pe.br.probing)
			}
			if up[peer] == pe.br.open {
				fail("%s: circuit open %v, hooks say up %v", peer, pe.br.open, up[peer])
			}
			if at, ok := b.failedAt[peer]; ok && pe.backoffUntil < at+cfg.BackoffBase/2 {
				fail("%s: a transport failure at %v backed it off until %v, before the least jittered backoff %v",
					peer, at, pe.backoffUntil, cfg.BackoffBase/2)
			}
			for _, it := range pe.queue {
				queued[string(it.data)] = true
			}
			if len(pe.queue) == 0 {
				continue
			}
			bound := max(now, pe.deferUntil, pe.backoffUntil)
			if pe.br.open {
				bound = max(bound, pe.br.openUntil)
			}
			if pe.stopPump == nil || pe.pumpAt > bound {
				fail("%s: %d queued (circuit open %v) and pump armed %v at %v, due by %v",
					peer, len(pe.queue), pe.br.open, pe.stopPump != nil, pe.pumpAt, bound)
			}
		}
		lost := 0
		for id := range accepted {
			if !b.once[id] && !queued[id] {
				lost++
			}
		}
		for id := range b.once {
			if !accepted[id] {
				fail("%s landed but its send was refused", id)
			}
		}
		drops := int64(0)
		for _, reason := range dropReasons {
			drops += counterValue(reg, "delivery_drops_total", "reason", reason)
		}
		if int64(lost) != drops-int64(refused) {
			fail("%d accepted messages neither landed nor queued, %d counted drops after acceptance",
				lost, drops-int64(refused))
		}
		if got := reg.Gauge("delivery_queue_depth").Value(); got != int64(total) {
			fail("queue depth gauge %d, %d queued", got, total)
		}
		if got := reg.Gauge("delivery_inflight").Value(); got != 0 {
			fail("in-flight gauge %d between steps", got)
		}
		for peer, seqs := range b.landed {
			for i := 1; i < len(seqs); i++ {
				if seqs[i] <= seqs[i-1] {
					fail("%s landed %v: out of order", peer, seqs)
				}
			}
		}
	}

	const steps = 300
	closed := false
	for step := 0; step < steps; step++ {
		b.step = step
		peer := peers[rng.Intn(len(peers))]
		switch r := rng.Intn(100); {
		case r < 45:
			send(peer)
		case r < 55:
			call(peer)
		case r < 60:
			b.mode[peer] = rng.Intn(len(lawModes))
		case r < 99:
			clk.Advance(time.Duration(rng.Int63n(int64(700 * time.Millisecond))))
		case !closed && rng.Intn(2) == 0:
			p.Close()
			closed = true
		}
		check(step)
	}
	if closed {
		if st := p.Stats(); st.Queued != 0 {
			t.Fatalf("seed %d: %d queued after Close", seed, st.Queued)
		}
		return reg
	}

	// Heal every peer under steady traffic: each circuit closes within
	// BackoffMax + BreakerCooldown.
	for _, peer := range peers {
		b.mode[peer] = 0
	}
	healBy := clk.Now() + cfg.BackoffMax + cfg.BreakerCooldown
	for step := steps; clk.Now() < healBy; step++ {
		b.step = step
		for _, peer := range peers {
			send(peer)
		}
		clk.Advance(50 * time.Millisecond)
		check(step)
	}
	for _, peer := range peers {
		if !up[peer] || p.mach.peers[peer].br.open {
			t.Fatalf("seed %d: %s still down %v after healing", seed, peer, cfg.BackoffMax+cfg.BreakerCooldown)
		}
	}
	return reg
}

// holdBinding is the binding under TestPlaneAdmissionLaws. It holds the
// one-way attempt named hold until the test sends its outcome on release,
// answers every other attempt at once (a Call with callErr, a one-way
// message with fail's entry for it, nil when there is none), and records
// when each message lands. It fails the test on a second attempt to a peer
// while one is in flight.
type holdBinding struct {
	t        *testing.T
	clk      *clock.Virtual
	hold     string
	arrived  chan struct{}
	release  chan error
	callErr  error
	fail     map[string]error
	mu       sync.Mutex
	inflight map[string]int
	landed   []string
	landedAt map[string]time.Duration
}

func (b *holdBinding) Send(context.Context, string, *soap.Envelope) error { return nil }

func (b *holdBinding) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, b.callErr
}

func (b *holdBinding) SendEncoded(_ context.Context, to string, data []byte) error {
	id := string(data)
	b.mu.Lock()
	b.inflight[to]++
	if n := b.inflight[to]; n > 1 {
		b.t.Errorf("%s attempted while %d other attempts to %s are in flight", id, n-1, to)
	}
	b.mu.Unlock()
	err := b.fail[id]
	if id == b.hold {
		b.arrived <- struct{}{}
		err = <-b.release
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inflight[to]--
	if err == nil {
		b.landed = append(b.landed, id)
		b.landedAt[id] = b.clk.Now()
	}
	return err
}

// TestPlaneAdmissionLaws holds the plane's admission of fresh traffic to its
// laws, with an attempt held in flight where the law needs one:
//   - fresh traffic to a peer with an attempt in flight, or with a queue, is
//     queued behind it: the peer's messages land in the order they were
//     sent, and never are two attempts to one peer in flight at once;
//   - fresh traffic inside a retry-after deferral, or inside the backoff of
//     a transport failure, waits until it ends, even with nothing ahead.
func TestPlaneAdmissionLaws(t *testing.T) {
	ctx := context.Background()
	clk := clock.NewVirtual()
	b := &holdBinding{t: t, clk: clk, hold: "a/1",
		arrived: make(chan struct{}), release: make(chan error),
		fail:     map[string]error{"c/1": errConnRefused},
		inflight: map[string]int{}, landedAt: map[string]time.Duration{}}
	p := NewPlane(Config{Caller: b, Clock: clk, MaxAttempts: 1, BreakerThreshold: 100})
	defer p.Close()
	send := func(id string) {
		t.Helper()
		if err := p.SendEncoded(ctx, id[:1], []byte(id)); err != nil {
			t.Fatalf("send %s: %v", id, err)
		}
	}
	landed := func(want ...string) {
		t.Helper()
		b.mu.Lock()
		defer b.mu.Unlock()
		if !slices.Equal(b.landed, want) {
			t.Fatalf("at %v landed %v, want %v", clk.Now(), b.landed, want)
		}
	}

	// Behind an attempt in flight, then behind a queue with nothing in
	// flight: a/4 comes while a/2 and a/3 still wait for their pump.
	first := make(chan error)
	go func() { first <- p.SendEncoded(ctx, "a", []byte("a/1")) }()
	<-b.arrived
	send("a/2")
	send("a/3")
	landed()
	b.release <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	send("a/4")
	landed("a/1")
	clk.Advance(0)
	landed("a/1", "a/2", "a/3", "a/4")

	// Inside a retry-after deferral, which a shed Call set with nothing
	// queued.
	const hint = 500 * time.Millisecond
	b.callErr = soap.NewOverloadedFault("busy", hint)
	deferredUntil := clk.Now() + hint
	if _, err := p.Call(ctx, "b", nil); err == nil {
		t.Fatal("the shed Call returned nil")
	}
	send("b/1")
	clk.Advance(hint - time.Millisecond)
	landed("a/1", "a/2", "a/3", "a/4")
	clk.Advance(time.Millisecond)
	if at, ok := b.landedAt["b/1"]; !ok || at < deferredUntil {
		t.Fatalf("b/1 landed %v at %v, inside the deferral to %v", ok, at, deferredUntil)
	}

	// Inside the backoff of a transport failure whose message the budget
	// dropped, with nothing queued.
	if err := p.SendEncoded(ctx, "c", []byte("c/1")); err == nil {
		t.Fatal("a failed attempt with no budget left returned nil")
	}
	p.mu.Lock()
	backoffUntil := p.mach.peers["c"].backoffUntil
	p.mu.Unlock()
	if backoffUntil <= clk.Now() {
		t.Fatalf("a transport failure at %v backed c off until %v", clk.Now(), backoffUntil)
	}
	send("c/2")
	clk.Advance(backoffUntil - clk.Now() - 1)
	if _, ok := b.landedAt["c/2"]; ok {
		t.Fatalf("c/2 landed inside the backoff to %v", backoffUntil)
	}
	clk.Advance(1)
	if at, ok := b.landedAt["c/2"]; !ok || at < backoffUntil {
		t.Fatalf("c/2 landed %v at %v, backoff to %v", ok, at, backoffUntil)
	}
}
