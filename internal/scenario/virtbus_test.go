package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/faults"
	"wsgossip/internal/soap"
)

// virtBus is a SOAP binding for virtual-time scenario tests: one-way
// exchanges (the gossip traffic) ride the virtual clock with seeded link
// delay, seeded loss, and crash faults, while request-response exchanges
// (the WS-Coordination control plane) stay synchronous and reliable — the
// coordinator is not the component under stress here.
//
// All delivery callbacks fire inside clock.Virtual.Advance, so a scenario
// is one goroutine advancing time and asserting; there is nothing to await.
type virtBus struct {
	clk *clock.Virtual

	mu       sync.Mutex
	rng      *rand.Rand
	handlers map[string]soap.Handler
	down     map[string]bool
	minDelay time.Duration
	maxDelay time.Duration
	// faults rules on every one-way send: refuse rules fail matching sends
	// synchronously with a connection-refused transport error (the signal a
	// sender's delivery plane retries and eventually circuit-breaks on),
	// while cut/partition/loss rules swallow the message after a successful
	// send. Rules only see a sender when the message went through a
	// nodeCaller (which stamps its origin); unstamped sends pass "".
	faults *faults.Table
	// sync, when true, delivers one-way sends inline (no link delay) and
	// returns the handler's error to the sender — the behaviour of a
	// synchronous HTTP binding, where a shedding receiver's retry-after
	// fault comes back as the POST response. The bus mutex is released
	// during delivery so handlers may send onward.
	sync bool

	sent, dropped, delivered, refused int
}

var _ soap.Caller = (*virtBus)(nil)

func newVirtBus(clk *clock.Virtual, seed int64, minDelay, maxDelay time.Duration) *virtBus {
	if maxDelay < minDelay {
		maxDelay = minDelay
	}
	return &virtBus{
		clk:      clk,
		rng:      rand.New(rand.NewSource(seed)),
		handlers: make(map[string]soap.Handler),
		down:     make(map[string]bool),
		minDelay: minDelay,
		maxDelay: maxDelay,
		faults:   faults.NewTable(),
	}
}

func (b *virtBus) Register(addr string, h soap.Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.handlers[addr] = h
}

// Crash marks addr down: its inbound messages are dropped, including ones
// already in flight.
func (b *virtBus) Crash(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.down[addr] = true
}

// Recover clears a crash: addr receives traffic again. With Crash it forms
// the churn surface a faults.Plan drives through its Applier.
func (b *virtBus) Recover(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.down, addr)
}

// Faults exposes the bus's fault table: the full directional rule set —
// partitions, refusals, cuts, NAT, per-link loss and delay, fault plans.
// It covers the one-way gossip path only; the control plane (Call) stays
// connected, since the coordinator is not the component under stress.
func (b *virtBus) Faults() *faults.Table { return b.faults }

// SetLoss changes the one-way message loss probability.
func (b *virtBus) SetLoss(p float64) { b.faults.SetLoss(p) }

// SetSync switches one-way delivery between the default delayed/lossy mode
// and the synchronous fault-propagating mode.
func (b *virtBus) SetSync(on bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sync = on
}

// Stats returns (sent, dropped, delivered) one-way message counts.
func (b *virtBus) Stats() (sent, dropped, delivered int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sent, b.dropped, b.delivered
}

// Refused returns how many one-way sends the refuse hook failed.
func (b *virtBus) Refused() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refused
}

// Call is the reliable, synchronous control plane (Activation,
// Registration, Subscribe).
func (b *virtBus) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	b.mu.Lock()
	h := b.handlers[to]
	down := b.down[to]
	b.mu.Unlock()
	if h == nil || down {
		return nil, fmt.Errorf("virtbus: unreachable endpoint %s", to)
	}
	data, err := env.Encode()
	if err != nil {
		return nil, err
	}
	decoded, err := soap.Decode(data)
	if err != nil {
		return nil, err
	}
	resp, err := h.HandleSOAP(ctx, &soap.Request{Envelope: decoded, Remote: "virtbus"})
	if err != nil {
		return nil, soap.AsFault(err)
	}
	if f := soap.FaultFrom(resp); f != nil {
		return nil, f
	}
	return resp, nil
}

// Send is the lossy, delayed one-way path every gossip exchange takes.
func (b *virtBus) Send(ctx context.Context, to string, env *soap.Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return b.SendEncoded(ctx, to, data)
}

// SendEncoded implements the encode-once fan-out path.
func (b *virtBus) SendEncoded(ctx context.Context, to string, data []byte) error {
	return b.sendEncodedFrom(ctx, "", to, data)
}

// sendEncodedFrom is SendEncoded with a sender identity, so an installed
// partition or refuse hook can rule on the (from, to) link.
func (b *virtBus) sendEncodedFrom(_ context.Context, from, to string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := b.handlers[to]
	if h == nil {
		return fmt.Errorf("virtbus: unknown endpoint %s", to)
	}
	b.sent++
	switch d := b.faults.Check(from, to); d.Outcome {
	case faults.Refuse:
		b.refused++
		return fmt.Errorf("virtbus: connection refused: %s -> %s", from, to)
	case faults.Drop:
		b.dropped++
		return nil
	}
	if b.down[to] {
		b.dropped++
		return nil
	}
	if b.faults.Lossy(from, to, b.rng) {
		b.dropped++
		return nil
	}
	if b.sync {
		decoded, err := soap.Decode(data)
		if err != nil {
			return err
		}
		b.delivered++
		b.mu.Unlock()
		defer b.mu.Lock() // re-balance the deferred Unlock above
		_, err = h.HandleSOAP(context.Background(), &soap.Request{Envelope: decoded, Remote: "virtbus"})
		return err
	}
	delay := b.minDelay
	if span := b.maxDelay - b.minDelay; span > 0 {
		delay += time.Duration(b.rng.Int63n(int64(span) + 1))
	}
	delay += b.faults.ExtraDelay(from, to)
	b.clk.AfterFunc(delay, func() {
		b.mu.Lock()
		h := b.handlers[to]
		down := b.down[to]
		b.mu.Unlock()
		if h == nil || down {
			b.mu.Lock()
			b.dropped++
			b.mu.Unlock()
			return
		}
		decoded, err := soap.Decode(data)
		if err != nil {
			return
		}
		b.mu.Lock()
		b.delivered++
		b.mu.Unlock()
		// One-way semantics: handler errors vanish, as over HTTP 202.
		_, _ = h.HandleSOAP(context.Background(), &soap.Request{Envelope: decoded, Remote: "virtbus"})
	})
	return nil
}

// nodeCaller binds a bus to one node's address so one-way sends carry their
// origin — the hook partition rules need. Request-response calls delegate
// unstamped (the control plane ignores partitions anyway).
type nodeCaller struct {
	bus  *virtBus
	from string
}

var _ soap.Caller = (*nodeCaller)(nil)

func (c *nodeCaller) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	return c.bus.Call(ctx, to, env)
}

func (c *nodeCaller) Send(ctx context.Context, to string, env *soap.Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return c.bus.sendEncodedFrom(ctx, c.from, to, data)
}

func (c *nodeCaller) SendEncoded(ctx context.Context, to string, data []byte) error {
	return c.bus.sendEncodedFrom(ctx, c.from, to, data)
}
