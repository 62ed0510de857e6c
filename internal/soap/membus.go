package soap

import (
	"context"
	"fmt"
	"sync"
)

// MemBus is an in-memory SOAP binding: endpoints register handlers under
// opaque addresses and exchanges go through a full encode/decode cycle, so
// wire behaviour (header pass-through, faults) matches the HTTP binding
// while allowing hundreds of nodes in one process.
//
// Request-response exchanges (Call) are synchronous. One-way exchanges
// (Send) are queued FIFO and drained iteratively: a Send issued from inside
// a handler is delivered after the current wave, giving the same
// breadth-first message ordering as an asynchronous network. Without this,
// hop-bounded dissemination would burn its hop budget down one depth-first
// chain — an artifact no real deployment exhibits. The top-level Send
// drains the whole cascade before returning, so tests and examples observe
// a completed dissemination.
type MemBus struct {
	mu        sync.RWMutex
	endpoints map[string]Handler

	qmu      sync.Mutex
	queue    []pendingSend
	head     int // next undelivered entry; the drain resets both when empty
	draining bool
}

type pendingSend struct {
	to   string
	data []byte
}

var _ Caller = (*MemBus)(nil)

// NewMemBus returns an empty bus.
func NewMemBus() *MemBus {
	return &MemBus{endpoints: make(map[string]Handler)}
}

// Register binds addr to h, replacing any previous binding.
func (b *MemBus) Register(addr string, h Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.endpoints[addr] = h
}

// Unregister removes addr from the bus (used for crash-fault injection).
func (b *MemBus) Unregister(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.endpoints, addr)
}

func (b *MemBus) lookup(addr string) (Handler, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	h, ok := b.endpoints[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, addr)
	}
	return h, nil
}

// deliver round-trips the envelope through the codec so receivers observe
// exactly what they would see over HTTP.
func (b *MemBus) deliver(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	data, err := env.Encode()
	if err != nil {
		return nil, err
	}
	h, err := b.lookup(to)
	if err != nil {
		return nil, err
	}
	req, _, err := decodeRequest(data, false)
	if err != nil {
		return nil, err
	}
	req.Remote = "membus"
	return h.HandleSOAP(ctx, req)
}

// Call performs a request-response exchange. Handler errors are surfaced as
// *Fault, matching the HTTP binding.
func (b *MemBus) Call(ctx context.Context, to string, env *Envelope) (*Envelope, error) {
	resp, err := b.deliver(ctx, to, env)
	if err != nil {
		return nil, AsFault(err)
	}
	if f := FaultFrom(resp); f != nil {
		return nil, f
	}
	return resp, nil
}

// Send performs a one-way exchange, discarding any response envelope. The
// destination is validated immediately; delivery is FIFO-ordered behind any
// in-flight wave (see the type comment). Handler errors at the receiver are
// not reported back — one-way semantics, as over HTTP 202.
func (b *MemBus) Send(ctx context.Context, to string, env *Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return b.SendEncoded(ctx, to, data)
}

// SendEncoded performs a one-way exchange with an already-serialized
// envelope, skipping the redundant encode of the fan-out hot path. On
// success the bus takes full ownership of data (see EncodedSender's
// contract). The delivery's request lives until its handler returns: then
// the request goes back to its pool, zeroed, and data to the wire buffer
// pool, so a handler that retains its request envelope must Clone it.
//
// A handler that panics unwinds through the top-level SendEncoded that is
// draining; its message's buffer and request are not recycled, and the
// messages queued behind it go out with the bus's next wave.
func (b *MemBus) SendEncoded(ctx context.Context, to string, data []byte) error {
	if _, err := b.lookup(to); err != nil {
		return AsFault(err) // ownership stays with the caller on error
	}
	b.qmu.Lock()
	b.queue = append(b.queue, pendingSend{to: to, data: data})
	if b.draining {
		b.qmu.Unlock()
		return nil
	}
	b.draining = true
	b.qmu.Unlock()
	b.drain(ctx)
	return nil
}

// drain delivers the queue in FIFO order, including what the deliveries
// enqueue. A handler panic ends the wave in the deferred cleanup, which
// leaves the bus idle rather than draining with nobody to drain.
func (b *MemBus) drain(ctx context.Context) {
	finished := false
	defer func() {
		if !finished {
			b.qmu.Lock()
			b.draining = false
			b.qmu.Unlock()
		}
	}()
	b.qmu.Lock()
	for b.head < len(b.queue) {
		p := b.queue[b.head]
		b.queue[b.head] = pendingSend{}
		b.head++
		b.qmu.Unlock()
		b.deliverOneWay(ctx, p)
		b.qmu.Lock()
	}
	b.queue = b.queue[:0]
	b.head = 0
	b.draining = false
	b.qmu.Unlock()
	finished = true
}

// deliverOneWay hands one queued message to its endpoint and recycles its
// request and buffer once the handler has returned. Endpoints may unregister
// (crash injection) between enqueue and delivery; the message is dropped
// silently like a network would.
func (b *MemBus) deliverOneWay(ctx context.Context, p pendingSend) {
	h, err := b.lookup(p.to)
	if err != nil {
		putBytes(p.data)
		return
	}
	req, rec, err := decodeRequest(p.data, true)
	if err != nil {
		putBytes(p.data)
		return
	}
	req.Remote = "membus"
	_, _ = h.HandleSOAP(ctx, req)
	rec.release()
	putBytes(p.data)
}
