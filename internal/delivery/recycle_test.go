package delivery

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
)

// keepBinding lands, fails or refuses each message by its peer, and keeps
// every message it lands with a copy of its bytes as they arrived: the plane
// recycles its items, and no recycled item may change the bytes a binding
// was handed, or hand it bytes their sender took back.
type keepBinding struct {
	mu     sync.Mutex
	tries  map[string]int
	landed [][2][]byte // the buffer, and its bytes on arrival
	bad    []string
}

func (b *keepBinding) Send(context.Context, string, *soap.Envelope) error { return nil }
func (b *keepBinding) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, nil
}

func (b *keepBinding) SendEncoded(_ context.Context, to string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !bytes.HasPrefix(data, []byte("<m ")) {
		b.bad = append(b.bad, string(data))
	}
	b.tries[to]++
	switch to {
	case "mem://down": // opens its breaker, and fills its queue with retries
		return errConnRefused
	case "mem://flaky": // every other attempt fails: retries that land
		if b.tries[to]%2 == 0 {
			return errConnRefused
		}
	case "mem://rejects": // refused for good: a dropped message
		return soap.NewFault(soap.CodeSender, "rejected")
	}
	b.landed = append(b.landed, [2][]byte{data, bytes.Clone(data)})
	return nil
}

// TestPlaneRecycledItemsKeepTheirBytes sends from four goroutines to a peer
// that lands everything, one whose breaker opens, one that fails every other
// attempt and one that refuses everything, through queues of two, on a real
// clock with millisecond backoffs — every way an item settles, concurrently,
// which -race checks. A sender scribbles over every buffer a send hands back
// with an error, which the plane must not then hold; no binding may see a
// buffer its sender took back, no message may land twice, every message the
// first peer's plane accepted must land, and every landed buffer must still
// hold, once the queues have drained, the bytes it arrived with.
func TestPlaneRecycledItemsKeepTheirBytes(t *testing.T) {
	bind := &keepBinding{tries: make(map[string]int)}
	p := NewPlane(Config{
		Caller: bind, Clock: clock.NewReal(),
		QueueCap: 2, MaxAttempts: 3, AttemptTimeout: time.Second,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 3 * time.Millisecond,
	})
	peers := []string{"mem://ok", "mem://down", "mem://flaky", "mem://rejects"}
	var accepted sync.Map // the messages for mem://ok the plane took on
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				to := peers[(g+i)%len(peers)]
				data := []byte(fmt.Sprintf("<m g=%d i=%d to=%s/>", g, i, to))
				msg := string(data)
				if err := p.SendEncoded(context.Background(), to, data); err != nil {
					copy(data, bytes.Repeat([]byte("X"), len(data)))
				} else if to == "mem://ok" {
					accepted.Store(msg, true)
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for st := p.Stats(); st.Queued > 0 || st.Inflight > 0; st = p.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("queues did not drain: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	p.Close()

	bind.mu.Lock()
	defer bind.mu.Unlock()
	if len(bind.bad) > 0 {
		t.Fatalf("the binding was handed %d buffers their senders took back, e.g. %q", len(bind.bad), bind.bad[0])
	}
	if len(bind.landed) == 0 || bind.tries["mem://down"] == 0 || bind.tries["mem://rejects"] == 0 {
		t.Fatalf("landed %d, tries %v", len(bind.landed), bind.tries)
	}
	seen := make(map[string]bool)
	for _, l := range bind.landed {
		if !bytes.Equal(l[0], l[1]) {
			t.Fatalf("a landed buffer changed: %q, arrived as %q", l[0], l[1])
		}
		if seen[string(l[1])] {
			t.Fatalf("%q landed twice", l[1])
		}
		seen[string(l[1])] = true
	}
	accepted.Range(func(msg, _ any) bool {
		if !seen[msg.(string)] {
			t.Errorf("%q was accepted for mem://ok and never landed", msg)
		}
		return true
	})
}
