package soap

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"sync"
	"testing"

	"wsgossip/internal/wsa"
)

// Fanout partial-failure and cancellation semantics: the failed list must
// be exact (every target errored or skipped, none double-counted), and a
// ctx cancelled mid-fanout must stop issuing new sends while still
// accounting for the targets never attempted.

// stubSender is a Caller that records every attempted target and fails the
// configured ones. Safe for concurrent Fanouts.
type stubSender struct {
	mu       sync.Mutex
	attempts []string
	fail     map[string]bool
	onSend   func(to string) // runs inside the send, before the verdict
}

func (s *stubSender) send(to string) error {
	if s.onSend != nil {
		s.onSend(to)
	}
	s.mu.Lock()
	s.attempts = append(s.attempts, to)
	failed := s.fail[to]
	s.mu.Unlock()
	if failed {
		return fmt.Errorf("stub: %s unreachable", to)
	}
	return nil
}

func (s *stubSender) attemptCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.attempts)
}

func (s *stubSender) Call(context.Context, string, *Envelope) (*Envelope, error) {
	return nil, errors.New("stub: call unsupported")
}

func (s *stubSender) Send(_ context.Context, to string, _ *Envelope) error {
	return s.send(to)
}

func (s *stubSender) SendEncoded(_ context.Context, to string, data []byte) error {
	if err := s.send(to); err != nil {
		return err // buffer stays with the caller, per the contract
	}
	putBytes(data)
	return nil
}

var _ Caller = (*stubSender)(nil)

func fanoutEnv(t *testing.T) *Envelope {
	t.Helper()
	env := NewEnvelope()
	// No To: Fanout splices the per-target address itself.
	if err := env.SetAddressing(wsa.Headers{Action: "urn:test", MessageID: wsa.NewMessageID()}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(testBody{Value: "payload"}); err != nil {
		t.Fatal(err)
	}
	return env
}

// declinedEnv is fanoutEnv with a prefixed header block, which the splice
// serializer declines: Fanout sends it per target through Send.
func declinedEnv(t *testing.T) *Envelope {
	t.Helper()
	env := fanoutEnv(t)
	env.AddHeaderBlock(Block{XMLName: xml.Name{Space: "urn:p", Local: "Meta"}, Raw: []byte(`<p:Meta xmlns:p="urn:p">m</p:Meta>`)})
	if _, ok := env.template(false); ok {
		t.Fatal("the prefixed block was spliced")
	}
	return env
}

// fanoutEnvs are Fanout's two paths: encoded, the template rendered per
// target and handed over as bytes, and plain, the per-target Snapshot a
// declined block sends through Send.
var fanoutEnvs = map[string]func(*testing.T) *Envelope{
	"encoded": fanoutEnv,
	"plain":   declinedEnv,
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFanoutPartialFailureExact(t *testing.T) {
	targets := []string{"urn:p1", "urn:p2", "urn:p3", "urn:p4", "urn:p5", "urn:p6"}
	for name, env := range fanoutEnvs {
		t.Run(name, func(t *testing.T) {
			caller := &stubSender{fail: map[string]bool{"urn:p2": true, "urn:p5": true}}
			sent, failed := Fanout(context.Background(), caller, env(t), targets)
			if sent != 4 {
				t.Fatalf("sent = %d, want 4", sent)
			}
			if !sameStrings(failed, []string{"urn:p2", "urn:p5"}) {
				t.Fatalf("failed = %v, want [urn:p2 urn:p5]", failed)
			}
		})
	}
}

func TestFanoutAllFail(t *testing.T) {
	targets := []string{"urn:a", "urn:b"}
	s := &stubSender{fail: map[string]bool{"urn:a": true, "urn:b": true}}
	sent, failed := Fanout(context.Background(), s, fanoutEnv(t), targets)
	if sent != 0 || !sameStrings(failed, targets) {
		t.Fatalf("sent = %d, failed = %v", sent, failed)
	}
}

func TestFanoutCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	targets := []string{"urn:a", "urn:b", "urn:c"}
	for name, env := range fanoutEnvs {
		t.Run(name, func(t *testing.T) {
			caller := &stubSender{}
			sent, failed := Fanout(ctx, caller, env(t), targets)
			if sent != 0 || !sameStrings(failed, targets) {
				t.Fatalf("sent = %d, failed = %v, want all targets failed", sent, failed)
			}
			if n := caller.attemptCount(); n != 0 {
				t.Fatalf("issued %d sends after cancellation", n)
			}
		})
	}
}

func TestFanoutCancelMidway(t *testing.T) {
	targets := []string{"urn:p1", "urn:p2", "urn:p3", "urn:p4", "urn:p5"}
	for name, env := range fanoutEnvs {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			caller := &stubSender{onSend: func(to string) {
				if to == "urn:p3" {
					cancel() // cancelled during the third send
				}
			}}
			sent, failed := Fanout(ctx, caller, env(t), targets)
			if sent != 3 {
				t.Fatalf("sent = %d, want 3 (p3's send completes, p4/p5 never start)", sent)
			}
			if !sameStrings(failed, []string{"urn:p4", "urn:p5"}) {
				t.Fatalf("failed = %v, want the never-attempted tail", failed)
			}
			if got := caller.attemptCount(); got != 3 {
				t.Fatalf("attempts = %d, want 3", got)
			}
			if sent+len(failed) != len(targets) {
				t.Fatalf("accounting leak: sent %d + failed %d != %d targets", sent, len(failed), len(targets))
			}
		})
	}
}

// TestFanoutConcurrentExactness runs many concurrent Fanouts over one
// shared caller with scattered per-target errors: each invocation's failed
// list must be exact regardless of interleaving (-race pins the data-race
// half of the claim).
func TestFanoutConcurrentExactness(t *testing.T) {
	caller := &stubSender{fail: map[string]bool{"urn:p1": true, "urn:p4": true}}
	targets := []string{"urn:p0", "urn:p1", "urn:p2", "urn:p3", "urn:p4"}
	env := fanoutEnv(t)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent, failed := Fanout(context.Background(), caller, env.Snapshot(), targets)
			if sent != 3 || !sameStrings(failed, []string{"urn:p1", "urn:p4"}) {
				errs <- fmt.Sprintf("sent = %d, failed = %v", sent, failed)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := caller.attemptCount(); got != 16*len(targets) {
		t.Fatalf("attempts = %d, want %d", got, 16*len(targets))
	}
}
