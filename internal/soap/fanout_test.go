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

// capturedEnv is an envelope as the fallback decoder captures it from
// prefixed bytes, with a namespaced attribute: its blocks are spliced like
// any other.
func capturedEnv(t *testing.T) *Envelope {
	t.Helper()
	env, err := Decode([]byte(`<s:Envelope xmlns:s="` + Namespace + `" xmlns:a="` + wsa.Namespace + `" xmlns:p="urn:p"><s:Header>` +
		`<a:Action>urn:test</a:Action><p:Meta s:mustUnderstand="true">m</p:Meta></s:Header>` +
		`<s:Body><p:Item>payload</p:Item></s:Body></s:Envelope>`))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// fanoutEnvs are the envelopes Fanout renders from its template: one built,
// and one captured by the fallback decoder.
var fanoutEnvs = map[string]func(*testing.T) *Envelope{
	"encoded":  fanoutEnv,
	"captured": capturedEnv,
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

// TestDeclinedBlockIsAnError: a hand-built block the splice writer declines
// is an error on every send path — no path re-encodes it another way — and
// the fan-out paths count every target as failed without sending.
func TestDeclinedBlockIsAnError(t *testing.T) {
	ctx := context.Background()
	declined := Block{XMLName: xml.Name{Space: "urn:p", Local: "Meta"}, Raw: []byte(`<p:Meta xmlns:p="urn:p">m</p:Meta>`)}
	env := fanoutEnv(t)
	env.AddHeaderBlock(declined)
	if _, err := env.Encode(); !errors.Is(err, ErrNotSpliceable) {
		t.Errorf("Encode: %v, want ErrNotSpliceable", err)
	}
	if _, err := env.EncodeTemplate(); !errors.Is(err, ErrNotSpliceable) {
		t.Errorf("EncodeTemplate: %v, want ErrNotSpliceable", err)
	}
	m := Message{Action: "urn:test", Body: []Block{declined}}
	caller := &stubSender{}
	if err := m.Send(ctx, caller, "urn:a"); !errors.Is(err, ErrNotSpliceable) {
		t.Errorf("Message.Send: %v, want ErrNotSpliceable", err)
	}
	targets := []string{"urn:a", "urn:b"}
	rh := Rehead{Name: xml.Name{Space: "urn:g", Local: "G"}, Action: "urn:test"}
	for name, send := range map[string]func() (int, []string){
		"Fanout":         func() (int, []string) { return Fanout(ctx, caller, env, targets) },
		"Message.Fanout": func() (int, []string) { return m.Fanout(ctx, caller, targets) },
		"Forward":        func() (int, []string) { return Forward(ctx, caller, env, rh, []byte(`<G xmlns="urn:g"/>`), targets) },
	} {
		if sent, failed := send(); sent != 0 || !sameStrings(failed, targets) {
			t.Errorf("%s: sent %d, failed %v; want every target failed", name, sent, failed)
		}
	}
	if n := caller.attemptCount(); n != 0 {
		t.Fatalf("%d sends issued for a declined block", n)
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
