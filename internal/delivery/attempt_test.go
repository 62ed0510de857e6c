package delivery

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
)

// ctxBinding is a synchronous Caller that hands every attempt's context to a
// test-supplied function and returns its error. It records the contexts it
// was given, in attempt order.
type ctxBinding struct {
	mu   sync.Mutex
	ctxs []context.Context
	fn   func(ctx context.Context) error
}

func (b *ctxBinding) run(ctx context.Context) error {
	b.mu.Lock()
	b.ctxs = append(b.ctxs, ctx)
	b.mu.Unlock()
	if b.fn == nil {
		return nil
	}
	return b.fn(ctx)
}

func (b *ctxBinding) Send(ctx context.Context, _ string, _ *soap.Envelope) error { return b.run(ctx) }

func (b *ctxBinding) SendEncoded(ctx context.Context, _ string, _ []byte) error { return b.run(ctx) }

func (b *ctxBinding) Call(ctx context.Context, _ string, _ *soap.Envelope) (*soap.Envelope, error) {
	return nil, b.run(ctx)
}

func (b *ctxBinding) contexts() []context.Context {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]context.Context(nil), b.ctxs...)
}

// blockOnDone is a binding body that takes Done, signals entered, and waits.
func blockOnDone(entered chan<- struct{}) func(context.Context) error {
	return func(ctx context.Context) error {
		done := ctx.Done()
		close(entered)
		<-done
		return ctx.Err()
	}
}

// attemptOp is one way into the plane's attempt path: a one-way SendEncoded
// or a request-response Call.
type attemptOp struct {
	name string
	do   func(p *Plane, ctx context.Context) error
}

var attemptOps = []attemptOp{
	{"SendEncoded", func(p *Plane, ctx context.Context) error {
		return p.SendEncoded(ctx, "urn:peer", []byte("<x/>"))
	}},
	{"Call", func(p *Plane, ctx context.Context) error {
		_, err := p.Call(ctx, "urn:peer", soap.NewEnvelope())
		return err
	}},
}

// TestAttemptTimeoutVirtual: a binding blocked on Done under clock.Virtual
// is released exactly when AttemptTimeout has elapsed, and the plane counts
// a transport failure.
func TestAttemptTimeoutVirtual(t *testing.T) {
	for _, op := range attemptOps {
		t.Run(op.name, func(t *testing.T) {
			clk := clock.NewVirtual()
			reg := metrics.NewRegistry()
			entered := make(chan struct{})
			bind := &ctxBinding{fn: blockOnDone(entered)}
			p := NewPlane(testConfig(bind, clk, reg))
			defer p.Close()

			res := make(chan error, 1)
			go func() { res <- op.do(p, context.Background()) }()
			<-entered
			clk.Advance(time.Second - time.Nanosecond)
			select {
			case err := <-res:
				t.Fatalf("released before the timeout (err %v)", err)
			default:
			}
			if err := bind.contexts()[0].Err(); err != nil {
				t.Fatalf("Err before the timeout = %v", err)
			}
			clk.Advance(time.Nanosecond)
			err := <-res
			if op.name == "Call" && !errors.Is(err, context.Canceled) {
				t.Fatalf("Call = %v, want context.Canceled", err)
			}
			if op.name == "SendEncoded" && err != nil {
				t.Fatalf("SendEncoded = %v, want nil (the plane keeps the retry)", err)
			}
			if got := counterValue(reg, "delivery_attempt_failures_total", "kind", "transport"); got != 1 {
				t.Fatalf("transport failures = %d, want 1", got)
			}
		})
	}
}

// TestAttemptErrWithoutDone: a binding that polls Err and never asks for
// Done still sees the timeout, exactly when AttemptTimeout has elapsed on the
// plane's clock.
func TestAttemptErrWithoutDone(t *testing.T) {
	for _, op := range attemptOps {
		t.Run(op.name, func(t *testing.T) {
			clk := clock.NewVirtual()
			entered, poll, errs := make(chan struct{}), make(chan struct{}), make(chan error)
			bind := &ctxBinding{fn: func(ctx context.Context) error {
				close(entered)
				for range poll {
					errs <- ctx.Err()
				}
				return nil
			}}
			cfg := testConfig(bind, clk, nil)
			cfg.MaxAttempts = 1
			p := NewPlane(cfg)
			defer p.Close()

			res := make(chan error, 1)
			go func() { res <- op.do(p, context.Background()) }()
			<-entered
			clk.Advance(time.Second - time.Nanosecond)
			poll <- struct{}{}
			if err := <-errs; err != nil {
				t.Fatalf("Err before the timeout = %v", err)
			}
			clk.Advance(time.Nanosecond)
			poll <- struct{}{}
			if err := <-errs; !errors.Is(err, context.Canceled) {
				t.Fatalf("Err at the timeout = %v, want context.Canceled", err)
			}
			close(poll)
			<-res
		})
	}
}

// TestAttemptTimeoutReal: the same release on clock.Real with a short
// timeout.
func TestAttemptTimeoutReal(t *testing.T) {
	const timeout = 20 * time.Millisecond
	for _, op := range attemptOps {
		t.Run(op.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			bind := &ctxBinding{fn: blockOnDone(make(chan struct{}))}
			cfg := testConfig(bind, clock.NewReal(), reg)
			cfg.AttemptTimeout = timeout
			cfg.MaxAttempts = 1
			p := NewPlane(cfg)
			defer p.Close()

			start := time.Now()
			err := op.do(p, context.Background())
			if elapsed := time.Since(start); elapsed < timeout {
				t.Fatalf("released after %v, before the %v timeout", elapsed, timeout)
			}
			want := ErrBudgetExhausted
			if op.name == "Call" {
				want = context.Canceled
			}
			if !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
			if got := counterValue(reg, "delivery_attempt_failures_total", "kind", "transport"); got != 1 {
				t.Fatalf("transport failures = %d, want 1", got)
			}
		})
	}
}

// TestAttemptParentCancel: the caller's context ending releases a blocked
// attempt with the caller's error — Canceled for a cancel, DeadlineExceeded
// for a deadline — long before the plane's own timeout.
func TestAttemptParentCancel(t *testing.T) {
	for _, op := range attemptOps {
		for _, tc := range []struct {
			name   string
			parent func() (context.Context, func())
			cancel bool // cancel the parent once the binding blocks
			want   error
		}{
			{"cancel", func() (context.Context, func()) { return context.WithCancel(context.Background()) }, true, context.Canceled},
			{"deadline", func() (context.Context, func()) {
				return context.WithTimeout(context.Background(), time.Millisecond)
			}, false, context.DeadlineExceeded},
		} {
			t.Run(op.name+"/"+tc.name, func(t *testing.T) {
				entered := make(chan struct{})
				var got error
				bind := &ctxBinding{fn: func(ctx context.Context) error {
					got = blockOnDone(entered)(ctx)
					return got
				}}
				cfg := testConfig(bind, clock.NewVirtual(), nil)
				cfg.MaxAttempts = 1
				p := NewPlane(cfg)
				defer p.Close()

				parent, cancel := tc.parent()
				defer cancel()
				res := make(chan error, 1)
				go func() { res <- op.do(p, parent) }()
				<-entered
				if tc.cancel {
					cancel()
				}
				<-res
				if !errors.Is(got, tc.want) {
					t.Fatalf("binding saw %v, want %v", got, tc.want)
				}
			})
		}
	}
}

// TestAttemptDoneAfterParentCancel: a Done asked for after the caller's
// context has ended is already closed, as a context.WithCancel child's is.
func TestAttemptDoneAfterParentCancel(t *testing.T) {
	for _, op := range attemptOps {
		t.Run(op.name, func(t *testing.T) {
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			var closed bool
			bind := &ctxBinding{fn: func(ctx context.Context) error {
				cancel()
				select {
				case <-ctx.Done():
					closed = true
				default:
				}
				return nil
			}}
			cfg := testConfig(bind, clock.NewVirtual(), nil)
			cfg.MaxAttempts = 1
			p := NewPlane(cfg)
			defer p.Close()
			_ = op.do(p, parent)
			if !closed {
				t.Fatal("Done was open after the caller's context ended")
			}
		})
	}
}

// TestAttemptChildCancelsWithIt: a context.WithCancel child of the attempt
// context, as net/http derives one per request, is cancelled by the time the
// attempt returns. The child registers with the attempt's cancelCtx; a
// goroutine watching a context type it does not know would close it late.
func TestAttemptChildCancelsWithIt(t *testing.T) {
	for _, op := range attemptOps {
		t.Run(op.name, func(t *testing.T) {
			var child context.Context
			var cancelChild context.CancelFunc
			bind := &ctxBinding{fn: func(ctx context.Context) error {
				child, cancelChild = context.WithCancel(ctx)
				return nil
			}}
			p := NewPlane(testConfig(bind, clock.NewVirtual(), nil))
			defer p.Close()
			if err := op.do(p, context.Background()); err != nil {
				t.Fatal(err)
			}
			defer cancelChild()
			select {
			case <-child.Done():
			default:
				t.Fatal("the child of a returned attempt is not cancelled")
			}
		})
	}
}

// TestAttemptContextAfterReturn: Err is nil while a synchronous attempt
// runs and context.Canceled once it has returned; a binding that keeps the
// context and asks for Done afterwards gets a closed channel, whichever it
// asks first. The first error sticks: the caller's deadline passing later
// does not replace it.
func TestAttemptContextAfterReturn(t *testing.T) {
	for _, op := range attemptOps {
		for _, doneFirst := range []bool{true, false} {
			name := op.name + "/ErrFirst"
			if doneFirst {
				name = op.name + "/DoneFirst"
			}
			t.Run(name, func(t *testing.T) {
				parent, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				var during error
				bind := &ctxBinding{fn: func(ctx context.Context) error {
					during = ctx.Err()
					return nil
				}}
				p := NewPlane(testConfig(bind, clock.NewVirtual(), nil))
				defer p.Close()
				if err := op.do(p, parent); err != nil {
					t.Fatal(err)
				}
				if during != nil {
					t.Fatalf("Err during the attempt = %v, want nil", during)
				}
				kept := bind.contexts()[0]
				checkErr := func(when string) {
					if err := kept.Err(); err != context.Canceled {
						t.Fatalf("Err %s = %v, want context.Canceled", when, err)
					}
				}
				checkDone := func() {
					select {
					case <-kept.Done():
					default:
						t.Fatal("Done after return is not closed")
					}
				}
				if doneFirst {
					checkDone()
				}
				checkErr("after return")
				<-parent.Done()
				checkErr("after the caller's deadline")
				checkDone()
			})
		}
	}
}

// TestAttemptRetryGetsFreshContext: a retry after an attempt that took Done
// gets a context of its own, and the first one stays cancelled.
func TestAttemptRetryGetsFreshContext(t *testing.T) {
	clk := clock.NewVirtual()
	var first <-chan struct{}
	bind := &ctxBinding{}
	bind.fn = func(ctx context.Context) error {
		if first == nil {
			first = ctx.Done()
			return errConnRefused
		}
		if err := ctx.Err(); err != nil {
			t.Errorf("retry's context already done: %v", err)
		}
		return nil
	}
	p := NewPlane(testConfig(bind, clk, nil))
	defer p.Close()
	if err := p.SendEncoded(context.Background(), "urn:peer", []byte("<x/>")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	ctxs := bind.contexts()
	if len(ctxs) != 2 {
		t.Fatalf("%d attempts, want 2", len(ctxs))
	}
	if ctxs[0] == ctxs[1] {
		t.Fatal("the retry reused the first attempt's context")
	}
	select {
	case <-first:
	default:
		t.Fatal("first attempt's Done is not closed")
	}
	if err := ctxs[0].Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first attempt's Err = %v, want context.Canceled", err)
	}
}

type ctxKey struct{}

// TestAttemptValuePassesThrough: Value and Deadline are the caller's.
func TestAttemptValuePassesThrough(t *testing.T) {
	deadline := time.Now().Add(time.Hour)
	parent, cancel := context.WithDeadline(context.WithValue(context.Background(), ctxKey{}, "v"), deadline)
	defer cancel()
	var value any
	var got time.Time
	var ok bool
	bind := &ctxBinding{fn: func(ctx context.Context) error {
		value = ctx.Value(ctxKey{})
		got, ok = ctx.Deadline()
		return nil
	}}
	p := NewPlane(testConfig(bind, clock.NewVirtual(), nil))
	defer p.Close()
	for _, op := range attemptOps {
		value, ok = nil, false
		if err := op.do(p, parent); err != nil {
			t.Fatal(err)
		}
		if value != "v" {
			t.Fatalf("%s: Value = %v, want v", op.name, value)
		}
		if !ok || !got.Equal(deadline) {
			t.Fatalf("%s: Deadline = %v, %v, want %v", op.name, got, ok, deadline)
		}
	}
}

// TestAttemptDoneRacesReturn: a binding that asks for Done on a second
// goroutine while the attempt returns sees the channel close either way;
// run under -race.
func TestAttemptDoneRacesReturn(t *testing.T) {
	var wg sync.WaitGroup
	bind := &ctxBinding{fn: func(ctx context.Context) error {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ctx.Done()
			if ctx.Err() == nil {
				t.Error("Done closed with a nil Err")
			}
		}()
		return nil
	}}
	p := NewPlane(testConfig(bind, clock.NewReal(), nil))
	defer p.Close()
	for i := 0; i < 200; i++ {
		for _, op := range attemptOps {
			if err := op.do(p, context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
}

// TestAttemptDeadlineOnWallClock: on the wall clock an attempt's Deadline is
// the instant its AttemptTimeout elapses, unless the caller's is earlier;
// under clock.Virtual it stays the caller's (TestAttemptValuePassesThrough).
func TestAttemptDeadlineOnWallClock(t *testing.T) {
	var got time.Time
	var ok bool
	bind := &ctxBinding{fn: func(ctx context.Context) error {
		got, ok = ctx.Deadline()
		return nil
	}}
	p := NewPlane(testConfig(bind, clock.NewReal(), nil))
	defer p.Close()
	soon := time.Now().Add(500 * time.Millisecond) // before any attempt's AttemptTimeout (1 s) elapses
	early, cancel := context.WithDeadline(context.Background(), soon)
	defer cancel()
	for _, op := range attemptOps {
		ok = false
		before := time.Now()
		if err := op.do(p, context.Background()); err != nil {
			t.Fatal(err)
		}
		after := time.Now()
		if !ok || got.Before(before.Add(time.Second)) || got.After(after.Add(time.Second)) {
			t.Fatalf("%s: Deadline = %v, %v, want the attempt's, between %v and %v",
				op.name, got, ok, before.Add(time.Second), after.Add(time.Second))
		}
		ok = false
		if err := op.do(p, early); err != nil {
			t.Fatal(err)
		}
		if !ok || !got.Equal(soon) {
			t.Fatalf("%s: Deadline = %v, %v, want the caller's earlier %v", op.name, got, ok, soon)
		}
	}
}

// TestAttemptOverHTTPEndsAtAttemptTimeout: a plane on the wall clock over the
// HTTP binding, whose http.Client Timeout is far longer, cancels a stalled
// attempt once AttemptTimeout has elapsed.
func TestAttemptOverHTTPEndsAtAttemptTimeout(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
			w.WriteHeader(http.StatusAccepted)
		}
	}))
	defer srv.Close()
	client := soap.NewHTTPClient(&http.Client{Transport: srv.Client().Transport, Timeout: time.Minute})
	cfg := testConfig(client, clock.NewReal(), nil)
	cfg.AttemptTimeout = 150 * time.Millisecond
	p := NewPlane(cfg)
	defer p.Close()
	start := time.Now()
	_, err := p.Call(context.Background(), srv.URL, soap.NewEnvelope())
	took := time.Since(start)
	if err == nil {
		t.Fatal("a stalled Call succeeded")
	}
	if took < cfg.AttemptTimeout || took > 2*time.Second {
		t.Fatalf("the attempt ended after %v, want about %v (%v)", took, cfg.AttemptTimeout, err)
	}
}
