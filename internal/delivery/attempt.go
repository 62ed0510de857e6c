package delivery

import (
	"context"
	"sync"
	"time"

	"wsgossip/internal/clock"
)

// attemptCtx is the context one attempt hands its binding: the caller's
// context, cancelled as well once AttemptTimeout has elapsed on the plane's
// clock or the attempt has returned, and reporting that instant as its
// deadline when the clock is wall time. It arms nothing up front. A synchronous
// binding (MemBus, the virtual fabric) returns without asking for Done, and
// the attempt then costs no timer and no allocation of its own: the context
// is carved from a slab (newAttemptCtx). Until then Err works the timeout
// out from the clock.
//
// The first Done builds what every attempt used to build: a
// context.WithCancel child of the caller's context, and the AttemptTimeout
// timer (for the time still remaining) that cancels it. Value reads through
// that child, so a context.WithCancel made from this one — net/http makes
// one per request — registers with it as with any cancelCtx instead of
// starting a goroutine to watch a context type it does not know.
//
// A context is used for one attempt only — a binding may keep it past
// return — so a retry draws a fresh one.
type attemptCtx struct {
	parent   context.Context
	clock    clock.Clock
	deadline time.Duration // clock time at which AttemptTimeout has elapsed

	mu        sync.Mutex
	ended     bool            // the attempt has returned
	err       error           // the first non-nil Err, which sticks
	inner     context.Context // made by the first Done
	cancel    context.CancelFunc
	stopTimer func() bool // armed by the first Done: the AttemptTimeout timer
}

var _ context.Context = (*attemptCtx)(nil)

// ctxSlab is a run of attempt contexts allocated as one object, handed out
// one by one (newAttemptCtx).
type ctxSlab struct {
	ctxs [64]attemptCtx
	next int
}

// ctxSlabs holds the slabs with contexts left. A slab is taken out while one
// is handed out, so no two attempts share a context, and no context is ever
// handed out twice: a binding may hold one for good. A slab costs one
// allocation per 64 attempts, and is garbage once the pool has dropped it
// and no binding holds any of its contexts.
var ctxSlabs sync.Pool

// newAttemptCtx returns an unused attempt context.
func newAttemptCtx() *attemptCtx {
	s, _ := ctxSlabs.Get().(*ctxSlab)
	if s == nil {
		s = new(ctxSlab)
	}
	c := &s.ctxs[s.next]
	if s.next++; s.next < len(s.ctxs) {
		ctxSlabs.Put(s)
	}
	return c
}

// begin readies an unused context for an attempt starting now under p's
// policy, and returns that start time.
func (c *attemptCtx) begin(p *Plane, parent context.Context) time.Duration {
	start := p.cfg.Clock.Now()
	c.parent = orBackground(parent)
	c.clock = p.cfg.Clock
	c.deadline = start + p.cfg.AttemptTimeout
	return start
}

// wallClock is a clock whose time is wall time (clock.Real): Wall gives the
// instant at which Now reads d.
type wallClock interface {
	Wall(d time.Duration) time.Time
}

// Deadline is the earlier of the caller's and, when the plane's clock is
// wall time, the instant AttemptTimeout elapses: a binding that bounds its
// own requests (soap.HTTPClient) then adds no timer of its own. On any other
// clock (clock.Virtual) it is the caller's alone.
func (c *attemptCtx) Deadline() (time.Time, bool) {
	dl, ok := c.parent.Deadline()
	if w, wall := c.clock.(wallClock); wall {
		if at := w.Wall(c.deadline); !ok || at.Before(dl) {
			return at, true
		}
	}
	return dl, ok
}

// Value is the caller's, read through the cancelCtx once Done has made it.
func (c *attemptCtx) Value(key any) any {
	c.mu.Lock()
	inner := c.inner
	c.mu.Unlock()
	if inner != nil {
		return inner.Value(key)
	}
	return c.parent.Value(key)
}

// Done returns a channel closed when the attempt is cancelled. The first call
// makes the cancelCtx and arms the timeout timer, unless the attempt is over
// already.
func (c *attemptCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inner == nil {
		c.inner, c.cancel = context.WithCancel(c.parent)
		if remaining := c.deadline - c.clock.Now(); c.ended || c.err != nil || remaining <= 0 {
			c.cancel()
		} else {
			c.stopTimer = c.clock.AfterFunc(remaining, c.cancel)
		}
	}
	return c.inner.Done()
}

// Err returns the caller's error once its context is done; otherwise
// context.Canceled once the timeout has elapsed or the attempt has returned,
// and nil before. The first non-nil result sticks.
func (c *attemptCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	switch {
	case c.inner != nil:
		c.err = c.inner.Err()
	case c.parent.Err() != nil:
		c.err = c.parent.Err()
	case c.ended || c.clock.Now() >= c.deadline:
		c.err = context.Canceled
	}
	return c.err
}

// finish ends the attempt: the context is cancelled for good, and any timer
// is stopped.
func (c *attemptCtx) finish() {
	c.mu.Lock()
	c.ended = true
	cancel, stopTimer := c.cancel, c.stopTimer
	c.mu.Unlock()
	if stopTimer != nil {
		stopTimer()
	}
	if cancel != nil {
		cancel()
	}
}
