package clock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Virtual is a deterministic discrete-event Clock. Time does not pass on its
// own: a driver advances it with Advance/RunUntil/Step, and due timers fire
// inside that call, in (deadline, schedule order) sequence, on the driving
// goroutine.
//
// The barrier property: when Advance(d) (or RunUntil/Barrier) returns, every
// timer whose deadline fell inside the window has fired and its callback has
// run to completion — including timers those callbacks scheduled inside the
// window. Tests can therefore assert on protocol state immediately after
// advancing, with no sleeps and no races.
//
// Scheduling (Now, AfterFunc, Schedule) and cancelling are safe from any
// goroutine, including from inside firing callbacks. Driving (Advance,
// RunUntil, Step, Run, Barrier) is serialized internally; callbacks must not
// drive the clock re-entrantly — that would deadlock, and a round firing
// mid-round is not a meaningful timeline anyway.
//
// The event queue is one (deadline, seq) heap under one mutex. Fired and
// cancelled timers are recycled through a free list, so steady-state timer
// churn (a core.Runner rescheduling every round for a million nodes) reuses
// its timers; each AfterFunc still allocates its stop closure, and a timer
// drawn from an empty free list is a new one. Schedule takes an event that
// embeds a Slot and arms the timer inside it, so it allocates nothing.
// Cancelled timers keep their heap slot until popped or until they make up
// more than half the heap, at which point it compacts — Pending stays bounded
// under cancel/reschedule churn (adaptive pacing's Wake storms).
type Virtual struct {
	runMu sync.Mutex   // serializes drivers
	now   atomic.Int64 // current virtual time, as time.Duration; stored under mu

	mu   sync.Mutex
	seq  int64 // schedule order; ties on deadline break by seq
	h    timerHeap
	dead int // cancelled entries still occupying heap slots
	free []*timer
}

var _ Clock = (*Virtual)(nil)

// freeListCap bounds the recycled-timer free list so a transient
// million-timer spike does not pin its arena forever.
const freeListCap = 1 << 16

// compactMinLen is the minimum heap length before lazy compaction is
// considered; below it dead entries are cheaper to pop than to filter.
const compactMinLen = 64

// timer is one scheduled event. A cancelled timer keeps its heap slot with
// ev nil and is skipped when popped; the heap compacts lazily when dead
// entries dominate. Timers are recycled: gen is bumped on every recycle so
// stale stop functions from a previous life cannot cancel the current one. A
// timer inside a Slot (inSlot) belongs to its event and is never recycled.
type timer struct {
	at     time.Duration
	seq    int64
	ev     event
	gen    uint32
	inSlot bool
}

// Slot is the timer an event carries inside itself. An event type that embeds
// a Slot satisfies SlotEvent and is scheduled on that timer, not on one from
// the free list, so scheduling it allocates nothing and nothing is left on the
// free list once it has fired. Such an event must not be scheduled again
// before it has fired (Schedule panics), and a Slot is for events nobody
// cancels; AfterFunc keeps its own timers.
type Slot struct{ t timer }

func (s *Slot) slotTimer() *timer { return &s.t }

// SlotEvent is what Schedule fires: an event that embeds a Slot, passed by
// pointer. Only a Slot supplies slotTimer, so the compiler rejects any other.
type SlotEvent interface {
	Fire()
	slotTimer() *timer
}

// event is what a timer fires. AfterFunc wraps its callback in a funcEvent;
// Schedule takes the caller's SlotEvent as it is. Neither conversion allocates.
type event interface{ Fire() }

type funcEvent func()

func (f funcEvent) Fire() { f() }

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// NewVirtual returns a virtual clock at time zero with no timers.
func NewVirtual() *Virtual {
	return &Virtual{}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Duration {
	return time.Duration(v.now.Load())
}

// pushLocked arms t to fire ev at now+d (d < 0 counts as 0) with the next
// seq and pushes it onto the heap.
func (v *Virtual) pushLocked(t *timer, d time.Duration, ev event) {
	if d < 0 {
		d = 0
	}
	v.seq++
	t.at, t.seq, t.ev = v.Now()+d, v.seq, ev
	heap.Push(&v.h, t)
}

// recycleLocked retires a timer that left the heap (fired, discarded, or
// compacted away). The generation bump invalidates outstanding stop funcs. A
// Slot's timer goes back to its event, not to the free list.
func (v *Virtual) recycleLocked(t *timer) {
	t.gen++
	t.ev = nil
	if !t.inSlot && len(v.free) < freeListCap {
		v.free = append(v.free, t)
	}
}

// maybeCompactLocked rebuilds the heap without its dead entries once they
// outnumber the live ones and the heap is big enough to matter. This is what
// bounds Pending under cancel-heavy workloads: the heap is never more than
// half garbage (above compactMinLen).
func (v *Virtual) maybeCompactLocked() {
	if len(v.h) < compactMinLen || v.dead*2 <= len(v.h) {
		return
	}
	live := v.h[:0]
	for _, t := range v.h {
		if t.ev != nil {
			live = append(live, t)
		} else {
			v.recycleLocked(t)
		}
	}
	// Zero the tail so evicted slots do not pin recycled timers.
	clear(v.h[len(live):])
	v.h = live
	v.dead = 0
	heap.Init(&v.h)
}

// AfterFunc schedules fn at now+d (d < 0 counts as 0). fn runs inside a
// future Advance/RunUntil/Step call. Its timer comes from the free list, or
// is a new one when the list is empty.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) func() bool {
	v.mu.Lock()
	var t *timer
	if n := len(v.free); n > 0 {
		t = v.free[n-1]
		v.free[n-1] = nil
		v.free = v.free[:n-1]
	} else {
		t = &timer{}
	}
	v.pushLocked(t, d, funcEvent(fn))
	gen := t.gen
	v.mu.Unlock()
	return func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		if t.gen != gen || t.ev == nil {
			return false
		}
		t.ev = nil
		v.dead++
		v.maybeCompactLocked()
		return true
	}
}

// Schedule is the fire-and-forget AfterFunc: ev.Fire runs at now+d, in the
// same (deadline, schedule order) sequence as every other timer — a Schedule
// and an AfterFunc in the same place take the same seq — but the caller gets
// no stop handle. ev is armed on the timer in its Slot, so Schedule allocates
// nothing. A fabric scheduling one delivery per message passes a pointer to
// its delivery record, which embeds a Slot.
func (v *Virtual) Schedule(d time.Duration, ev SlotEvent) {
	t := ev.slotTimer()
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.ev != nil {
		panic("clock: Schedule of an event whose Slot is still pending")
	}
	t.inSlot = true
	v.pushLocked(t, d, ev)
}

// Advance moves the clock forward by d, firing every timer due in the
// window in deterministic order. The window's start is read after the
// driver lock is held, so concurrent Advance calls compose: two Advance(d)
// calls always move the clock 2d in total. See the type comment for the
// barrier guarantee.
func (v *Virtual) Advance(d time.Duration) {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	v.runUntilLocked(v.Now() + d)
}

// RunUntil fires every timer with deadline <= t (including timers scheduled
// by firing callbacks, while their deadlines stay <= t), then sets the clock
// to exactly t. A target in the past is a no-op barrier at the current time.
func (v *Virtual) RunUntil(t time.Duration) {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	v.runUntilLocked(t)
}

// runUntilLocked is RunUntil with runMu already held.
func (v *Virtual) runUntilLocked(t time.Duration) {
	for {
		ev := v.popDue(t, true)
		if ev == nil {
			return
		}
		ev.Fire()
	}
}

// popDue pops the next live timer with deadline <= t, advances now to its
// deadline and returns its event, discarding dead entries on the way. When
// none remains it advances now to t (if later and advance is set) and
// returns nil.
func (v *Virtual) popDue(t time.Duration, advance bool) event {
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.h) > 0 && v.h[0].at <= t {
		tm := heap.Pop(&v.h).(*timer)
		ev, at := tm.ev, tm.at
		v.recycleLocked(tm)
		if ev == nil {
			v.dead--
			continue
		}
		v.now.Store(int64(at))
		return ev
	}
	if advance && v.Now() < t {
		v.now.Store(int64(t))
	}
	return nil
}

// Barrier fires every timer already due at the current virtual time and
// returns when their callbacks have completed. Use it after delivering an
// external event that scheduled zero-delay work.
func (v *Virtual) Barrier() {
	v.RunUntil(v.Now())
}

// Step fires the single next pending timer regardless of its deadline,
// advancing the clock to it, and reports whether one existed.
func (v *Virtual) Step() bool {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	ev := v.popDue(1<<63-1, false)
	if ev == nil {
		return false
	}
	ev.Fire()
	return true
}

// Run fires pending timers until none remain. With self-rescheduling work
// on the clock — a core.Runner loop — it never returns; drive those
// timelines with Advance/RunUntil instead.
func (v *Virtual) Run() {
	for v.Step() {
	}
}

// Pending reports the number of scheduled timer slots, including cancelled
// ones not yet discarded or compacted away. Lazy compaction keeps the dead
// share of a large heap below half, so Pending ≤ 2·live + compactMinLen.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.h)
}
