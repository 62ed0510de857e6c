package clock

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ---- single-heap reference implementation ----
//
// refClock is the ordering oracle: one mutex-guarded heap, (deadline, seq)
// order, cancelled timers keep their slot until popped, no recycling and no
// compaction. The property test checks that Virtual, which has both, fires
// any workload in the exact order this reference does.

type refTimer struct {
	at  time.Duration
	seq int64
	fn  func()
}

type refHeap []*refTimer

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refTimer)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

type refClock struct {
	mu    sync.Mutex
	now   time.Duration
	seq   int64
	queue refHeap
}

func (r *refClock) Now() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.now
}

func (r *refClock) AfterFunc(d time.Duration, fn func()) func() bool {
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	r.seq++
	t := &refTimer{at: r.now + d, seq: r.seq, fn: fn}
	heap.Push(&r.queue, t)
	r.mu.Unlock()
	return func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		if t.fn == nil {
			return false
		}
		t.fn = nil
		return true
	}
}

func (r *refClock) Advance(d time.Duration) {
	r.mu.Lock()
	target := r.now + d
	for {
		var fn func()
		for len(r.queue) > 0 {
			head := r.queue[0]
			if head.fn == nil {
				heap.Pop(&r.queue)
				continue
			}
			if head.at > target {
				break
			}
			heap.Pop(&r.queue)
			r.now = head.at
			fn = head.fn
			break
		}
		if fn == nil {
			if r.now < target {
				r.now = target
			}
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
		fn()
		r.mu.Lock()
	}
}

// schedClock is the common surface the property workload drives.
type schedClock interface {
	Now() time.Duration
	AfterFunc(time.Duration, func()) func() bool
}

// splitmix64 gives the workload per-decision determinism without sharing an
// ordered RNG stream between the two clock implementations.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runOrderWorkload drives a cascading, cancel-heavy workload on c and
// returns the observed firing log. Every decision (child count, delays,
// cancellations) is a pure function of the firing timer's id, so two clocks
// that fire in the same order perform the identical workload.
func runOrderWorkload(seed uint64, c schedClock, advance func(time.Duration)) []string {
	var (
		mu    sync.Mutex
		log   []string
		stops = map[uint64]func() bool{}
		next  uint64
	)
	var schedule func(parent uint64, d time.Duration)
	schedule = func(parent uint64, d time.Duration) {
		mu.Lock()
		id := next
		next++
		mu.Unlock()
		h := splitmix64(seed ^ splitmix64(id))
		stop := c.AfterFunc(d, func() {
			mu.Lock()
			log = append(log, fmt.Sprintf("%d@%d", id, c.Now()))
			mu.Unlock()
			if id < 4000 {
				for k := uint64(0); k < h%3; k++ {
					hk := splitmix64(h ^ k)
					schedule(id, time.Duration(hk%5000)*time.Microsecond)
				}
				// Zero-delay cascade at the current instant, sometimes.
				if h%7 == 0 {
					schedule(id, 0)
				}
			}
			// Cancel an earlier timer's stop, by id — same target both runs.
			if h%5 == 0 && id >= 8 {
				mu.Lock()
				victim := stops[splitmix64(h)%id]
				mu.Unlock()
				if victim != nil {
					victim()
				}
			}
		})
		mu.Lock()
		stops[id] = stop
		mu.Unlock()
	}
	for i := 0; i < 300; i++ {
		h := splitmix64(seed + uint64(i)*0x9e37)
		schedule(0, time.Duration(h%20000)*time.Microsecond)
	}
	for i := 0; i < 64; i++ {
		h := splitmix64(seed ^ (uint64(i) << 32))
		advance(time.Duration(h%2500) * time.Microsecond)
	}
	advance(time.Hour) // drain the rest
	return log
}

// TestShardedMatchesSingleHeapOrder is the ordering property test: with timer
// recycling and lazy compaction in play, Virtual must fire a cascading
// cancel-heavy workload in the exact (deadline, seq) order of the reference.
func TestShardedMatchesSingleHeapOrder(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ref := &refClock{}
		refLog := runOrderWorkload(seed, ref, ref.Advance)
		v := NewVirtual()
		gotLog := runOrderWorkload(seed, v, v.Advance)
		if len(refLog) != len(gotLog) {
			t.Fatalf("seed %d: fired %d timers, reference fired %d", seed, len(gotLog), len(refLog))
		}
		for i := range refLog {
			if refLog[i] != gotLog[i] {
				t.Fatalf("seed %d: firing %d diverges: virtual %q, reference %q", seed, i, gotLog[i], refLog[i])
			}
		}
		if len(refLog) < 300 {
			t.Fatalf("seed %d: workload degenerate, only %d firings", seed, len(refLog))
		}
	}
}

// TestPendingBoundedUnderCancelChurn is the heap-bloat regression test: a
// Wake-style cancel/reschedule storm must not accumulate dead heap slots.
// Before lazy compaction, 100k cancelled one-shots left Pending ~= 100k.
func TestPendingBoundedUnderCancelChurn(t *testing.T) {
	v := NewVirtual()
	const live = 100
	for i := 0; i < live; i++ {
		v.AfterFunc(time.Hour, func() {})
	}
	for i := 0; i < 100_000; i++ {
		stop := v.AfterFunc(time.Minute, func() { t.Error("cancelled timer fired") })
		if !stop() {
			t.Fatalf("iteration %d: stop reported already-stopped", i)
		}
	}
	// Compaction keeps dead <= len/2 once len >= compactMinLen, so the queue
	// is bounded by 2*live + compactMinLen.
	bound := 2*live + compactMinLen
	if got := v.Pending(); got > bound {
		t.Fatalf("Pending() = %d after cancel churn, want <= %d", got, bound)
	}
	v.Advance(2 * time.Hour)
	if got := v.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
}

// TestZeroDelayAtBarrierFiresSameAdvance pins the lost-wakeup audit: a
// callback firing at exactly the Advance barrier that schedules a zero-delay
// timer (deadline == barrier) must see it fire inside the same Advance.
func TestZeroDelayAtBarrierFiresSameAdvance(t *testing.T) {
	v := NewVirtual()
	depth := 0
	var cascade func()
	cascade = func() {
		depth++
		if depth < 5 {
			v.AfterFunc(0, cascade) // lands exactly on the barrier deadline
		}
	}
	v.AfterFunc(10*time.Millisecond, cascade)
	v.Advance(10 * time.Millisecond) // barrier == first deadline
	if depth != 5 {
		t.Fatalf("zero-delay chain at barrier: fired %d of 5 inside one Advance", depth)
	}
	if v.Pending() != 0 {
		t.Fatalf("Pending() = %d, timers stranded past the barrier", v.Pending())
	}
	if v.Now() != 10*time.Millisecond {
		t.Fatalf("Now() = %v, want 10ms", v.Now())
	}
}

// TestRunUntilZeroDelayAtTarget is the RunUntil half of the lost-wakeup pin.
func TestRunUntilZeroDelayAtTarget(t *testing.T) {
	v := NewVirtual()
	fired := false
	v.AfterFunc(7*time.Millisecond, func() {
		v.AfterFunc(0, func() { fired = true })
	})
	v.RunUntil(7 * time.Millisecond)
	if !fired {
		t.Fatal("zero-delay timer scheduled at the RunUntil target did not fire in the same call")
	}
}

// TestStopAfterRecycleIsInert pins the generation guard: once a timer fires
// and its struct is recycled for a new timer, the old stop function must not
// cancel the new incarnation.
func TestStopAfterRecycleIsInert(t *testing.T) {
	v := NewVirtual()
	stop := v.AfterFunc(time.Millisecond, func() {})
	v.Advance(time.Millisecond) // fires; struct returns to the free list
	fired := 0
	// The free list is LIFO, so the next schedule reuses the fired struct.
	const n = 4
	for i := 0; i < n; i++ {
		v.AfterFunc(time.Millisecond, func() { fired++ })
	}
	if stop() {
		t.Fatal("stale stop function reported stopping a recycled timer")
	}
	v.Advance(time.Millisecond)
	if fired != n {
		t.Fatalf("fired %d of %d timers: a stale stop cancelled a recycled one", fired, n)
	}
}

// TestAdvanceUnderConcurrentCompaction pins the driver's pops against timer
// recycling: goroutines schedule and cancel batches big enough to compact
// the heap many times over — recycling dead heads and rewriting their
// deadlines from the free list — while the driver schedules and advances.
// The driver must never read a head a canceller is rewriting (run with
// -race), and an Advance must never end early on a recycled far-future
// deadline: each due timer fires in the Advance that reaches it.
func TestAdvanceUnderConcurrentCompaction(t *testing.T) {
	const (
		cancellers = 2
		perBatch   = 16 * compactMinLen // crosses the compaction threshold repeatedly
		minBatches = 40                 // cancel batches the driver must overlap
	)
	v := NewVirtual()
	var done atomic.Bool
	var batches atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < cancellers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stops := make([]func() bool, 0, perBatch)
			for !done.Load() {
				for j := 0; j < perBatch; j++ {
					// Half land in front of the driver's due timers, half an
					// hour out: a recycled head can carry either deadline.
					d := time.Duration(j%3) * time.Millisecond
					if j%2 == 1 {
						d = time.Hour
					}
					stops = append(stops, v.AfterFunc(d, func() {}))
				}
				for _, stop := range stops {
					stop()
				}
				stops = stops[:0]
				batches.Add(1)
			}
		}()
	}
	rounds := 0
	fired := 0 // callbacks run on this goroutine, inside Advance
	for ; batches.Load() < minBatches && fired == rounds; rounds++ {
		d := time.Duration(rounds%3) * time.Millisecond
		v.AfterFunc(d, func() { fired++ })
		v.Advance(d)
	}
	done.Store(true)
	wg.Wait()
	if fired != rounds {
		t.Fatalf("an Advance ended before its due timer: %d of %d fired in time", fired, rounds)
	}
}

// slotOnly routes every timer of the order workload through the
// fire-and-forget path: each is an event that embeds a Slot, armed on its own
// timer. Schedule returns no stop handle, so cancellation is a flag the event
// checks when it fires: a cancelled timer still takes its (deadline, seq)
// slot, which is all the firing order of the others depends on.
type slotOnly struct{ v *Virtual }

// flaggedSlot is slotOnly's cancellable callback, carrying its timer.
type flaggedSlot struct {
	Slot
	live bool // touched only on the driving goroutine
	fn   func()
}

func (e *flaggedSlot) Fire() {
	if e.live {
		e.live = false
		e.fn()
	}
}

func (c slotOnly) Now() time.Duration { return c.v.Now() }

func (c slotOnly) AfterFunc(d time.Duration, fn func()) func() bool {
	ev := &flaggedSlot{live: true, fn: fn}
	c.v.Schedule(d, ev)
	return func() bool {
		was := ev.live
		ev.live = false
		return was
	}
}

// TestScheduleMatchesAfterFuncOrder: Schedule differs from AfterFunc only in
// returning no handle and in arming the timer the event carries. The
// cascading workload driven entirely through Schedule must fire in the
// reference's order.
func TestScheduleMatchesAfterFuncOrder(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		ref := &refClock{}
		refLog := runOrderWorkload(seed, ref, ref.Advance)
		v := NewVirtual()
		gotLog := runOrderWorkload(seed, slotOnly{v}, v.Advance)
		if len(refLog) != len(gotLog) {
			t.Fatalf("seed %d: fired %d timers, reference fired %d", seed, len(gotLog), len(refLog))
		}
		for i := range refLog {
			if refLog[i] != gotLog[i] {
				t.Fatalf("seed %d: firing %d diverges: scheduled %q, reference %q", seed, i, gotLog[i], refLog[i])
			}
		}
	}
}
