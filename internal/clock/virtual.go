package clock

import (
	"container/heap"
	"runtime"
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
// Scheduling (Now, AfterFunc, After, NewTicker) is safe from any goroutine,
// including from inside firing callbacks. Driving (Advance, RunUntil, Step,
// Run, Barrier) is serialized internally; callbacks must not drive the clock
// re-entrantly — that would deadlock, and a round firing mid-round is not a
// meaningful timeline anyway.
//
// Internally the event queue is sharded: timers land in one of timerShards
// independent heaps and the driver merges the shard heads at every pop, so
// scheduling from many goroutines contends on 1/timerShards of the queue
// while the firing order stays the exact global (deadline, seq) sequence a
// single heap would produce. Fired and cancelled timers are recycled through
// per-shard free lists, so steady-state timer churn (a core.Runner
// rescheduling every round for a million nodes) does not allocate. Cancelled
// timers keep their heap slot until popped or until a shard's dead fraction
// exceeds half, at which point the shard compacts — Pending stays bounded
// under cancel/reschedule churn (adaptive pacing's Wake storms).
type Virtual struct {
	runMu sync.Mutex // serializes drivers

	now    atomic.Int64 // current virtual time, as time.Duration
	seq    atomic.Int64 // global schedule order; ties on deadline break by seq
	rr     atomic.Uint32
	shards [timerShards]timerShard

	workers int // same-deadline batch parallelism; <=1 is strictly sequential
	batch   batchState
}

var _ Clock = (*Virtual)(nil)

// timerShards is the number of independent timer heaps. A power of two so
// round-robin placement is a mask. 16 keeps the per-pop head merge cheap
// while cutting scheduling contention and per-heap sift depth.
const timerShards = 16

// freeListCap bounds each shard's recycled-timer free list so a transient
// million-timer spike does not pin its arena forever.
const freeListCap = 4096

// compactMinLen is the minimum shard heap length before lazy compaction is
// considered; below it dead entries are cheaper to pop than to filter.
const compactMinLen = 64

// timer is one scheduled event. A cancelled timer keeps its heap slot
// with ev nil and is skipped when popped; shards compact lazily when dead
// entries dominate. Timers are recycled: gen is bumped on every recycle so
// stale stop functions from a previous life cannot cancel the current one.
// A timer is bound to one shard for all its lives — the stop function locks
// that shard to synchronize with pops, pushes, and compaction.
type timer struct {
	at     time.Duration
	seq    int64
	ev     event
	shard  int32
	gen    uint32
	inHeap bool
}

// event is what a timer fires. AfterFunc wraps its callback in a funcEvent;
// Schedule takes the caller's record as it is. Neither conversion allocates.
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

// timerShard is one slice of the event queue. The shard publishes its head's
// (deadline, seq) key so the driver's merge scan takes no shard lock per pop.
// It publishes the key, not the head timer: a cancelled head can be compacted
// away and recycled by a concurrent AfterFunc, which rewrites its fields under
// the lock, so the scan must never read a timer's fields. The key is a
// seqlock — ver is odd while a store is in progress — so the scan never mixes
// the deadline of one head with the seq of another.
type timerShard struct {
	mu      sync.Mutex
	h       timerHeap
	dead    int // cancelled entries still occupying heap slots
	ver     atomic.Uint32
	headAt  atomic.Int64
	headSeq atomic.Int64 // 0 when the heap is empty (seqs start at 1)
	free    []*timer
}

// storeHeadLocked republishes the head key after any heap mutation. A seq
// names one life of one timer, so an unchanged seq is an unchanged key.
func (s *timerShard) storeHeadLocked() {
	var at, seq int64
	if len(s.h) > 0 {
		at, seq = int64(s.h[0].at), s.h[0].seq
	}
	if seq == s.headSeq.Load() {
		return
	}
	s.ver.Add(1)
	s.headAt.Store(at)
	s.headSeq.Store(seq)
	s.ver.Add(1)
}

// headKeyLocked is the key as the heap has it, for a reader that overlapped
// a store (see minHead).
func (s *timerShard) headKeyLocked() (time.Duration, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.h) == 0 {
		return 0, 0
	}
	return s.h[0].at, s.h[0].seq
}

// recycleLocked retires a timer that left the heap (fired, discarded, or
// compacted away). The generation bump invalidates outstanding stop funcs.
func (s *timerShard) recycleLocked(t *timer) {
	t.gen++
	t.ev = nil
	t.inHeap = false
	if len(s.free) < freeListCap {
		s.free = append(s.free, t)
	}
}

// maybeCompactLocked rebuilds the shard heap without its dead entries once
// they outnumber the live ones and the heap is big enough to matter. This is
// what bounds Pending under cancel-heavy workloads: a shard is never more
// than half garbage (above compactMinLen).
func (s *timerShard) maybeCompactLocked() {
	if len(s.h) < compactMinLen || s.dead*2 <= len(s.h) {
		return
	}
	live := s.h[:0]
	for _, t := range s.h {
		if t.ev != nil {
			live = append(live, t)
		} else {
			s.recycleLocked(t)
		}
	}
	// Zero the tail so evicted slots do not pin recycled timers.
	for i := len(live); i < len(s.h); i++ {
		s.h[i] = nil
	}
	s.h = live
	s.dead = 0
	heap.Init(&s.h)
	s.storeHeadLocked()
}

// NewVirtual returns a virtual clock at time zero with no timers.
func NewVirtual() *Virtual {
	return &Virtual{}
}

// SetWorkers sets the bounded worker pool size for firing same-deadline
// timer batches; n <= 1 (the default) fires every callback sequentially on
// the driving goroutine. With n > 1, when two or more due timers share the
// exact same deadline their callbacks run concurrently on up to n
// goroutines. Determinism contract: such callbacks must be mutually
// independent — they may not interact through shared state in an
// order-dependent way — and in exchange every timer they schedule is
// sequenced exactly as if the batch had run sequentially in (deadline, seq)
// order, so the global firing order is identical to the sequential clock's.
// Call before driving; switching while an Advance is in flight is not
// supported.
func (v *Virtual) SetWorkers(n int) {
	v.runMu.Lock()
	defer v.runMu.Unlock()
	v.workers = n
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Duration {
	return time.Duration(v.now.Load())
}

// newTimer draws a timer from the chosen shard's free list (or allocates
// one) and arms it. The timer is not yet in the shard heap and has no seq.
// The returned gen is read under the shard lock and identifies this life of
// the struct; it must be captured before the timer becomes poppable.
func (v *Virtual) newTimer(d time.Duration, ev event) (*timer, uint32) {
	if d < 0 {
		d = 0
	}
	at := v.Now() + d
	idx := int32(v.rr.Add(1) & (timerShards - 1))
	s := &v.shards[idx]
	s.mu.Lock()
	var t *timer
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		t = &timer{shard: idx}
	}
	t.at = at
	t.ev = ev
	t.inHeap = false
	gen := t.gen
	s.mu.Unlock()
	return t, gen
}

// push assigns the next global seq and inserts the timer into its shard. A
// timer cancelled before the push (batch-deferred scheduling) still takes
// its heap slot as a dead entry, exactly as a post-push cancel would.
func (v *Virtual) push(t *timer) {
	t.seq = v.seq.Add(1)
	s := &v.shards[t.shard]
	s.mu.Lock()
	t.inHeap = true
	if t.ev == nil {
		s.dead++
	}
	heap.Push(&s.h, t)
	s.storeHeadLocked()
	s.mu.Unlock()
}

// stopFunc builds the cancellation closure for generation gen of t.
func (v *Virtual) stopFunc(t *timer, gen uint32) func() bool {
	s := &v.shards[t.shard]
	return func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if t.gen != gen || t.ev == nil {
			return false
		}
		t.ev = nil
		if t.inHeap {
			s.dead++
			s.maybeCompactLocked()
		}
		return true
	}
}

// AfterFunc schedules fn at now+d (d < 0 counts as 0). fn runs inside a
// future Advance/RunUntil/Step call.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) func() bool {
	t, gen := v.newTimer(d, funcEvent(fn))
	stop := v.stopFunc(t, gen)
	v.enqueue(t)
	return stop
}

// Schedule is the fire-and-forget AfterFunc: ev.Fire runs at now+d, in the
// same (deadline, schedule order) sequence as every other timer — a Schedule
// and an AfterFunc in the same place take the same seq — but the caller gets
// no stop handle, so the only allocation is whatever ev already is. A fabric
// scheduling one delivery per message passes a pointer to its delivery record.
func (v *Virtual) Schedule(d time.Duration, ev interface{ Fire() }) {
	t, _ := v.newTimer(d, ev)
	v.enqueue(t)
}

// enqueue makes an armed timer poppable: at once, or — scheduled from inside
// a parallel same-deadline batch — deferred into the calling worker's slot
// buffer; the driver flushes buffers in slot order after the batch joins,
// assigning seqs exactly as a sequential run of the batch would have.
func (v *Virtual) enqueue(t *timer) {
	if v.batch.active.Load() {
		if ref := v.batch.slotOf(goid()); ref != nil {
			*ref.cur = append(*ref.cur, t)
			return
		}
	}
	v.push(t)
}

// After returns a channel receiving the virtual fire time once, d from now.
func (v *Virtual) After(d time.Duration) <-chan time.Duration {
	ch := make(chan time.Duration, 1)
	v.AfterFunc(d, func() { ch <- v.Now() })
	return ch
}

// NewTicker returns a virtual ticker firing every d. Ticks are delivered
// during Advance through a capacity-1 channel; if the receiver has not
// drained the previous tick, the new one is dropped (time.Ticker semantics).
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	vt := &virtualTicker{v: v, period: d, c: make(chan time.Duration, 1)}
	vt.mu.Lock()
	vt.cancel = v.AfterFunc(d, vt.fire)
	vt.mu.Unlock()
	return vt
}

type virtualTicker struct {
	v      *Virtual
	period time.Duration
	c      chan time.Duration

	mu      sync.Mutex
	cancel  func() bool
	stopped bool
}

func (vt *virtualTicker) fire() {
	vt.mu.Lock()
	if vt.stopped {
		vt.mu.Unlock()
		return
	}
	vt.cancel = vt.v.AfterFunc(vt.period, vt.fire)
	vt.mu.Unlock()
	select {
	case vt.c <- vt.v.Now():
	default:
	}
}

func (vt *virtualTicker) C() <-chan time.Duration { return vt.c }

func (vt *virtualTicker) Stop() {
	vt.mu.Lock()
	defer vt.mu.Unlock()
	vt.stopped = true
	if vt.cancel != nil {
		vt.cancel()
		vt.cancel = nil
	}
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
		if v.workers > 1 {
			// Collect the rest of the deadline cohort; if the cohort has two
			// or more members it runs on the worker pool.
			if batch := v.popDeadlineCohort(ev); len(batch) > 1 {
				v.runBatch(batch)
				continue
			}
		}
		ev.Fire()
	}
}

// popDeadlineCohort pops every already-queued live timer sharing the current
// deadline (the one the just-popped first event fired at) and returns the
// full batch, first event included, in (deadline, seq) order. Timers the
// batch itself schedules at this same deadline are not part of the cohort:
// they get later seqs, exactly as in a sequential run, and fire in the next
// iteration.
func (v *Virtual) popDeadlineCohort(first event) []event {
	at := v.Now()
	batch := []event{first}
	for {
		ev := v.popAt(at)
		if ev == nil {
			return batch
		}
		batch = append(batch, ev)
	}
}

// popDue pops the next live timer with deadline <= t, advances now to its
// deadline and returns its event. When none remains it advances now to t (if
// later and advance is set) and returns nil.
func (v *Virtual) popDue(t time.Duration, advance bool) event {
	for {
		idx, at, seq := v.minHead()
		if idx < 0 || at > t {
			if advance && v.Now() < t {
				v.now.Store(int64(t))
			}
			return nil
		}
		ev := v.popVerified(idx, at, seq)
		if ev == nil {
			continue // head moved or was a dead entry; rescan
		}
		v.now.Store(int64(at))
		return ev
	}
}

// popAt pops the next live timer with deadline exactly at; it never moves
// the clock (the caller is already at that deadline).
func (v *Virtual) popAt(at time.Duration) event {
	for {
		idx, headAt, seq := v.minHead()
		if idx < 0 || headAt != at {
			return nil
		}
		if ev := v.popVerified(idx, at, seq); ev != nil {
			return ev
		}
	}
}

// minHead merges the published shard head keys and returns the shard holding
// the global minimum by (deadline, seq), dead entries included — they are
// discarded at pop — or -1 when every shard is empty. A key read that
// overlaps a store takes the shard lock instead of spinning. Since only the
// driver pops, every key a shard publishes while the driver scans is at or
// before its earliest live timer — pushes move the head earlier, compaction
// only drops dead entries ahead of the live ones — so a "nothing due" or a
// minimum concluded from these keys holds for every timer already queued.
func (v *Virtual) minHead() (idx int, at time.Duration, seq int64) {
	idx = -1
	for i := range v.shards {
		s := &v.shards[i]
		ver := s.ver.Load()
		hAt, hSeq := time.Duration(s.headAt.Load()), s.headSeq.Load()
		if ver&1 != 0 || s.ver.Load() != ver {
			hAt, hSeq = s.headKeyLocked()
		}
		if hSeq == 0 {
			continue
		}
		if idx < 0 || hAt < at || (hAt == at && hSeq < seq) {
			idx, at, seq = i, hAt, hSeq
		}
	}
	return idx, at, seq
}

// popVerified pops shard idx's head if its key is still (at, seq) — the key
// the scan chose — and returns its event. The event is nil when the head
// changed under the scan (rescan) or the entry was dead (discarded; rescan).
// The check is made under the shard lock, where the head's fields are stable.
func (v *Virtual) popVerified(idx int, at time.Duration, seq int64) event {
	s := &v.shards[idx]
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.h) == 0 || s.h[0].at != at || s.h[0].seq != seq {
		return nil
	}
	t := heap.Pop(&s.h).(*timer)
	s.storeHeadLocked()
	ev := t.ev
	if ev == nil {
		s.dead--
	}
	s.recycleLocked(t)
	return ev
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
// on the clock — a Ticker, a core.Runner loop — it never returns; drive
// those timelines with Advance/RunUntil instead.
func (v *Virtual) Run() {
	for v.Step() {
	}
}

// Pending reports the number of scheduled timer slots across all shards,
// including cancelled ones not yet discarded or compacted away. Lazy
// compaction keeps the dead share of any large shard below half, so Pending
// stays within a small constant factor of the live timer count.
func (v *Virtual) Pending() int {
	n := 0
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.Lock()
		n += len(s.h)
		s.mu.Unlock()
	}
	return n
}

// batchState routes AfterFunc calls made from inside a parallel
// same-deadline batch to the calling worker's slot buffer, keyed by
// goroutine id. Only consulted while a batch is active.
type batchState struct {
	active atomic.Bool
	mu     sync.Mutex
	slots  map[uint64]*slotRef
}

// slotRef is one worker's view of where deferred timers go; cur is repointed
// by the worker between slots and read only from that worker's goroutine.
type slotRef struct {
	cur *[]*timer
}

func (b *batchState) slotOf(id uint64) *slotRef {
	b.mu.Lock()
	ref := b.slots[id]
	b.mu.Unlock()
	return ref
}

// runBatch fires a same-deadline cohort on the bounded worker pool. Slot i
// of deferred collects the timers callback i scheduled; after the join they
// are flushed in slot order, reproducing the seq assignment of a sequential
// run. Workers register their goroutine id so AfterFunc can find the active
// slot buffer; scheduling from non-worker goroutines during the batch takes
// the immediate path, exactly as it would have raced a sequential callback.
func (v *Virtual) runBatch(batch []event) {
	deferred := make([][]*timer, len(batch))
	v.batch.mu.Lock()
	v.batch.slots = make(map[uint64]*slotRef, v.workers)
	v.batch.mu.Unlock()
	v.batch.active.Store(true)

	w := v.workers
	if w > len(batch) {
		w = len(batch)
	}
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			ref := &slotRef{}
			id := goid()
			v.batch.mu.Lock()
			v.batch.slots[id] = ref
			v.batch.mu.Unlock()
			for slot := wk; slot < len(batch); slot += w {
				ref.cur = &deferred[slot]
				batch[slot].Fire()
			}
			v.batch.mu.Lock()
			delete(v.batch.slots, id)
			v.batch.mu.Unlock()
		}(wk)
	}
	wg.Wait()
	v.batch.active.Store(false)
	for _, buf := range deferred {
		for _, t := range buf {
			v.push(t)
		}
	}
}

// goid returns the current goroutine's id, parsed from the runtime stack
// header. Only used to route scheduling inside parallel batches; the
// sequential clock never calls it.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	// Header: "goroutine <id> [...".
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}
