package clock

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtualStartsAtZero(t *testing.T) {
	v := NewVirtual()
	if v.Now() != 0 {
		t.Fatalf("new virtual clock at %v, want 0", v.Now())
	}
	v.Advance(3 * time.Second)
	if v.Now() != 3*time.Second {
		t.Fatalf("after Advance(3s) clock at %v", v.Now())
	}
}

func TestVirtualAfterFuncOrdering(t *testing.T) {
	v := NewVirtual()
	var order []string
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, "b") })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, "a") })
	// Equal deadlines fire in schedule order.
	v.AfterFunc(30*time.Millisecond, func() { order = append(order, "c1") })
	v.AfterFunc(30*time.Millisecond, func() { order = append(order, "c2") })
	v.Advance(time.Second)
	want := []string{"a", "b", "c1", "c2"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestVirtualTimerSeesFireTime(t *testing.T) {
	v := NewVirtual()
	var at time.Duration
	v.AfterFunc(10*time.Millisecond, func() { at = v.Now() })
	v.Advance(time.Minute)
	if at != 10*time.Millisecond {
		t.Fatalf("callback saw Now=%v, want 10ms", at)
	}
	if v.Now() != time.Minute {
		t.Fatalf("clock at %v after Advance(1m)", v.Now())
	}
}

func TestVirtualCancel(t *testing.T) {
	v := NewVirtual()
	fired := false
	stop := v.AfterFunc(10*time.Millisecond, func() { fired = true })
	if !stop() {
		t.Fatal("first cancel should succeed")
	}
	if stop() {
		t.Fatal("second cancel should report false")
	}
	v.Advance(time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestVirtualCascadeWithinWindow(t *testing.T) {
	// A callback schedules a follow-up inside the window: the follow-up
	// fires in the same Advance (the barrier guarantee).
	v := NewVirtual()
	var hops int
	var schedule func()
	schedule = func() {
		hops++
		if hops < 5 {
			v.AfterFunc(10*time.Millisecond, schedule)
		}
	}
	v.AfterFunc(10*time.Millisecond, schedule)
	v.Advance(100 * time.Millisecond)
	if hops != 5 {
		t.Fatalf("cascade ran %d hops in window, want 5", hops)
	}
}

func TestVirtualBarrier(t *testing.T) {
	v := NewVirtual()
	fired := false
	v.AfterFunc(0, func() { fired = true })
	if fired {
		t.Fatal("zero-delay timer fired at schedule time")
	}
	v.Barrier()
	if !fired {
		t.Fatal("Barrier did not fire due timer")
	}
	if v.Now() != 0 {
		t.Fatalf("Barrier moved the clock to %v", v.Now())
	}
}

func TestVirtualStepAndRun(t *testing.T) {
	v := NewVirtual()
	var n int
	v.AfterFunc(5*time.Millisecond, func() { n++ })
	v.AfterFunc(10*time.Millisecond, func() { n++ })
	if !v.Step() {
		t.Fatal("Step found no event")
	}
	if n != 1 || v.Now() != 5*time.Millisecond {
		t.Fatalf("after one Step: n=%d now=%v", n, v.Now())
	}
	v.Run()
	if n != 2 {
		t.Fatalf("Run left events: n=%d", n)
	}
	if v.Step() {
		t.Fatal("Step on drained clock reported an event")
	}
}

func TestVirtualConcurrentScheduling(t *testing.T) {
	// Scheduling from many goroutines while another drives must be
	// race-free (run under -race).
	v := NewVirtual()
	var fired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v.AfterFunc(time.Duration(i)*time.Millisecond, func() { fired.Add(1) })
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			v.Advance(time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	v.Advance(time.Second)
	if got := fired.Load(); got != 800 {
		t.Fatalf("fired %d timers, want 800", got)
	}
}

func TestRealClockSmoke(t *testing.T) {
	// NewReal's epoch is its construction time, so Now starts near zero
	// (NewWall's is the Unix epoch; see TestWallSharedEpochBase).
	if now := NewReal().Now(); now < 0 || now > time.Minute {
		t.Fatalf("new real clock at %v, want near 0", now)
	}
}

func TestWallClockMonotone(t *testing.T) {
	c := NewReal()
	a := c.Now()
	// Explicit synchronization, no sleep: wait for a short timer to fire.
	fired := make(chan struct{})
	c.AfterFunc(2*time.Millisecond, func() { close(fired) })
	<-fired
	b := c.Now()
	if b <= a {
		t.Fatalf("clock not advancing: %v then %v", a, b)
	}
}

func TestWallClockAfterFunc(t *testing.T) {
	c := NewReal()
	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestWallClockAfterFuncCancel(t *testing.T) {
	c := NewReal()
	var fired atomic.Bool
	stop := c.AfterFunc(10*time.Millisecond, func() { fired.Store(true) })
	if !stop() {
		t.Fatal("cancel failed")
	}
	// A sentinel timer scheduled after the cancelled one bounds the wait:
	// when it fires, the cancelled timer's slot has long passed.
	sentinel := make(chan struct{})
	c.AfterFunc(30*time.Millisecond, func() { close(sentinel) })
	<-sentinel
	if fired.Load() {
		t.Fatal("cancelled timer fired")
	}
}

func TestRealCancel(t *testing.T) {
	r := NewReal()
	var fired atomic.Bool
	stop := r.AfterFunc(time.Hour, func() { fired.Store(true) })
	if !stop() {
		t.Fatal("cancel failed")
	}
	if fired.Load() {
		t.Fatal("cancelled timer fired")
	}
}

func TestWallSharedEpochBase(t *testing.T) {
	// Two wall clocks constructed at different moments must report the
	// same offset: protocol state derived from Now()/window (continuous
	// aggregation epochs) has to resolve identically on every node.
	a := NewWall()
	time.Sleep(2 * time.Millisecond)
	b := NewWall()
	if diff := (a.Now() - b.Now()).Abs(); diff > time.Second {
		t.Fatalf("wall clocks disagree by %v; epoch must be shared, not construction time", diff)
	}
	now := a.Now()
	// Regression: a zero-value Real's year-1 epoch saturates Now at the
	// Duration maximum, turning every derived epoch index into garbage.
	if now >= math.MaxInt64/2 {
		t.Fatalf("wall Now %d is saturated", now)
	}
	if got, want := now, time.Since(time.Unix(0, 0)); (got - want).Abs() > time.Minute {
		t.Fatalf("wall Now %v is not anchored at the Unix epoch (want ~%v)", got, want)
	}
}
