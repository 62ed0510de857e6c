package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
)

func countingLoop(name string, period, jitter time.Duration, fn func(context.Context)) Loop {
	return Loop{Name: name, Period: period, Jitter: jitter, Tick: fn}
}

func TestRunnerConfigValidation(t *testing.T) {
	if _, err := NewRunner(RunnerConfig{}); err == nil {
		t.Fatal("runner with no loops must be rejected")
	}
	if _, err := NewRunner(RunnerConfig{
		Loops: []Loop{countingLoop("x", 0, 0, func(context.Context) {})},
	}); err == nil {
		t.Fatal("non-positive period must be rejected")
	}
	if _, err := NewRunner(RunnerConfig{
		Loops: []Loop{countingLoop("x", time.Second, time.Second, func(context.Context) {})},
	}); err == nil {
		t.Fatal("jitter >= period must be rejected")
	}
	if _, err := NewRunner(RunnerConfig{
		Loops: []Loop{{Name: "x", Period: time.Second}},
	}); err == nil {
		t.Fatal("nil tick must be rejected")
	}
	if _, err := NewRunner(RunnerConfig{
		Loops: []Loop{countingLoop("x", time.Second, -time.Millisecond, func(context.Context) {})},
	}); err == nil {
		t.Fatal("negative jitter must be rejected")
	}
}

func TestRunnerLifecycle(t *testing.T) {
	v := clock.NewVirtual()
	rounds := 0
	r, err := NewRunner(RunnerConfig{
		Clock: v,
		Loops: []Loop{countingLoop("count", 10*time.Millisecond, 0, func(context.Context) { rounds++ })},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stop before start is a harmless no-op; the runner stays startable.
	r.Stop()
	if r.Running() {
		t.Fatal("runner running before start")
	}

	ctx := context.Background()
	if err := r.Start(ctx); err != nil {
		t.Fatalf("start: %v", err)
	}
	if !r.Running() {
		t.Fatal("runner not running after start")
	}
	if err := r.Start(ctx); err == nil {
		t.Fatal("double start must error")
	}

	v.Advance(105 * time.Millisecond)
	if rounds < 9 || rounds > 10 {
		t.Fatalf("rounds = %d after 105ms at 10ms period, want 9..10", rounds)
	}

	r.Stop()
	r.Stop() // idempotent
	if r.Running() {
		t.Fatal("runner running after stop")
	}
	got := rounds
	v.Advance(time.Second)
	if rounds != got {
		t.Fatalf("rounds advanced after stop: %d -> %d", got, rounds)
	}
	if err := r.Start(ctx); err == nil {
		t.Fatal("restart after stop must error")
	}
}

func TestRunnerContextCancellationMidRound(t *testing.T) {
	v := clock.NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	r, err := NewRunner(RunnerConfig{
		Clock: v,
		Loops: []Loop{countingLoop("count", 10*time.Millisecond, 0, func(context.Context) {
			rounds++
			if rounds == 3 {
				cancel() // cancelled from inside the round
			}
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	v.Advance(time.Second)
	if rounds != 3 {
		t.Fatalf("rounds = %d after mid-round cancellation, want exactly 3", rounds)
	}
	r.Stop() // waits out the watcher; safe after cancellation
}

func TestRunnerPreCancelledContext(t *testing.T) {
	v := clock.NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rounds := 0
	r, err := NewRunner(RunnerConfig{
		Clock: v,
		Loops: []Loop{countingLoop("count", 10*time.Millisecond, 0, func(context.Context) { rounds++ })},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(ctx); err != nil {
		t.Fatal(err)
	}
	v.Advance(time.Second)
	if rounds != 0 {
		t.Fatalf("rounds = %d under pre-cancelled context, want 0", rounds)
	}
	r.Stop()
}

// TestRunnerStopLeavesNoGoroutine: on the real clock, a runner shut down by
// Stop or by cancelling its Start context leaves no goroutine behind — its
// context watcher exits — and fires no round afterwards.
func TestRunnerStopLeavesNoGoroutine(t *testing.T) {
	for _, how := range []string{"Stop", "cancel"} {
		t.Run(how, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var rounds atomic.Int64
			r, err := NewRunner(RunnerConfig{
				Loops: []Loop{countingLoop("count", time.Millisecond, 0, func(context.Context) { rounds.Add(1) })},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if err := r.Start(ctx); err != nil {
				t.Fatal(err)
			}
			for i := 0; rounds.Load() < 3; i++ {
				if i == 1000 {
					t.Fatal("the runner never fired three rounds")
				}
				time.Sleep(time.Millisecond)
			}
			if how == "Stop" {
				r.Stop()
			} else {
				cancel()
			}
			for i := 0; r.Running() || runtime.NumGoroutine() > base; i++ {
				if i == 200 {
					t.Fatalf("running %v, %d goroutines after %s, %d before Start", r.Running(), runtime.NumGoroutine(), how, base)
				}
				time.Sleep(5 * time.Millisecond)
			}
			fired := rounds.Load()
			time.Sleep(20 * time.Millisecond) // twenty periods
			if got := rounds.Load(); got != fired {
				t.Fatalf("%d rounds fired after %s", got-fired, how)
			}
		})
	}
}

// TestRunnerJitterBounds is the property test for the schedule: every
// inter-round gap stays within Period ± Jitter, the initial phase within
// (0, Period], and two loops with private RNG streams desynchronize.
func TestRunnerJitterBounds(t *testing.T) {
	const (
		period = 100 * time.Millisecond
		jitter = 20 * time.Millisecond
		fires  = 300
	)
	v := clock.NewVirtual()
	var times []time.Duration
	r, err := NewRunner(RunnerConfig{
		Clock: v,
		RNG:   rand.New(rand.NewSource(42)),
		Loops: []Loop{countingLoop("jittered", period, jitter, func(context.Context) {
			times = append(times, v.Now())
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for len(times) < fires {
		v.Advance(period)
	}
	r.Stop()

	if times[0] <= 0 || times[0] > period {
		t.Fatalf("initial phase %v outside (0, period]", times[0])
	}
	var spread bool
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap < period-jitter || gap > period+jitter {
			t.Fatalf("fire %d gap %v outside [%v, %v]", i, gap, period-jitter, period+jitter)
		}
		if gap != period {
			spread = true
		}
	}
	if !spread {
		t.Fatal("jitter never moved a fire off the nominal period")
	}
}

// TestRunnerSelfClockingDissemination wires a full Figure-1 deployment in
// pull style and lets the Runner — not the harness — fire the rounds on a
// virtual clock: publish, advance, and the content spreads.
func TestRunnerSelfClockingDissemination(t *testing.T) {
	v := clock.NewVirtual()
	bus := soap.NewMemBus()
	coord := NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(3)),
	})
	bus.Register("mem://coordinator", coord.Handler())

	const nodes = 8
	apps := make([]*CollectingApp, nodes)
	dissems := make([]*Disseminator, nodes)
	runners := make([]*Runner, nodes)
	ctx := context.Background()
	for i := 0; i < nodes; i++ {
		addr := fmt.Sprintf("mem://node%d", i)
		apps[i] = NewCollectingApp()
		d, err := NewDisseminator(DisseminatorConfig{
			Address: addr,
			Caller:  bus,
			App:     apps[i],
			RNG:     rand.New(rand.NewSource(int64(i) + 10)),
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, d.Handler())
		dissems[i] = d
		if err := SubscribeClient(ctx, bus, "mem://coordinator", addr, RoleDisseminator); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(RunnerConfig{
			Clock: v,
			RNG:   rand.New(rand.NewSource(int64(i) + 100)),
			Loops: []Loop{
				countingLoop("pull", 50*time.Millisecond, 10*time.Millisecond, d.TickPull),
				countingLoop("repair", 200*time.Millisecond, 40*time.Millisecond, d.TickRepair),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(ctx); err != nil {
			t.Fatal(err)
		}
		runners[i] = r
	}

	// Activate a pull interaction, seed the initiator's direct targets
	// once, and have every node join.
	init, err := NewInitiator(InitiatorConfig{
		Address:    "mem://initiator",
		Caller:     bus,
		Activation: "mem://coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartProtocolInteraction(ctx, ProtocolPullGossip)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := init.Notify(ctx, inter, quoteBody{Symbol: "PULL", Price: 7}); err != nil {
		t.Fatal(err)
	}
	for _, d := range dissems {
		if err := d.JoinInteraction(ctx, inter.Context, ProtocolPullGossip); err != nil {
			t.Fatal(err)
		}
	}

	// No harness ticks from here on: rounds fire from the runners alone.
	v.Advance(2 * time.Second)
	for i, app := range apps {
		if app.Count() != 1 {
			t.Fatalf("node %d deliveries = %d, want exactly 1", i, app.Count())
		}
	}
	for _, r := range runners {
		r.Stop()
	}
}

// TestRunnerDeferredAnnounceRounds verifies the announce loop: in deferred
// mode the IHAVE for a received notification leaves only when the announce
// timer fires, not on the receive path.
func TestRunnerDeferredAnnounceRounds(t *testing.T) {
	v := clock.NewVirtual()
	bus := soap.NewMemBus()
	coord := NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(5)),
		Style:   gossip.StyleLazyPush,
		Params:  func(int) (int, int) { return 2, 6 },
	})
	bus.Register("mem://coordinator", coord.Handler())

	const nodes = 6
	apps := make([]*CollectingApp, nodes)
	ctx := context.Background()
	var runners []*Runner
	for i := 0; i < nodes; i++ {
		addr := fmt.Sprintf("mem://node%d", i)
		apps[i] = NewCollectingApp()
		d, err := NewDisseminator(DisseminatorConfig{
			Address: addr,
			Caller:  bus,
			App:     apps[i],
			RNG:     rand.New(rand.NewSource(int64(i) + 20)),
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, d.Handler())
		if err := SubscribeClient(ctx, bus, "mem://coordinator", addr, RoleDisseminator); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(RunnerConfig{
			Clock: v,
			RNG:   rand.New(rand.NewSource(int64(i) + 200)),
			Loops: []Loop{
				countingLoop("repair", 300*time.Millisecond, 30*time.Millisecond, d.TickRepair),
				countingLoop("announce", 30*time.Millisecond, 3*time.Millisecond, d.TickAnnounce),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		d.DeferAnnouncements()
		if err := r.Start(ctx); err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}

	init, err := NewInitiator(InitiatorConfig{
		Address:    "mem://initiator",
		Caller:     bus,
		Activation: "mem://coordinator",
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, sent, err := init.Notify(ctx, inter, quoteBody{Symbol: "LAZY", Price: 1}); err != nil || sent == 0 {
		t.Fatalf("notify: sent=%d err=%v", sent, err)
	}

	// MemBus is synchronous, so the initiator's direct targets have the
	// payload — but deferred announcements mean nothing spread beyond them
	// yet at virtual time zero.
	direct := 0
	for _, app := range apps {
		if app.Count() > 0 {
			direct++
		}
	}
	if direct >= nodes {
		t.Fatalf("deferred mode spread to all %d nodes before any announce round", nodes)
	}

	v.Advance(2 * time.Second)
	for i, app := range apps {
		if app.Count() != 1 {
			t.Fatalf("node %d deliveries = %d after announce rounds, want 1", i, app.Count())
		}
	}
	for _, r := range runners {
		r.Stop()
	}
}

// TestRunnerConcurrentLifecycleRace exercises the wall-clock path under the
// race detector: runner rounds firing from real timers while subscriptions,
// notifications, and shutdown run concurrently.
//
// The traffic is bounded by construction, not by the machine's speed. A
// MemBus Send that wins the drain returns only when the queue is empty, and
// four real-clock Runners refill it for as long as they run, so nothing that
// sends one-way may be waited for while they do: the test waits for the
// bounded work that never drains (subscription calls, stats reads), stops
// every runner at once — a Stop waits for its in-flight round, which may be
// the drain, so one at a time could wait for ever on the others' traffic —
// and only then for the notifier, whose drain is finite by then.
func TestRunnerConcurrentLifecycleRace(t *testing.T) {
	bus := soap.NewMemBus()
	coord := NewCoordinator(CoordinatorConfig{
		Address: "mem://coordinator",
		RNG:     rand.New(rand.NewSource(9)),
	})
	bus.Register("mem://coordinator", coord.Handler())

	ctx := context.Background()
	const nodes = 4
	var runners []*Runner
	var dissems []*Disseminator
	for i := 0; i < nodes; i++ {
		addr := fmt.Sprintf("mem://node%d", i)
		d, err := NewDisseminator(DisseminatorConfig{
			Address: addr,
			Caller:  bus,
			App:     NewCollectingApp(),
			RNG:     rand.New(rand.NewSource(int64(i) + 30)),
		})
		if err != nil {
			t.Fatal(err)
		}
		bus.Register(addr, d.Handler())
		if err := SubscribeClient(ctx, bus, "mem://coordinator", addr, RoleDisseminator); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(RunnerConfig{ // real clock
			RNG: rand.New(rand.NewSource(int64(i) + 300)),
			Loops: []Loop{
				countingLoop("pull", 5*time.Millisecond, 2500*time.Microsecond, d.TickPull),
				countingLoop("repair", 7*time.Millisecond, 3500*time.Microsecond, d.TickRepair),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(ctx); err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
		dissems = append(dissems, d)
	}

	var bounded, oneWay sync.WaitGroup
	bounded.Add(2)
	oneWay.Add(1)
	go func() { // churn subscriptions
		defer bounded.Done()
		for i := 0; i < 25; i++ {
			addr := fmt.Sprintf("mem://late%d", i)
			_ = SubscribeClient(ctx, bus, "mem://coordinator", addr, RoleConsumer)
			coord.Unsubscribe(addr)
		}
	}()
	go func() { // notifications racing the rounds, then the shutdown
		defer oneWay.Done()
		init, err := NewInitiator(InitiatorConfig{
			Address:    "mem://initiator",
			Caller:     bus,
			Activation: "mem://coordinator",
		})
		if err != nil {
			t.Error(err)
			return
		}
		inter, err := init.StartInteraction(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 20; i++ {
			if _, _, err := init.Notify(ctx, inter, quoteBody{Symbol: "RACE", Price: float64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // stats reads racing the rounds
		defer bounded.Done()
		for i := 0; i < 100; i++ {
			for _, d := range dissems {
				_ = d.Stats()
			}
		}
	}()
	bounded.Wait()
	var stopping sync.WaitGroup
	for _, r := range runners {
		stopping.Add(1)
		go func(r *Runner) {
			defer stopping.Done()
			r.Stop()
		}(r)
	}
	stopping.Wait()
	oneWay.Wait()
}

func TestRunnerAdaptiveBackoff(t *testing.T) {
	v := clock.NewVirtual()
	var activity uint64
	fired := 0
	r, err := NewRunner(RunnerConfig{
		Clock: v,
		Loops: []Loop{{
			Name:      "adaptive",
			Period:    10 * time.Millisecond,
			MaxPeriod: 80 * time.Millisecond,
			Activity:  func() uint64 { return activity },
			Tick:      func(context.Context) { fired++ },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// Quiescent: intervals double 10, 20, 40, 80, 80… After the initial
	// phase (≤10ms) the first second holds at most 1 + ceil settle fires
	// plus 1000/80 capped rounds — far below the 100 a fixed period fires.
	v.Advance(time.Second)
	quiescent := fired
	if quiescent >= 50 {
		t.Fatalf("quiescent adaptive loop fired %d rounds in 1s; backoff is not engaging", quiescent)
	}
	if quiescent < 5 {
		t.Fatalf("adaptive loop fired only %d rounds in 1s; cap overshoot", quiescent)
	}

	// Traffic resets the pace: with the counter advancing before every
	// fire, the loop runs at the 10ms base period again.
	fired = 0
	for i := 0; i < 20; i++ {
		activity++
		v.Advance(10 * time.Millisecond)
	}
	if fired < 15 {
		t.Fatalf("active adaptive loop fired %d rounds over 20 base periods, want ~20", fired)
	}
}

func TestRunnerAdaptiveWakeSnapsBack(t *testing.T) {
	v := clock.NewVirtual()
	var activity uint64
	fired := 0
	r, err := NewRunner(RunnerConfig{
		Clock: v,
		Loops: []Loop{{
			Name:      "adaptive",
			Period:    10 * time.Millisecond,
			MaxPeriod: 500 * time.Millisecond,
			Activity:  func() uint64 { return activity },
			Tick:      func(context.Context) { fired++ },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	// Back the loop off to its cap, then wake it: the next fire must land
	// within one base period, not after the stretched 500ms interval.
	v.Advance(2 * time.Second)
	fired = 0
	activity++
	r.Wake()
	v.Advance(10 * time.Millisecond)
	if fired == 0 {
		t.Fatal("woken loop did not fire within one base period")
	}
	if got := r.FireCount("adaptive"); got == 0 {
		t.Fatal("FireCount lost the woken loop's rounds")
	}
}

func TestRunnerQuiescentMaxValidation(t *testing.T) {
	for _, maxPeriod := range []time.Duration{time.Second / 2, time.Second} {
		if _, err := NewRunner(RunnerConfig{
			Loops: []Loop{{
				Name:      "x",
				Period:    time.Second,
				MaxPeriod: maxPeriod,
				Activity:  func() uint64 { return 0 },
				Tick:      func(context.Context) {},
			}},
		}); err == nil {
			t.Fatalf("max period %v not exceeding the 1s period must be rejected", maxPeriod)
		}
	}
	if _, err := NewRunner(RunnerConfig{
		Loops: []Loop{{
			Name:      "x",
			Period:    time.Second,
			MaxPeriod: 2 * time.Second,
			Tick:      func(context.Context) {},
		}},
	}); err == nil {
		t.Fatal("adaptive loop without an activity probe must be rejected")
	}
}
