package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/metrics"
)

// The paper's gossip services are autonomous: each peer fires its periodic
// push/pull/repair/aggregation rounds on its own schedule. Runner is that
// schedule — a self-clocking round engine on a pluggable clock. On
// clock.Real it is the production runtime (cmd/wsgossip-node); on
// clock.Virtual whole deployments advance deterministically in virtual time
// (internal/scenario, cmd/wsgossip-sim), which is what makes the paper's
// timing behaviour testable at all.

// Loop is one periodic round: a name for diagnostics, a period, a jitter
// bound, and the round body.
type Loop struct {
	// Name identifies the loop in diagnostics.
	Name string
	// Period is the nominal interval between round starts. Required > 0.
	Period time.Duration
	// Jitter is the maximum absolute deviation applied per fire: each
	// interval is drawn uniformly from [Period-Jitter, Period+Jitter].
	// Jitter desynchronizes peers so rounds do not phase-lock across a
	// deployment. Must be < Period; 0 disables.
	Jitter time.Duration
	// Tick runs one round. It is called from the clock's firing goroutine
	// and must return; the next fire is scheduled after it does, so a slow
	// round delays — never overlaps — its own successor.
	Tick func(ctx context.Context)
	// MaxPeriod, when non-zero, enables quiescence backoff for this loop
	// and must exceed Period: after a round in whose preceding interval
	// Activity did not advance, the next interval doubles (Period,
	// 2·Period, 4·Period, …) up to MaxPeriod; any observed activity — or a
	// Wake call — snaps the loop back to Period. 0 keeps the period fixed.
	MaxPeriod time.Duration
	// Activity is the monotonic traffic counter sampled at every fire to
	// decide quiescence. Required when MaxPeriod is set.
	Activity func() uint64
}

// RunnerConfig configures a Runner: where its rounds are scheduled, the
// randomness that desynchronizes them, where they are counted, and the
// rounds themselves. Which rounds a node runs is its composition root's
// decision (wsgossip.NewNode); the Runner only schedules them.
type RunnerConfig struct {
	// Clock schedules the rounds; nil uses a new clock.Real.
	Clock clock.Clock
	// RNG draws jitter and initial phases; nil falls back to a fixed seed.
	// Give every node its own seed so peers desynchronize.
	RNG *rand.Rand
	// Metrics is the registry the runner resolves its per-loop series from:
	// runner_fires_total{loop}, runner_tick_seconds{loop},
	// runner_backoff_level{loop}, runner_wakes_total. FireCount reads the
	// same counters, so the diagnostic and the scraped metric cannot drift.
	// Nil uses a private registry; the runner is always instrumented.
	Metrics *metrics.Registry
	// Loops lists the rounds, in the order Start draws their initial
	// phases. At least one is required.
	Loops []Loop
}

// Runner states.
const (
	runnerIdle = iota
	runnerRunning
	runnerStopped
)

// Runner owns a node's periodic protocol rounds and fires them from a
// Clock: pull rounds, anti-entropy repair, lazy-push announcements,
// push-sum aggregation, membership exchanges — whatever Loops its builder
// lists. Start launches the loops; Stop (or cancelling the
// Start context) shuts them down cleanly. A Runner runs once: after Stop it
// cannot be restarted.
type Runner struct {
	clk clock.Clock

	mu      sync.Mutex
	rng     *rand.Rand
	loops   []Loop
	state   int
	ctx     context.Context
	cancel  context.CancelFunc
	pending []func() bool   // per-loop stop for the scheduled next fire
	cur     []time.Duration // per-loop current base period (adaptive pacing)
	lastAct []uint64        // per-loop Activity sample at the previous fire
	fireFns []func()        // per-loop fire thunk, built once at Start: a
	// round engine reschedules every fire, and at simulation scale a fresh
	// closure per round is pure allocator churn (a Runner runs once, so the
	// Start context never changes under a live loop)

	// Per-loop series, pre-resolved at construction. fires is the single
	// source of truth for FireCount AND the runner_fires_total metric.
	fires   []*metrics.Counter
	tickSec []*metrics.BucketHistogram
	backoff []*metrics.Gauge
	wakes   *metrics.Counter

	// backedOff counts loops whose cur exceeds Period. Wake runs on every
	// gossip intake; this lets it return without touching r.mu in the
	// common fully-active case. Mutated only under mu (setCurLocked);
	// read lock-free as an advisory fast path.
	backedOff atomic.Int32

	inflight sync.WaitGroup
}

// setCurLocked updates loop i's current base period and keeps the lock-free
// backed-off count and the backoff-level gauge in sync. Callers hold r.mu.
func (r *Runner) setCurLocked(i int, d time.Duration) {
	was := r.cur[i] > r.loops[i].Period
	r.cur[i] = d
	if now := d > r.loops[i].Period; now != was {
		if now {
			r.backedOff.Add(1)
		} else {
			r.backedOff.Add(-1)
		}
	}
	r.backoff[i].Set(backoffLevel(r.loops[i].Period, d))
}

// backoffLevel counts how many quiescent doublings separate cur from the
// base period: 0 at base pace, 1 after the first doubling, and so on.
func backoffLevel(period, cur time.Duration) int64 {
	var level int64
	for cur > period {
		cur /= 2
		level++
	}
	return level
}

// NewRunner validates the configuration and returns an idle Runner.
func NewRunner(cfg RunnerConfig) (*Runner, error) {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	loops := append([]Loop(nil), cfg.Loops...)
	if len(loops) == 0 {
		return nil, errors.New("core: runner configured with no loops")
	}
	for _, l := range loops {
		if l.Period <= 0 {
			return nil, fmt.Errorf("core: loop %q has non-positive period %v", l.Name, l.Period)
		}
		if l.Jitter < 0 || l.Jitter >= l.Period {
			return nil, fmt.Errorf("core: loop %q jitter %v outside [0, period)", l.Name, l.Jitter)
		}
		if l.Tick == nil {
			return nil, fmt.Errorf("core: loop %q has no tick function", l.Name)
		}
		if l.MaxPeriod != 0 {
			if l.MaxPeriod <= l.Period {
				return nil, fmt.Errorf("core: loop %q max period %v does not exceed period %v", l.Name, l.MaxPeriod, l.Period)
			}
			if l.Activity == nil {
				return nil, fmt.Errorf("core: adaptive loop %q has no activity probe", l.Name)
			}
		}
	}
	r := &Runner{clk: clk, rng: rng, loops: loops}
	r.pending = make([]func() bool, len(loops))
	r.cur = make([]time.Duration, len(loops))
	r.lastAct = make([]uint64, len(loops))
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	fireVec := reg.CounterVec("runner_fires_total", "loop")
	tickVec := reg.BucketHistogramVec("runner_tick_seconds", metrics.DefLatencyBuckets, "loop")
	backVec := reg.GaugeVec("runner_backoff_level", "loop")
	r.fires = make([]*metrics.Counter, len(loops))
	r.tickSec = make([]*metrics.BucketHistogram, len(loops))
	r.backoff = make([]*metrics.Gauge, len(loops))
	r.wakes = reg.Counter("runner_wakes_total")
	for i, l := range loops {
		r.cur[i] = l.Period
		r.fires[i] = fireVec.With(l.Name)
		r.tickSec[i] = tickVec.With(l.Name)
		r.backoff[i] = backVec.With(l.Name)
	}
	return r, nil
}

// Loops returns the configured loop names, in firing order.
func (r *Runner) Loops() []string {
	names := make([]string, len(r.loops))
	for i, l := range r.loops {
		names[i] = l.Name
	}
	return names
}

// Running reports whether the loops are live.
func (r *Runner) Running() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state == runnerRunning
}

// Start launches every loop. Each loop's first round fires at a random
// phase within its first period (peers booting together must not ring
// together); subsequent rounds fire Period±Jitter after the previous round
// completes. Cancelling ctx shuts the runner down as Stop does. Starting a
// running or stopped runner is an error.
func (r *Runner) Start(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case runnerRunning:
		return errors.New("core: runner already started")
	case runnerStopped:
		return errors.New("core: runner cannot be restarted after stop")
	}
	ctx, cancel := context.WithCancel(ctx)
	r.ctx = ctx
	r.cancel = cancel
	r.state = runnerRunning
	r.fireFns = make([]func(), len(r.loops))
	for i := range r.loops {
		i := i
		r.fireFns[i] = func() { r.fire(ctx, i) }
		if l := r.loops[i]; l.MaxPeriod != 0 {
			r.lastAct[i] = l.Activity()
		}
		// Initial phase in (0, Period]: uniform desynchronization.
		phase := time.Duration(r.rng.Float64()*float64(r.loops[i].Period)) + 1
		r.pending[i] = r.clk.AfterFunc(phase, r.fireFns[i])
	}
	go func() {
		<-ctx.Done()
		r.Stop()
	}()
	return nil
}

// fire runs one round of loop i and schedules the next.
func (r *Runner) fire(ctx context.Context, i int) {
	r.mu.Lock()
	if r.state != runnerRunning || ctx.Err() != nil {
		r.mu.Unlock()
		return
	}
	r.pending[i] = nil
	r.fires[i].Inc()
	r.inflight.Add(1)
	r.mu.Unlock()

	// Tick duration through the runner's own clock: deterministic (and
	// instantaneous) on clock.Virtual, wall time on clock.Real.
	tickStart := r.clk.Now()
	r.loops[i].Tick(ctx)
	r.tickSec[i].Observe((r.clk.Now() - tickStart).Seconds())
	r.inflight.Done()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != runnerRunning || ctx.Err() != nil {
		return
	}
	if l := r.loops[i]; l.MaxPeriod != 0 {
		// Quiescence backoff: traffic since the previous fire resets the
		// base period; none doubles it toward the cap. The probe is read
		// after the round, so responses the round itself provoked count as
		// traffic at the next fire.
		if act := l.Activity(); act != r.lastAct[i] {
			r.lastAct[i] = act
			r.setCurLocked(i, l.Period)
		} else if r.cur[i] < l.MaxPeriod {
			next := r.cur[i] * 2
			if next > l.MaxPeriod {
				next = l.MaxPeriod
			}
			r.setCurLocked(i, next)
		}
	}
	r.pending[i] = r.clk.AfterFunc(r.nextDelayLocked(i), r.fireFns[i])
}

// nextDelayLocked draws the next interval for loop i: the current base
// period (the configured Period unless quiescence backoff stretched it)
// ± U(0, Jitter).
func (r *Runner) nextDelayLocked(i int) time.Duration {
	l := r.loops[i]
	d := r.cur[i]
	if l.Jitter > 0 {
		d += time.Duration((r.rng.Float64()*2 - 1) * float64(l.Jitter))
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Wake snaps every backed-off adaptive loop to its base period: a loop whose
// current interval was stretched by quiescence backoff has its pending fire
// cancelled and rescheduled within one base period of now. Fixed-period
// loops and loops already at base pace are untouched. Whoever builds the
// adaptive loops registers Wake with the OnActivity hooks of the services
// they tick (wsgossip.NewNode does), so new traffic is answered at base
// cadence immediately instead of after a stretched sleep.
// Safe to call from handler callbacks; a no-op unless running. Wake runs on
// every gossip intake in adaptive mode, so it first checks a lock-free
// backed-off count and returns without locking when every loop is already
// at base pace — the sustained-traffic common case. The check is advisory:
// a loop backing off concurrently can be missed, but its very next fire
// resamples the activity counter and snaps back on its own.
func (r *Runner) Wake() {
	if r.backedOff.Load() == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != runnerRunning {
		return
	}
	r.wakes.Inc()
	for i := range r.loops {
		l := r.loops[i]
		if l.MaxPeriod == 0 || r.cur[i] <= l.Period {
			continue
		}
		stop := r.pending[i]
		if stop == nil || !stop() {
			// The fire is already running (or unscheduled); it will resample
			// activity itself and return to base pace.
			continue
		}
		r.setCurLocked(i, l.Period)
		r.pending[i] = r.clk.AfterFunc(r.nextDelayLocked(i), r.fireFns[i])
	}
}

// FireCount returns how many rounds of the named loop have started. It is a
// diagnostic for adaptive pacing: under quiescence an adaptive loop's count
// grows logarithmically-then-capped rather than linearly. The count is read
// from the runner_fires_total{loop} metric itself — there is no second
// bookkeeping to drift from what an operator scrapes. Same-name loops share
// one counter (the vector child is identity-stable), so the value is
// already the sum over all of them.
func (r *Runner) FireCount(name string) int64 {
	for i, l := range r.loops {
		if l.Name == name {
			return r.fires[i].Value()
		}
	}
	return 0
}

// LoopState is one loop's live scheduling state, as reported by LoopStates.
type LoopState struct {
	// Name is the loop's diagnostic name.
	Name string
	// Period is the configured base interval.
	Period time.Duration
	// Current is the interval in effect now; above Period when quiescence
	// backoff has stretched the loop.
	Current time.Duration
	// BackoffLevel counts the quiescent doublings applied (0 = base pace).
	BackoffLevel int64
	// Fires is the number of rounds started.
	Fires int64
}

// LoopStates reports every loop's live scheduling state, in firing order:
// the quiescent-backoff introspection the health endpoint serves. Same-name
// loops report the same (shared) fire counter.
func (r *Runner) LoopStates() []LoopState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]LoopState, len(r.loops))
	for i, l := range r.loops {
		out[i] = LoopState{
			Name:         l.Name,
			Period:       l.Period,
			Current:      r.cur[i],
			BackoffLevel: backoffLevel(l.Period, r.cur[i]),
			Fires:        r.fires[i].Value(),
		}
	}
	return out
}

// Stop cancels the pending round timers, waits for in-flight rounds to
// finish, and leaves the runner stopped. It is idempotent and a no-op on a
// never-started runner. Do not call Stop from inside a loop's Tick — it
// waits on that very round.
func (r *Runner) Stop() {
	r.mu.Lock()
	if r.state != runnerRunning {
		r.mu.Unlock()
		r.inflight.Wait()
		return
	}
	r.state = runnerStopped
	cancel := r.cancel
	stops := make([]func() bool, 0, len(r.pending))
	for i, stop := range r.pending {
		if stop != nil {
			stops = append(stops, stop)
			r.pending[i] = nil
		}
	}
	r.mu.Unlock()
	cancel()
	for _, stop := range stops {
		stop()
	}
	r.inflight.Wait()
}
