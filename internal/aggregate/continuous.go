package aggregate

import (
	"context"
	"sort"
	"time"

	"wsgossip/internal/core"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// The Service binding of the windowed exchange (exchange.go): locking, the
// task map, first-contact registration, target selection, the local value
// lookup, SOAP envelopes and sends outside the lock. Every protocol decision
// is the machine's.

// contSend is one windowed wire operation staged under the lock and sent
// outside it.
type contSend struct {
	taskID string
	cctx   soap.Block
	p      *pendingShare
	// retry is p.retry() as read under the lock.
	retry bool
}

// newContinuousTask builds a windowed task that has not rolled yet. Its
// contribution at each roll is the metric's local value source (the named
// entry in Values, else the default Value, else none: passive) and the
// anchor weight if this node is the root. Value sources run under s.mu.
func (s *Service) newContinuousTask(taskID string, fn Func, window time.Duration, root, metric string, params core.AggregateParameters, cctx wscoord.CoordinationContext) *task {
	x := newExchange(taskID, s.cfg.Address, NewState(fn, 0, false, true))
	x.window, x.root, x.metric = window, root, metric
	x.contribute = func() (float64, bool, bool) {
		isRoot := x.root != "" && x.root == s.cfg.Address
		f := s.cfg.Value
		if named := s.cfg.Values[x.metric]; x.metric != "" && named != nil {
			f = named
		}
		if f == nil {
			return 0, isRoot, false
		}
		return f(), isRoot, true
	}
	return &task{x: x, params: params, ctx: contextBlock(cctx)}
}

// continuousTargetsLocked samples a windowed task's exchange targets for one
// round. A passive joiner whose registration failed has no parameters; with
// a live view (or assigned targets) it still relays at the default fanout.
// Caller holds s.mu.
func (s *Service) continuousTargetsLocked(t *task) []string {
	fanout := t.params.Fanout
	if fanout <= 0 {
		if s.cfg.Peers == nil && len(t.params.Targets) == 0 {
			return nil
		}
		fanout = passiveFanout
	}
	return core.SelectTargets(s.cfg.Peers, s.rng, fanout, s.cfg.Address, t.params.Targets)
}

// sendContinuous performs the staged windowed sends outside the service
// lock. A refused first send goes back to the machine, which reclaims the
// mass; a refused retry only counts.
func (s *Service) sendContinuous(ctx context.Context, sends []contSend) {
	for _, cs := range sends {
		env, err := newMessage(ActionExchange, cs.cctx)
		if err == nil {
			env.SetBodyBlock(shareBlock(&cs.p.share))
			err = s.cfg.Caller.Send(ctx, cs.p.to, env)
		}
		switch {
		case err == nil:
			s.stats.sharesSent.Inc()
		case cs.retry:
			s.stats.sendErrors.Inc()
		default:
			s.reclaim(cs.taskID, cs.p)
		}
	}
}

// reclaim hands a share whose first send was refused back to its task.
func (s *Service) reclaim(taskID string, p *pendingShare) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[taskID]
	if !ok || !t.x.reclaim(p) {
		return
	}
	s.stats.drain(&t.x.counts)
	s.stats.sendErrors.Inc()
	s.evalMassLocked()
}

// handleContinuousShare absorbs one epoch-tagged share and acks it. A node
// that never saw the start joins passively — the share carries the window,
// root, and metric — and begins contributing at the next epoch boundary.
func (s *Service) handleContinuousShare(ctx context.Context, req *soap.Request, share Share) (*soap.Envelope, error) {
	s.mu.Lock()
	t, known := s.tasks[share.TaskID]
	s.mu.Unlock()
	if !known {
		fn, err := ParseFunc(share.Function)
		if err != nil {
			return nil, soap.NewFault(soap.CodeSender, err.Error())
		}
		cctx, err := wscoord.ContextFrom(req.Envelope)
		if err != nil {
			return nil, soap.NewFault(soap.CodeSender, "aggregate share without coordination context: "+err.Error())
		}
		// Registration can fail (coordinator down); the node still holds
		// the mass it absorbs, so the totals stay conserved.
		params, _ := s.registerTask(ctx, cctx)
		window := time.Duration(share.WindowMillis) * time.Millisecond
		t = s.newContinuousTask(share.TaskID, fn, window, share.Root, share.Metric, params, cctx)
		s.mu.Lock()
		if existing, raced := s.tasks[share.TaskID]; raced {
			t = existing
		} else {
			// Mid-window joiner: relay passively for the rest of this
			// window, contribute from the next boundary on.
			t.x.contributeFrom = EpochAt(s.clk.Now(), window) + 1
			s.tasks[share.TaskID] = t
			s.stats.passiveJoins.Inc()
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	if !t.x.windowed() {
		s.mu.Unlock()
		return nil, soap.NewFault(soap.CodeSender, "continuous share for one-shot task "+share.TaskID)
	}
	ack, reply := t.x.absorb(s.clk.Now(), &share)
	s.stats.drain(&t.x.counts)
	cctx := t.ctx
	s.evalMassLocked()
	s.mu.Unlock()
	s.bumpActivity()
	if reply {
		if env, err := newMessage(ActionExchangeAck, cctx); err == nil {
			env.SetBodyBlock(ackBlock(&ack))
			if s.cfg.Caller.Send(ctx, share.From, env) == nil {
				s.stats.acksSent.Inc()
			} else {
				s.stats.sendErrors.Inc()
			}
		}
	}
	return nil, nil
}

// handleExchangeAck commits one outstanding transfer — the commit point the
// mass-error gauge is re-evaluated at.
func (s *Service) handleExchangeAck(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	ack, err := decodeAck(bodyRaw(req.Envelope))
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed AggregateExchangeAck: "+err.Error())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[ack.TaskID]; ok && t.x.windowed() {
		t.x.commit(s.clk.Now(), &ack)
		s.stats.drain(&t.x.counts)
		s.evalMassLocked()
	}
	return nil, nil
}

// startContinuousLocal installs a continuous task created by this node (the
// Querier's path): the node is the root, contributes immediately, and rolls
// into the current epoch on the spot.
func (s *Service) startContinuousLocal(taskID string, fn Func, cctx wscoord.CoordinationContext, params core.AggregateParameters, window time.Duration, metric string) {
	t := s.newContinuousTask(taskID, fn, window, s.cfg.Address, metric, params, cctx)
	s.mu.Lock()
	if _, ok := s.tasks[taskID]; ok {
		s.mu.Unlock()
		return
	}
	s.tasks[taskID] = t
	now := s.clk.Now()
	t.x.roll(EpochAt(now, window), now)
	s.stats.drain(&t.x.counts)
	s.stats.started.Inc()
	s.evalMassLocked()
	s.mu.Unlock()
	s.bumpActivity()
}

// ContinuousEstimate is one continuous task's consumer view: the frozen
// estimate from the last closed epoch (the stable value — at most one
// window plus one exchange round stale) and the still-mixing live one.
type ContinuousEstimate struct {
	TaskID   string
	Metric   string
	Function Func
	Window   time.Duration
	// Epoch is the live epoch the node is currently mixing.
	Epoch uint64
	// Frozen is the last closed epoch's final estimate; nil while the
	// first window is still open.
	Frozen *EpochEstimate
	// Live is the current epoch's (unconverged) estimate.
	Live        float64
	LiveDefined bool
}

// ContinuousEstimates snapshots every continuous task, sorted by task ID.
func (s *Service) ContinuousEstimates() []ContinuousEstimate {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ContinuousEstimate, 0)
	ids := make([]string, 0, len(s.tasks))
	for id, t := range s.tasks {
		if t.x.windowed() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		x := s.tasks[id].x
		live, ok := x.state.Estimate()
		ce := ContinuousEstimate{
			TaskID:      id,
			Metric:      x.metric,
			Function:    x.state.Func(),
			Window:      x.window,
			Epoch:       x.epoch,
			Live:        live,
			LiveDefined: ok,
		}
		if x.frozen != nil {
			f := *x.frozen
			ce.Frozen = &f
		}
		out = append(out, ce)
	}
	return out
}

// EpochOf returns the live epoch of a continuous task (0 if unknown or
// one-shot).
func (s *Service) EpochOf(taskID string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[taskID]; ok {
		return t.x.epoch
	}
	return 0
}

// FrozenEstimate returns the last closed epoch's estimate for a continuous
// task.
func (s *Service) FrozenEstimate(taskID string) (EpochEstimate, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[taskID]; ok && t.x.frozen != nil {
		return *t.x.frozen, true
	}
	return EpochEstimate{}, false
}

// Outstanding returns a continuous task's unacked outstanding weight and
// the weight this node contributed into the live epoch — the conservation
// property tests' accounting hooks.
func (s *Service) Outstanding(taskID string) (outstanding, contributed float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[taskID]; ok {
		return t.x.led.outstanding, t.x.contributed
	}
	return 0, 0
}
