package aggregate

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
	"wsgossip/internal/wscoord"
)

// passiveFanout is the exchange fanout a passive joiner without registered
// parameters uses when a live peer view lets it relay anyway.
const passiveFanout = 3

// ServiceStats counts aggregation activity at one node.
type ServiceStats struct {
	// Started counts aggregation tasks this node joined via a start
	// message.
	Started int64
	// PassiveJoins counts tasks joined through an exchange share alone
	// (the start message never arrived; the node relays mass anyway).
	PassiveJoins int64
	// SharesSent counts outgoing push-sum shares.
	SharesSent int64
	// SharesAbsorbed counts incoming shares merged into local state.
	SharesAbsorbed int64
	// StartsForwarded counts start-message re-floods.
	StartsForwarded int64
	// QueriesServed counts answered estimate queries.
	QueriesServed int64
	// SendErrors counts failed sends (mass in unsent shares is returned
	// to local state, preserving conservation).
	SendErrors int64
	// Epochs counts continuous-task epoch rolls.
	Epochs int64
	// AcksSent counts exchange acks sent for absorbed or stale shares.
	AcksSent int64
	// Commits counts outstanding shares whose transfer an ack committed.
	Commits int64
	// Retries counts re-sends of unacked outstanding shares.
	Retries int64
	// Recovered counts shares whose mass was reclaimed after a synchronous
	// send refusal (the only mid-epoch recovery: the share is known unsent).
	Recovered int64
	// StaleShares counts shares from already-retired epochs (acked but not
	// absorbed).
	StaleShares int64
	// DuplicateShares counts retried shares deduplicated on (From, Seq).
	DuplicateShares int64
	// UnackedDropped counts outstanding shares discarded with their epoch
	// at a roll — the per-target-timeout mass recovery path.
	UnackedDropped int64
}

// ServiceConfig configures an aggregation Service.
type ServiceConfig struct {
	// Address is the node's endpoint address.
	Address string
	// Caller sends SOAP messages.
	Caller soap.Caller
	// Value reads the node's local measurement when a task starts (e.g. a
	// queue depth, a price, a load average). Nil joins tasks passively.
	Value func() float64
	// RNG drives peer sampling; nil falls back to a fixed seed.
	RNG *rand.Rand
	// Peers, when set, is the live peer view push-sum exchange targets are
	// drawn from in place of the frozen coordinator-assigned lists, which
	// remain the fallback while the view is empty. With a live view a
	// passive joiner whose registration failed can still relay mass. Nil
	// keeps the classic coordinator-fed behaviour.
	Peers core.PeerView
	// Metrics is the registry the service resolves its series from
	// (aggregate_*_total counters, aggregate_rounds_total, and the
	// aggregate_mass_error gauge). Nil uses a private registry; Stats()
	// reads the same counters either way.
	Metrics *metrics.Registry
	// Clock is the shared time source continuous tasks derive their epoch
	// index from. Nil falls back to the Unix-epoch wall clock (clock.NewWall),
	// which is fine for real deployments — all nodes resolve the same epoch
	// index from synchronized machine clocks — but makes continuous tasks
	// nondeterministic in virtual-time tests; pass the test clock there.
	Clock clock.Clock
	// Values resolves named local value sources for continuous queries
	// (e.g. "load" → a load sampler). A metric with no entry falls back to
	// Value. Value sources are read under the service lock and must be
	// fast and must not call back into the service.
	Values map[string]func() float64
}

// task is one aggregation interaction this node participates in: the
// exchange machine holding its mass, and what the binding needs to move it.
// ctx is the interaction's coordination context as the header block every
// share and ack carries, built once when the task learns the context.
type task struct {
	x      *exchange
	params core.AggregateParameters
	ctx    soap.Block
}

// contextBlock marshals a task's coordination context into its header block.
// A context encoding/xml cannot marshal yields the zero block, on which
// newMessage fails as attaching the context to that message would have.
func contextBlock(cctx wscoord.CoordinationContext) soap.Block {
	b, err := wscoord.ContextBlock(cctx)
	if err != nil {
		return soap.Block{}
	}
	return b
}

// Service is the aggregation participant role: application code supplies
// one local value; the middleware joins aggregation interactions on first
// contact and gossips push-sum shares until the estimate converges.
type Service struct {
	cfg      ServiceConfig
	register *wscoord.RegistrationClient
	// wake, when set (Runner adaptive mode), runs on every absorbed share
	// or task join so quiescence-backed-off exchange rounds snap back.
	wake atomic.Pointer[func()]

	mu    sync.Mutex
	rng   *rand.Rand
	clk   clock.Clock
	tasks map[string]*task
	stats aggCounters
}

// aggCounters is the aggregation layer's registry-resolved series;
// ServiceStats snapshots are views over the same counters.
type aggCounters struct {
	started         *metrics.Counter
	passiveJoins    *metrics.Counter
	sharesSent      *metrics.Counter
	sharesAbsorbed  *metrics.Counter
	startsForwarded *metrics.Counter
	queriesServed   *metrics.Counter
	sendErrors      *metrics.Counter
	rounds          *metrics.Counter
	massErr         *metrics.FloatGauge
	// Continuous-mode series.
	epochs    *metrics.Counter
	acksSent  *metrics.Counter
	commits   *metrics.Counter
	retries   *metrics.Counter
	recovered *metrics.Counter
	stale     *metrics.Counter
	dups      *metrics.Counter
	unacked   *metrics.Counter
}

func newAggCounters(reg *metrics.Registry) aggCounters {
	return aggCounters{
		started:         reg.Counter("aggregate_tasks_started_total"),
		passiveJoins:    reg.Counter("aggregate_passive_joins_total"),
		sharesSent:      reg.Counter("aggregate_shares_sent_total"),
		sharesAbsorbed:  reg.Counter("aggregate_shares_absorbed_total"),
		startsForwarded: reg.Counter("aggregate_starts_forwarded_total"),
		queriesServed:   reg.Counter("aggregate_queries_served_total"),
		sendErrors:      reg.Counter("aggregate_send_errors_total"),
		rounds:          reg.Counter("aggregate_rounds_total"),
		massErr:         reg.FloatGauge("aggregate_mass_error"),
		epochs:          reg.Counter("aggregate_epochs_total"),
		acksSent:        reg.Counter("aggregate_acks_sent_total"),
		commits:         reg.Counter("aggregate_exchange_commits_total"),
		retries:         reg.Counter("aggregate_exchange_retries_total"),
		recovered:       reg.Counter("aggregate_shares_recovered_total"),
		stale:           reg.Counter("aggregate_stale_shares_total"),
		dups:            reg.Counter("aggregate_duplicate_shares_total"),
		unacked:         reg.Counter("aggregate_unacked_discarded_total"),
	}
}

// drain moves an exchange's event counts into the registry series. Caller
// holds the service lock, so a scrape never sees an event the task's state
// does not yet reflect.
func (c *aggCounters) drain(n *exchangeCounts) {
	c.epochs.Add(n.epochs)
	c.rounds.Add(n.rounds)
	c.sharesAbsorbed.Add(n.absorbed)
	c.dups.Add(n.dups)
	c.stale.Add(n.stale)
	c.commits.Add(n.commits)
	c.retries.Add(n.retries)
	c.recovered.Add(n.recovered)
	c.unacked.Add(n.unacked)
	*n = exchangeCounts{}
}

// NewService returns an aggregation service node.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Address == "" || cfg.Caller == nil {
		return nil, fmt.Errorf("aggregate: service config requires address and caller")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	clk := cfg.Clock
	if clk == nil {
		// Unix-epoch anchored, NOT a zero-value Real: the zero value's
		// year-1 epoch saturates Now at the Duration maximum, and not a
		// construction-time epoch either — peers constructed at different
		// moments must still agree on which continuous epoch is open.
		clk = clock.NewWall()
	}
	return &Service{
		cfg:      cfg,
		register: wscoord.NewRegistrationClient(cfg.Caller, cfg.Address),
		rng:      rng,
		clk:      clk,
		tasks:    make(map[string]*task),
		stats:    newAggCounters(reg),
	}, nil
}

// Address returns the node's endpoint address.
func (s *Service) Address() string { return s.cfg.Address }

// Stats returns a snapshot of the counters. The snapshot is a view over
// the same registry series a scrape reads, so the two cannot drift.
func (s *Service) Stats() ServiceStats {
	return ServiceStats{
		Started:         s.stats.started.Value(),
		PassiveJoins:    s.stats.passiveJoins.Value(),
		SharesSent:      s.stats.sharesSent.Value(),
		SharesAbsorbed:  s.stats.sharesAbsorbed.Value(),
		StartsForwarded: s.stats.startsForwarded.Value(),
		QueriesServed:   s.stats.queriesServed.Value(),
		SendErrors:      s.stats.sendErrors.Value(),
		Epochs:          s.stats.epochs.Value(),
		AcksSent:        s.stats.acksSent.Value(),
		Commits:         s.stats.commits.Value(),
		Retries:         s.stats.retries.Value(),
		Recovered:       s.stats.recovered.Value(),
		StaleShares:     s.stats.stale.Value(),
		DuplicateShares: s.stats.dups.Value(),
		UnackedDropped:  s.stats.unacked.Value(),
	}
}

// ActivityCount is a monotonic counter of aggregation traffic at this node:
// tasks joined plus shares absorbed. An adaptive Runner samples it each
// exchange round — an unchanged count between two fires means every task
// has gone quiescent (converged or round-capped) and the exchange period
// may back off.
func (s *Service) ActivityCount() uint64 {
	return uint64(s.stats.started.Value()) +
		uint64(s.stats.passiveJoins.Value()) +
		uint64(s.stats.sharesAbsorbed.Value())
}

// OnActivity registers fn to run whenever ActivityCount advances — an
// adaptive Runner installs its Wake here so a new aggregation task or a
// fresh share snaps backed-off exchange rounds back to their base period.
// One callback; nil clears.
func (s *Service) OnActivity(fn func()) {
	if fn == nil {
		s.wake.Store(nil)
		return
	}
	s.wake.Store(&fn)
}

// bumpActivity runs the registered activity callback, if any. Call outside
// s.mu: the callback re-enters Runner state.
func (s *Service) bumpActivity() {
	if fn := s.wake.Load(); fn != nil {
		(*fn)()
	}
}

// Handler returns the service's SOAP handler.
func (s *Service) Handler() soap.Handler {
	d := soap.NewDispatcher()
	s.RegisterActions(d)
	return d
}

// RegisterActions installs the aggregation actions on an existing
// dispatcher, for stacks that colocate the participant with other services
// (e.g. a Disseminator) on one endpoint.
func (s *Service) RegisterActions(d *soap.Dispatcher) {
	d.Register(ActionStart, soap.HandlerFunc(s.handleStart))
	d.Register(ActionExchange, soap.HandlerFunc(s.handleExchange))
	d.Register(ActionExchangeAck, soap.HandlerFunc(s.handleExchangeAck))
	d.Register(ActionQuery, soap.HandlerFunc(s.handleQuery))
}

// evalMassLocked re-evaluates the aggregate_mass_error gauge from the
// per-task residuals. It runs after every machine transition, so the gauge
// can never show a stale or phantom value mid-round. Caller holds s.mu.
func (s *Service) evalMassLocked() {
	var err float64
	for _, t := range s.tasks {
		err += t.x.massError()
	}
	s.stats.massErr.Set(err)
}

// Tasks returns the IDs of the tasks the node participates in, sorted.
func (s *Service) Tasks() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tasks))
	for id := range s.tasks {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Estimate returns the node's current estimate for the task.
func (s *Service) Estimate(taskID string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[taskID]
	if !ok {
		return 0, false
	}
	return t.x.state.Estimate()
}

// Converged reports whether the task's estimate has stabilized to within
// the coordinator-assigned epsilon.
func (s *Service) Converged(taskID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[taskID]
	if !ok {
		return false
	}
	return t.x.state.Converged(t.params.Epsilon)
}

// Mass returns the node's conserved (sum, weight) pair for the task.
func (s *Service) Mass(taskID string) (sum, weight float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, found := s.tasks[taskID]
	if !found {
		return 0, 0, false
	}
	sum, weight = t.x.state.Mass()
	return sum, weight, true
}

// Rounds returns how many exchange rounds the node has run for the task.
func (s *Service) Rounds(taskID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[taskID]
	if !ok {
		return 0
	}
	return t.x.state.Rounds()
}

// handleStart joins an aggregation task: register with the interaction's
// Registration service for the aggregation protocol, contribute the local
// value, and re-flood the start over the assigned overlay while hop budget
// remains.
func (s *Service) handleStart(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	var start Start
	if err := req.Envelope.DecodeBody(&start); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed AggregateStart: "+err.Error())
	}
	fn, err := ParseFunc(start.Function)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, err.Error())
	}
	cctx, err := wscoord.ContextFrom(req.Envelope)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "aggregate start without coordination context: "+err.Error())
	}
	s.mu.Lock()
	existing, known := s.tasks[start.TaskID]
	s.mu.Unlock()
	if known {
		// Usually a duplicate flood copy — but if an exchange share
		// outran the start (passive join), this start is the node's first
		// chance to contribute its local value and, if registration had
		// failed back then, to obtain targets.
		s.upgradePassiveTask(ctx, existing, start, cctx)
		return nil, nil
	}
	params, err := s.registerTask(ctx, cctx)
	if err != nil {
		return nil, err
	}
	var t *task
	if start.WindowMillis > 0 {
		window := time.Duration(start.WindowMillis) * time.Millisecond
		t = s.newContinuousTask(start.TaskID, fn, window, start.Root, start.Metric, params, cctx)
	} else {
		t = s.newTask(start.TaskID, fn, start.Root == s.cfg.Address, params, cctx)
	}
	s.mu.Lock()
	if _, raced := s.tasks[start.TaskID]; raced {
		s.mu.Unlock()
		return nil, nil
	}
	if t.x.windowed() {
		// A continuous start rolls into the current epoch on the spot,
		// which contributes the local value and seeds the anchor if this
		// node is the root.
		now := s.clk.Now()
		t.x.roll(EpochAt(now, t.x.window), now)
		s.stats.drain(&t.x.counts)
	}
	s.tasks[start.TaskID] = t
	s.stats.started.Inc()
	s.evalMassLocked()
	s.mu.Unlock()
	s.bumpActivity()
	if start.Hops > 0 {
		s.forwardStart(ctx, start, cctx, params.Targets)
	}
	return nil, nil
}

// upgradePassiveTask completes a passive join once the start arrives: the
// node contributes its local value (guarded against double counting), seeds
// the anchor weight if it is the root, and retries registration when the
// passive join's attempt failed and left it without targets.
func (s *Service) upgradePassiveTask(ctx context.Context, t *task, start Start, cctx wscoord.CoordinationContext) {
	s.mu.Lock()
	needTargets := len(t.params.Targets) == 0
	if t.x.windowed() {
		// Continuous task that joined through a share: the start only
		// confirms what the share already carried. The node begins
		// contributing at the next epoch boundary (set by the passive
		// join), never retroactively mid-window.
		if t.x.root == "" {
			t.x.root = start.Root
		}
		if t.x.metric == "" {
			t.x.metric = start.Metric
		}
	} else {
		var value float64
		hasValue := s.cfg.Value != nil && !t.x.state.Contributed()
		if hasValue {
			s.mu.Unlock()
			value = s.cfg.Value()
			s.mu.Lock()
		}
		t.x.upgrade(value, hasValue, start.Root == s.cfg.Address)
		s.evalMassLocked()
	}
	s.mu.Unlock()
	if !needTargets {
		return
	}
	params, err := s.registerTask(ctx, cctx)
	if err != nil {
		return
	}
	s.mu.Lock()
	if len(t.params.Targets) == 0 {
		t.params = params
		t.ctx = contextBlock(cctx)
	}
	s.mu.Unlock()
	if start.Hops > 0 {
		s.forwardStart(ctx, start, cctx, params.Targets)
	}
}

// registerTask performs the first-contact Register call for the aggregation
// protocol and decodes the parameter extension.
func (s *Service) registerTask(ctx context.Context, cctx wscoord.CoordinationContext) (core.AggregateParameters, error) {
	resp, err := s.register.Register(ctx, cctx, core.ProtocolAggregate, s.cfg.Address)
	if err != nil {
		return core.AggregateParameters{}, fmt.Errorf("aggregate: register task %s: %w", cctx.Identifier, err)
	}
	params, err := core.AggregateParametersFrom(resp)
	if err != nil {
		return core.AggregateParameters{}, fmt.Errorf("aggregate: registration response without parameters: %w", err)
	}
	return params, nil
}

// newMessage starts one logical multi-target message: addressing with the
// action and a single message ID but no To (the fan-out splices it per
// target), and the task's prebuilt coordination-context block. The caller
// sets the body.
func newMessage(action string, cctx soap.Block) (*soap.Envelope, error) {
	if cctx.Raw == nil {
		return nil, errors.New("aggregate: coordination context did not marshal")
	}
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{
		Action:    action,
		MessageID: wsa.NewMessageID(),
	}); err != nil {
		return nil, err
	}
	wscoord.AttachContextBlock(env, cctx)
	return env, nil
}

// buildMessage is newMessage plus a body marshalled by encoding/xml — the
// once-per-task messages. Shares and acks carry a flat-codec block instead
// (wire.go).
func buildMessage(action string, cctx wscoord.CoordinationContext, body any) (*soap.Envelope, error) {
	env, err := newMessage(action, contextBlock(cctx))
	if err != nil {
		return nil, err
	}
	if err := env.SetBody(body); err != nil {
		return nil, err
	}
	return env, nil
}

// forwardStart re-floods the start to every assigned target with a
// decremented hop budget; receivers that already know the task drop it.
// The flood is one logical message, serialized once.
func (s *Service) forwardStart(ctx context.Context, start Start, cctx wscoord.CoordinationContext, targets []string) {
	next := start
	next.Hops = start.Hops - 1
	env, err := buildMessage(ActionStart, cctx, next)
	if err != nil {
		s.addSendErrors(len(targets))
		return
	}
	sent, failed := soap.Fanout(ctx, s.cfg.Caller, env, targets)
	s.stats.startsForwarded.Add(int64(sent))
	s.stats.sendErrors.Add(int64(len(failed)))
}

// handleExchange absorbs an incoming push-sum share. A node that never saw
// the start still conserves the mass: it registers through the share's
// coordination context and joins passively.
func (s *Service) handleExchange(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	share, err := decodeShare(bodyRaw(req.Envelope))
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed AggregateShare: "+err.Error())
	}
	if share.WindowMillis > 0 {
		return s.handleContinuousShare(ctx, req, share)
	}
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
		// the mass so the totals stay conserved — it just cannot relay
		// until a later start or share brings usable targets.
		params, _ := s.registerTask(ctx, cctx)
		t = &task{x: newExchange(share.TaskID, s.cfg.Address, NewState(fn, 0, false, true)), params: params, ctx: contextBlock(cctx)}
		s.mu.Lock()
		if existing, raced := s.tasks[share.TaskID]; raced {
			t = existing
		} else {
			s.tasks[share.TaskID] = t
			s.stats.passiveJoins.Inc()
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	t.x.take(&share)
	s.stats.drain(&t.x.counts)
	s.evalMassLocked()
	s.mu.Unlock()
	s.bumpActivity()
	return nil, nil
}

// handleQuery answers with the node's current estimate.
func (s *Service) handleQuery(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var q Query
	if err := req.Envelope.DecodeBody(&q); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed AggregateQuery: "+err.Error())
	}
	s.mu.Lock()
	t, ok := s.tasks[q.TaskID]
	if !ok {
		s.mu.Unlock()
		return nil, soap.NewFault(soap.CodeSender, fmt.Sprintf("unknown aggregation task %q", q.TaskID))
	}
	est, _ := t.x.state.Estimate()
	_, weight := t.x.state.Mass()
	result := QueryResult{
		TaskID:    q.TaskID,
		Function:  string(t.x.state.Func()),
		Estimate:  est,
		Weight:    weight,
		Rounds:    t.x.state.Rounds(),
		Converged: t.x.state.Converged(t.params.Epsilon),
	}
	s.stats.queriesServed.Inc()
	s.mu.Unlock()
	resp := soap.NewEnvelope()
	if err := resp.SetAddressing(req.Addressing().Reply(ActionQueryResponse)); err != nil {
		return nil, err
	}
	if err := resp.SetBody(result); err != nil {
		return nil, err
	}
	return resp, nil
}

// Tick runs one push-sum round for every active task: split the local
// (sum, weight) into fanout+1 shares, keep one, send one to each of fanout
// sampled targets. Extremes ride along and merge idempotently. Tasks whose
// round budget is exhausted go quiescent (they still absorb and answer
// queries). Call it from a timer at the deployment's exchange interval.
func (s *Service) Tick(ctx context.Context) {
	type outgoing struct {
		taskID  string
		cctx    soap.Block
		share   Share
		targets []string
	}
	var sends []outgoing
	var contSends []contSend
	s.mu.Lock()
	ids := make([]string, 0, len(s.tasks))
	for id := range s.tasks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t := s.tasks[id]
		if t.x.windowed() {
			for _, p := range t.x.tick(s.clk.Now(), s.continuousTargetsLocked(t)) {
				contSends = append(contSends, contSend{taskID: id, cctx: t.ctx, p: p, retry: p.retry()})
			}
			s.stats.drain(&t.x.counts)
			continue
		}
		fanout := t.params.Fanout
		if fanout <= 0 {
			// A passive joiner whose registration failed has no parameters;
			// with a live view it can still relay at the default fanout so
			// the mass it holds keeps circulating.
			if s.cfg.Peers == nil {
				continue
			}
			fanout = passiveFanout
		}
		if s.cfg.Peers == nil && len(t.params.Targets) == 0 {
			continue
		}
		if t.params.MaxRounds > 0 && t.x.state.Rounds() >= t.params.MaxRounds {
			continue
		}
		// Sample before starting the round: with a live view that is still
		// empty (membership bootstrap) a tick must not burn round budget or
		// convergence history when no exchange can happen. On the static
		// path an earlier guard covers emptiness and assigned targets never
		// reduce to only the local address, so the round accounting is
		// unchanged there.
		targets := core.SelectTargets(s.cfg.Peers, s.rng, fanout, s.cfg.Address, t.params.Targets)
		if len(targets) == 0 {
			continue
		}
		// One-shot contract: the fan-out takes responsibility at split, so
		// the transfer is committed immediately; failures come back
		// synchronously and are re-absorbed by returnShares.
		sends = append(sends, outgoing{
			taskID:  id,
			cctx:    t.ctx,
			share:   t.x.split(len(targets)),
			targets: targets,
		})
		s.stats.drain(&t.x.counts)
	}
	s.evalMassLocked()
	s.mu.Unlock()
	for _, out := range sends {
		// Every target of a round receives the same share, so the exchange
		// is one logical message: encode once, render per target.
		env, err := newMessage(ActionExchange, out.cctx)
		if err != nil {
			s.returnShares(out.taskID, out.share, len(out.targets))
			continue
		}
		env.SetBodyBlock(shareBlock(&out.share))
		sent, failed := soap.Fanout(ctx, s.cfg.Caller, env, out.targets)
		if len(failed) > 0 {
			// Return the unsent mass to local state: conservation holds
			// even when peers are unreachable.
			s.returnShares(out.taskID, out.share, len(failed))
		}
		s.stats.sharesSent.Add(int64(sent))
	}
	s.sendContinuous(ctx, contSends)
}

// returnShares re-absorbs n undeliverable copies of a share and counts the
// failures, preserving mass conservation.
func (s *Service) returnShares(taskID string, share Share, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[taskID]; ok {
		t.x.giveBack(&share, n)
		s.evalMassLocked()
	}
	s.stats.sendErrors.Add(int64(n))
}

func (s *Service) addSendErrors(n int) {
	s.stats.sendErrors.Add(int64(n))
}

// newTask builds a one-shot task holding the node's local value (none:
// passive) and, on the root, the anchor weight. Call outside s.mu: it runs
// the value source.
func (s *Service) newTask(taskID string, fn Func, root bool, params core.AggregateParameters, cctx wscoord.CoordinationContext) *task {
	passive := s.cfg.Value == nil
	var value float64
	if !passive {
		value = s.cfg.Value()
	}
	x := newExchange(taskID, s.cfg.Address, NewState(fn, value, root, passive))
	return &task{x: x, params: params, ctx: contextBlock(cctx)}
}

// startLocalTask installs a task created by this node itself (the Querier's
// path: it already holds the parameters from its own registration).
func (s *Service) startLocalTask(taskID string, fn Func, cctx wscoord.CoordinationContext, params core.AggregateParameters, root bool) {
	t := s.newTask(taskID, fn, root, params, cctx)
	s.mu.Lock()
	if _, ok := s.tasks[taskID]; ok {
		s.mu.Unlock()
		return
	}
	s.tasks[taskID] = t
	s.stats.started.Inc()
	s.evalMassLocked()
	s.mu.Unlock()
	// The node's own new task is traffic too: snap a backed-off exchange
	// loop to base pace so the first push-sum round is not delayed by a
	// stretched quiescent interval.
	s.bumpActivity()
}
