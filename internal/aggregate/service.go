package aggregate

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
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
	// SendErrors counts failed sends.
	SendErrors int64
	// Epochs counts epoch rolls.
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
	// Value reads the node's local measurement at each epoch (e.g. a queue
	// depth, a price, a load average). Nil, with no entry in Values for a
	// task's metric, joins the task passively.
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
	// Clock is the shared time source tasks derive their epoch index from.
	// Nil falls back to the Unix-epoch wall clock (clock.NewWall), which is
	// fine for real deployments — all nodes resolve the same epoch index
	// from synchronized machine clocks — but makes tasks nondeterministic in
	// virtual-time tests; pass the test clock there.
	Clock clock.Clock
	// Values resolves named local value sources for queries (e.g. "load" →
	// a load sampler). A metric with no entry falls back to
	// Value. Value sources are read under the service lock and must be
	// fast and must not call back into the service.
	Values map[string]func() float64
}

// task is one aggregation interaction this node participates in: the
// exchange machine holding its mass, and what the binding needs to move it.
// ctx is the interaction's coordination context as the header block an
// envelope carries when a share of the task in it needs join data, built
// once when the task learns the context.
type task struct {
	x      *exchange
	params core.AggregateParameters
	ctx    soap.Block
}

// contextBlock marshals a task's coordination context into its header block.
// A context encoding/xml cannot marshal yields the zero block, on which a
// message that would carry it fails (checkContext).
func contextBlock(cctx wscoord.CoordinationContext) soap.Block {
	b, err := wscoord.ContextBlock(cctx)
	if err != nil {
		return soap.Block{}
	}
	return b
}

// Service is the aggregation participant role: application code supplies
// local values; the middleware joins aggregation interactions on first
// contact and gossips push-sum shares, restarting every epoch.
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
	// scratch holds one task's targets during Tick (targetsLocked).
	scratch []string
}

// aggCounters is the aggregation layer's registry-resolved series;
// ServiceStats snapshots are views over the same counters.
type aggCounters struct {
	started         *metrics.Counter
	passiveJoins    *metrics.Counter
	sharesSent      *metrics.Counter
	sharesAbsorbed  *metrics.Counter
	startsForwarded *metrics.Counter
	sendErrors      *metrics.Counter
	rounds          *metrics.Counter
	massErr         *metrics.FloatGauge
	epochs          *metrics.Counter
	acksSent        *metrics.Counter
	commits         *metrics.Counter
	retries         *metrics.Counter
	recovered       *metrics.Counter
	stale           *metrics.Counter
	dups            *metrics.Counter
	unacked         *metrics.Counter
}

func newAggCounters(reg *metrics.Registry) aggCounters {
	return aggCounters{
		started:         reg.Counter("aggregate_tasks_started_total"),
		passiveJoins:    reg.Counter("aggregate_passive_joins_total"),
		sharesSent:      reg.Counter("aggregate_shares_sent_total"),
		sharesAbsorbed:  reg.Counter("aggregate_shares_absorbed_total"),
		startsForwarded: reg.Counter("aggregate_starts_forwarded_total"),
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
		// moments must still agree on which epoch is open.
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
// exchange round — an unchanged count between two fires means no task is
// exchanging (none has started yet) and the exchange period may back off.
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

// handleStart joins an aggregation task: register with the interaction's
// Registration service for the aggregation protocol, roll into the current
// epoch (which contributes the local value), and re-flood the start over the
// assigned overlay while hop budget remains. A start without a window is
// refused.
func (s *Service) handleStart(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	var start Start
	if err := req.Envelope.DecodeBody(&start); err != nil {
		return nil, soap.NewFault(soap.CodeSender, "malformed AggregateStart: "+err.Error())
	}
	fn, err := ParseFunc(start.Function)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, err.Error())
	}
	if start.WindowMillis <= 0 {
		return nil, soap.NewFault(soap.CodeSender, "aggregate start without a window")
	}
	cctx, err := wscoord.ContextFor(req.Envelope, start.TaskID)
	if err != nil {
		return nil, soap.NewFault(soap.CodeSender, "aggregate start without coordination context: "+err.Error())
	}
	s.mu.Lock()
	existing, known := s.tasks[start.TaskID]
	s.mu.Unlock()
	if known {
		// Usually a duplicate flood copy — but if an exchange share outran
		// the start (passive join), this start confirms the root and metric
		// and, if registration failed back then, brings targets.
		s.completePassiveJoin(ctx, existing, start, cctx)
		return nil, nil
	}
	params, err := s.registerTask(ctx, cctx)
	if err != nil {
		return nil, err
	}
	window := time.Duration(start.WindowMillis) * time.Millisecond
	if !s.install(s.newContinuousTask(start.TaskID, fn, window, start.Root, start.Metric, params, cctx)) {
		return nil, nil
	}
	if start.Hops > 0 {
		s.forwardStart(ctx, start, cctx, params.Targets)
	}
	return nil, nil
}

// completePassiveJoin is a start's effect on a task the node already holds.
// A node that joined through a share keeps the contribution deferral the
// join set (it contributes from the next epoch boundary, never retroactively
// mid-window); the start only fills in what the share lacked, and retries
// registration when the passive join's attempt failed and left it without
// targets.
func (s *Service) completePassiveJoin(ctx context.Context, t *task, start Start, cctx wscoord.CoordinationContext) {
	s.mu.Lock()
	if t.x.root == "" {
		t.x.root = start.Root
	}
	if t.x.metric == "" {
		t.x.metric = start.Metric
	}
	needTargets := len(t.params.Targets) == 0
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

// errContext fails a message that would carry a coordination context
// encoding/xml could not marshal: contextBlock's zero block.
var errContext = errors.New("aggregate: coordination context did not marshal")

// checkContext fails the zero block of a context that did not marshal.
func checkContext(cctx soap.Block) error {
	if cctx.Raw == nil {
		return errContext
	}
	return nil
}

// startMessage is the start flood's message: the action and id, cctx's
// block as its one header block after them, and start marshalled by
// encoding/xml as its body. It is sent to every target with no To of its
// own, each copy's rendered per target.
func startMessage(cctx wscoord.CoordinationContext, start Start, id []byte) (soap.Message, error) {
	block := contextBlock(cctx)
	if err := checkContext(block); err != nil {
		return soap.Message{}, err
	}
	body, err := soap.MarshalBlock(start)
	if err != nil {
		return soap.Message{}, err
	}
	return soap.Message{Action: ActionStart, ID: id, Header: []soap.Block{block}, Body: []soap.Block{body}}, nil
}

// floodStart sends start to every target through caller: one logical
// message, written once and rendered per target.
func floodStart(ctx context.Context, caller soap.Caller, cctx wscoord.CoordinationContext, start Start, targets []string) (sent int, failed []string, err error) {
	var id [wsa.MessageIDLen]byte
	m, err := startMessage(cctx, start, wsa.AppendMessageID(id[:0]))
	if err != nil {
		return 0, nil, err
	}
	sent, failed = m.Fanout(ctx, caller, targets)
	return sent, failed, nil
}

// sendShareBatch sends the one exchange envelope that carries batch, a
// round's shares for one peer in task-ID order and then machine order,
// through caller: one AggregateShare body child per share, in batch order,
// and, after the addressing and in the same task order, the
// coordination-context header block of each task some share of which needs
// join data (staged.join): a retry, or a first send to a peer not known to
// hold the task. A node the share reaches first thus joins each task through
// its own context, and a peer known to hold every task gets none. It carries
// no To. The shares are written straight into the wire buffer. A batch of
// one is byte for byte the single-share message.
func sendShareBatch(ctx context.Context, caller soap.Caller, batch []staged) error {
	var id [wsa.MessageIDLen]byte
	m := soap.Message{Action: ActionExchange, ID: wsa.AppendMessageID(id[:0])}
	var inline [inlineChildren]soap.Block
	contexts := inline[:0]
	last := "" // the task whose context was written last
	for i := range batch {
		st := &batch[i]
		if st.join && (len(contexts) == 0 || st.taskID != last) {
			if err := checkContext(st.cctx); err != nil {
				return err
			}
			contexts = append(contexts, st.cctx)
			last = st.taskID
		}
		m.Size += shareSize(&st.p.share)
	}
	m.Header, m.Name, m.Parts = contexts, shareName, len(batch)
	m.Write = func(dst []byte, i int) []byte { return appendShare(dst, &batch[i].p.share) }
	return m.Send(ctx, caller, batch[0].p.to)
}

// sendAcks sends the one envelope that answers an exchange envelope through
// caller to to: one AggregateExchangeAck body child per ack, in order,
// written straight into the wire buffer, and no coordination context — it
// goes back to the peer that sent the shares, which holds every task they
// name — and no To.
func sendAcks(ctx context.Context, caller soap.Caller, to string, acks []ExchangeAck) error {
	var id [wsa.MessageIDLen]byte
	m := soap.Message{Action: ActionExchangeAck, ID: wsa.AppendMessageID(id[:0]), Name: ackName, Parts: len(acks)}
	for i := range acks {
		m.Size += ackSize(&acks[i])
	}
	m.Write = func(dst []byte, i int) []byte { return appendAck(dst, &acks[i]) }
	return m.Send(ctx, caller, to)
}

// forwardStart re-floods the start to every assigned target with a
// decremented hop budget; receivers that already know the task drop it.
func (s *Service) forwardStart(ctx context.Context, start Start, cctx wscoord.CoordinationContext, targets []string) {
	next := start
	next.Hops = start.Hops - 1
	sent, failed, err := floodStart(ctx, s.cfg.Caller, cctx, next, targets)
	if err != nil {
		s.stats.sendErrors.Add(int64(len(targets)))
		return
	}
	s.stats.startsForwarded.Add(int64(sent))
	s.stats.sendErrors.Add(int64(len(failed)))
}

// newContinuousTask builds a task that has not rolled yet. Its contribution
// at each roll is the metric's local value source (the named entry in
// Values, else the default Value, else none: passive) and the anchor weight
// if this node is the root. Value sources run under s.mu.
func (s *Service) newContinuousTask(taskID string, fn Func, window time.Duration, root, metric string, params core.AggregateParameters, cctx wscoord.CoordinationContext) *task {
	x := newExchange(taskID, s.cfg.Address, fn, window, root, metric)
	x.trackHolders = true
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

// startContinuousLocal installs a task created by this node (the Querier's
// path): the node is the root.
func (s *Service) startContinuousLocal(taskID string, fn Func, cctx wscoord.CoordinationContext, params core.AggregateParameters, window time.Duration, metric string) {
	s.install(s.newContinuousTask(taskID, fn, window, s.cfg.Address, metric, params, cctx))
}

// install adds t unless its task is already known, rolling it into the
// current epoch on the spot — which contributes the local value and seeds
// the anchor if this node is the root — and reports whether it did.
func (s *Service) install(t *task) bool {
	s.mu.Lock()
	if _, known := s.tasks[t.x.taskID]; known {
		s.mu.Unlock()
		return false
	}
	now := s.clk.Now()
	t.x.roll(EpochAt(now, t.x.window), now)
	s.stats.drain(&t.x.counts)
	s.tasks[t.x.taskID] = t
	s.stats.started.Inc()
	s.evalMassLocked()
	s.mu.Unlock()
	// A new task is traffic too: snap a backed-off exchange loop to base
	// pace so its first push-sum round is not delayed by a stretched
	// quiescent interval.
	s.bumpActivity()
	return true
}

// dropTask forgets a task this node started but could not announce.
func (s *Service) dropTask(taskID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tasks, taskID)
	s.evalMassLocked()
}

// fanoutLocked is how many targets a task asks for each round. A passive
// joiner whose registration failed has no parameters; with a live view (or
// assigned targets) it still relays at the default fanout. Caller holds s.mu.
func (s *Service) fanoutLocked(t *task) int {
	switch {
	case t.params.Fanout > 0:
		return t.params.Fanout
	case s.cfg.Peers == nil && len(t.params.Targets) == 0:
		return 0
	}
	return passiveFanout
}

// sampleLocked draws the round's targets from the live view once: n of
// them, the largest fanout any task asks for. Each task then takes its
// prefix (targetsLocked). Every PeerView samples without replacement, one
// uniform pick after another (gossip.SamplePeers is a partial Fisher–Yates),
// so each prefix is itself a uniform sample, and a node with one task draws
// exactly what that task alone would. Nil without a live view, or while it
// is empty. Caller holds s.mu.
func (s *Service) sampleLocked(n int) []string {
	if s.cfg.Peers == nil || n == 0 {
		return nil
	}
	return s.cfg.Peers.SelectPeers(s.rng, n, s.cfg.Address)
}

// targetsLocked returns a task's exchange targets for one round: its prefix
// of the round's sample, copied into the service's scratch slice because the
// machine filters its targets in place, or, without a sample, its own draw
// from the coordinator-assigned list. Caller holds s.mu.
func (s *Service) targetsLocked(t *task, sample []string) []string {
	n := s.fanoutLocked(t)
	if n == 0 {
		return nil
	}
	if len(sample) > 0 {
		s.scratch = append(s.scratch[:0], sample[:min(n, len(sample))]...)
		return s.scratch
	}
	return gossip.SamplePeers(s.rng, t.params.Targets, n, s.cfg.Address)
}

// staged is one share send chosen under the lock and performed outside it.
type staged struct {
	taskID string
	cctx   soap.Block
	p      *pendingShare
	// retry and join are p.retry() and p.join() as read under the lock.
	retry, join bool
	// peer is the index of the round's first send to the same target: the
	// key that groups the round's sends into one envelope per peer.
	peer int
}

// Tick runs one push-sum round for every task, in task-ID order: the
// machine rolls the epoch when the clock crossed a boundary, retries unacked
// shares and splits fresh ones for this round's targets, drawn once for all
// tasks (sampleLocked). The sends happen outside the lock, one envelope per
// peer, the peers in the order the round first names them (sendShares). Call
// it from a timer at the deployment's exchange interval.
func (s *Service) Tick(ctx context.Context) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.tasks))
	most, widest := 0, 0 // the round's sends at most; the largest fanout
	for id, t := range s.tasks {
		ids = append(ids, id)
		n := s.fanoutLocked(t)
		most += len(t.x.pending) + n
		widest = max(widest, n)
	}
	sort.Strings(ids)
	sends := make([]staged, 0, most)
	sample := s.sampleLocked(widest)
	now := s.clk.Now()
	for _, id := range ids {
		t := s.tasks[id]
		for _, p := range t.x.tick(now, s.targetsLocked(t, sample)) {
			sends = append(sends, staged{taskID: id, cctx: t.ctx, p: p, retry: p.retry(), join: p.join()})
		}
		s.stats.drain(&t.x.counts)
	}
	s.evalMassLocked()
	s.mu.Unlock()
	for i := range sends {
		sends[i].peer = i
		for j := range i {
			if sends[j].p.to == sends[i].p.to {
				sends[i].peer = sends[j].peer
				break
			}
		}
	}
	// Stable: each peer's shares stay in task-ID and then machine order.
	slices.SortStableFunc(sends, func(a, b staged) int { return cmp.Compare(a.peer, b.peer) })
	for len(sends) > 0 {
		n := 1
		for n < len(sends) && sends[n].peer == sends[0].peer {
			n++
		}
		s.sendShares(ctx, sends[:n])
		sends = sends[n:]
	}
}

// sendShares sends one peer's shares of the round in one envelope. The
// transport's verdict on the envelope is every share's, each taken by the
// per-share rule: a refused first send goes back to its machine, which
// reclaims the mass, and a refused retry only counts.
func (s *Service) sendShares(ctx context.Context, batch []staged) {
	err := sendShareBatch(ctx, s.cfg.Caller, batch)
	for _, st := range batch {
		switch {
		case err == nil:
			s.stats.sharesSent.Inc()
		case st.retry:
			s.stats.sendErrors.Inc()
		default:
			s.reclaim(st.taskID, st.p)
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

// inlineChildren is how many children of an inbound exchange or ack
// envelope intake reads into arrays on its stack: more tasks than a node
// usually serves, so reading an envelope allocates nothing.
const inlineChildren = 4

// shareIn is one child of an inbound exchange envelope: the share, its
// TaskID's wire bytes (a view into the receive buffer, see scanShare) and,
// once resolved, its task.
type shareIn struct {
	sh Share
	id []byte
	t  *task
}

// handleExchange takes one exchange envelope. It reads every share in it
// before applying any (readShares) and finds or joins each one's task
// (resolve): a malformed child, a share without a window, shares from two
// senders, or a new task without its context faults the whole envelope as
// the sender's error, with nothing absorbed and no task created. Then it
// absorbs each share into its task and answers with one ack envelope.
func (s *Service) handleExchange(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
	var inline [inlineChildren]shareIn
	in, err := readShares(req.Envelope.Body.Blocks, inline[:0])
	if err != nil {
		return nil, err
	}
	if err := s.resolve(ctx, req.Envelope, in); err != nil {
		return nil, err
	}
	var ackInline [inlineChildren]ExchangeAck
	acks := ackInline[:0]
	s.mu.Lock()
	now := s.clk.Now()
	for i := range in {
		x := in[i].t.x
		if ack, reply := x.absorb(now, &in[i].sh); reply {
			acks = append(acks, ack)
		}
		s.stats.drain(&x.counts)
	}
	s.evalMassLocked()
	s.mu.Unlock()
	s.bumpActivity()
	if len(acks) == 0 {
		return nil, nil
	}
	if err := sendAcks(ctx, s.cfg.Caller, in[0].sh.From, acks); err == nil {
		s.stats.acksSent.Add(int64(len(acks)))
	} else {
		s.stats.sendErrors.Add(int64(len(acks)))
	}
	return nil, nil
}

// readShares reads every child of an exchange body into in. Each must be a
// share with a window, and all must come from one sender, whom the one ack
// envelope answers.
func readShares(blocks []soap.Block, in []shareIn) ([]shareIn, error) {
	if len(blocks) == 0 {
		return nil, soap.NewFault(soap.CodeSender, "malformed AggregateShare: empty body")
	}
	for i := range blocks {
		sh, id, err := decodeShare(blocks[i].Raw)
		if err != nil {
			return nil, soap.NewFault(soap.CodeSender, "malformed AggregateShare: "+err.Error())
		}
		if sh.WindowMillis <= 0 {
			return nil, soap.NewFault(soap.CodeSender, "aggregate share without a window")
		}
		if i > 0 && sh.From != in[0].sh.From {
			return nil, soap.NewFault(soap.CodeSender, "aggregate shares from more than one sender")
		}
		in = append(in, shareIn{sh: sh, id: id})
	}
	return in, nil
}

// resolve points each share at its task. A share of a task the node does
// not hold joins it passively: the share carries the window, root and
// metric, and the envelope the context header that names the task, to
// register through. Every such share is checked before any joins, so a
// faulted envelope creates no task. Only a join copies the TaskID off the
// wire: the task's key is its context's Identifier.
func (s *Service) resolve(ctx context.Context, env *soap.Envelope, in []shareIn) error {
	missing := false
	s.mu.Lock()
	for i := range in {
		if t, ok := s.tasks[string(in[i].id)]; ok {
			in[i].t = t
		} else {
			missing = true
		}
	}
	s.mu.Unlock()
	if !missing {
		return nil
	}
	type join struct {
		fn   Func
		cctx wscoord.CoordinationContext
	}
	joins := make([]join, len(in))
	for i := range in {
		if in[i].t != nil {
			continue
		}
		fn, err := ParseFunc(in[i].sh.Function)
		if err != nil {
			return soap.NewFault(soap.CodeSender, err.Error())
		}
		cctx, err := wscoord.ContextFor(env, string(in[i].id))
		if err != nil {
			return soap.NewFault(soap.CodeSender, "aggregate share without coordination context: "+err.Error())
		}
		joins[i] = join{fn: fn, cctx: cctx}
	}
	for i := range in {
		if in[i].t == nil {
			in[i].t = s.joinPassive(ctx, joins[i].fn, &in[i].sh, joins[i].cctx)
		}
	}
	return nil
}

// joinPassive installs cctx's task, which sh belongs to, as a mid-window
// joiner that relays passively for the rest of this window and contributes
// from the next boundary on — unless the node holds the task by now: an
// earlier share of the same envelope, or a concurrent one, joined it first.
func (s *Service) joinPassive(ctx context.Context, fn Func, sh *Share, cctx wscoord.CoordinationContext) *task {
	taskID := cctx.Identifier
	s.mu.Lock()
	t, known := s.tasks[taskID]
	s.mu.Unlock()
	if known {
		return t
	}
	// Registration can fail (coordinator down); the node still holds the
	// mass it absorbs, so the totals stay conserved.
	params, _ := s.registerTask(ctx, cctx)
	window := time.Duration(sh.WindowMillis) * time.Millisecond
	t = s.newContinuousTask(taskID, fn, window, sh.Root, sh.Metric, params, cctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, raced := s.tasks[taskID]; raced {
		return existing
	}
	t.x.contributeFrom = EpochAt(s.clk.Now(), window) + 1
	s.tasks[taskID] = t
	s.stats.passiveJoins.Inc()
	return t
}

// ackIn is one child of an inbound ack envelope: the ack and its TaskID's
// wire bytes.
type ackIn struct {
	a  ExchangeAck
	id []byte
}

// handleExchangeAck reads every ack in the envelope, then commits each
// outstanding transfer it names — the commit point the mass-error gauge is
// re-evaluated at. A malformed child faults the envelope with nothing
// committed; an ack of a task the node does not hold is ignored.
func (s *Service) handleExchangeAck(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	blocks := req.Envelope.Body.Blocks
	if len(blocks) == 0 {
		return nil, soap.NewFault(soap.CodeSender, "malformed AggregateExchangeAck: empty body")
	}
	var inline [inlineChildren]ackIn
	in := inline[:0]
	for i := range blocks {
		a, id, err := decodeAck(blocks[i].Raw)
		if err != nil {
			return nil, soap.NewFault(soap.CodeSender, "malformed AggregateExchangeAck: "+err.Error())
		}
		in = append(in, ackIn{a: a, id: id})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clk.Now()
	for i := range in {
		if t, ok := s.tasks[string(in[i].id)]; ok {
			t.x.commit(now, &in[i].a)
			s.stats.drain(&t.x.counts)
		}
	}
	s.evalMassLocked()
	return nil, nil
}
