package aggregate

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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

// contextBlock marshals a task's coordination context into its header block.
// A context encoding/xml cannot marshal yields the zero block, on which a
// message that would carry it fails (errContext).
func contextBlock(cctx wscoord.CoordinationContext) soap.Block {
	b, err := wscoord.ContextBlock(cctx)
	if err != nil {
		return soap.Block{}
	}
	return b
}

// Service is the aggregation participant role: application code supplies
// local values; the middleware joins aggregation interactions on first
// contact and gossips push-sum shares, restarting every epoch. It is the
// SOAP binding of the task machine (machine.go): it holds the lock every
// machine call runs under, makes the Register calls and the start flood,
// frames each round's shares as one envelope per peer, and moves the bytes.
type Service struct {
	cfg      ServiceConfig
	register *wscoord.RegistrationClient
	// wake, when set (Runner adaptive mode), runs on every absorbed share
	// or task join so quiescence-backed-off exchange rounds snap back.
	wake atomic.Pointer[func()]
	// counters publish the machine's counts, one per Stats field in field
	// order, and massErr the tasks' conservation residual.
	counters []*metrics.Counter
	massErr  *metrics.FloatGauge

	mu  sync.Mutex
	clk clock.Clock
	m   *machine
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
	s := &Service{
		cfg:      cfg,
		register: wscoord.NewRegistrationClient(cfg.Caller, cfg.Address),
		massErr:  reg.FloatGauge("aggregate_mass_error"),
		clk:      clk,
	}
	fields := reflect.TypeFor[Stats]()
	for i := range fields.NumField() {
		s.counters = append(s.counters, reg.Counter(fields.Field(i).Tag.Get("metric")))
	}
	s.m = newMachine(cfg.Address, rng, cfg.Peers, true, s.contribution)
	return s, nil
}

// contribution is a task's contribution at each roll: the metric's local
// value source (the named entry in Values, else the default Value, else
// none: passive) and the anchor weight if this node is the task's root.
// Value sources run under s.mu.
func (s *Service) contribution(x *exchange) (value float64, root, ok bool) {
	root = x.root != "" && x.root == s.cfg.Address
	f := s.cfg.Value
	if named := s.cfg.Values[x.metric]; x.metric != "" && named != nil {
		f = named
	}
	if f == nil {
		return 0, root, false
	}
	return f(), root, true
}

// Address returns the node's endpoint address.
func (s *Service) Address() string { return s.cfg.Address }

// unlock publishes what the machine counted since the last unlock, and the
// tasks' conservation residual, then releases s.mu. Every machine call that
// changes a task runs under the lock and ends here, so a scrape never sees
// an event the tasks' state does not yet reflect, nor a stale or phantom
// residual mid-round.
func (s *Service) unlock() {
	counts := reflect.ValueOf(&s.m.counts).Elem()
	for i, c := range s.counters {
		if n := counts.Field(i).Int(); n != 0 {
			c.Add(n)
		}
	}
	s.m.counts = Stats{}
	s.massErr.Set(s.m.massError())
	s.mu.Unlock()
}

// Stats returns a snapshot of the counters. The snapshot is a view over
// the same registry series a scrape reads, so the two cannot drift.
func (s *Service) Stats() Stats {
	var st Stats
	fields := reflect.ValueOf(&st).Elem()
	for i, c := range s.counters {
		fields.Field(i).SetInt(c.Value())
	}
	return st
}

// ActivityCount is a monotonic counter of aggregation traffic at this node:
// tasks joined plus shares absorbed. An adaptive Runner samples it each
// exchange round — an unchanged count between two fires means no task is
// exchanging (none has started yet) and the exchange period may back off.
func (s *Service) ActivityCount() uint64 {
	st := s.Stats()
	return uint64(st.Started + st.PassiveJoins + st.SharesAbsorbed)
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

// handleStart joins an aggregation task: register with the interaction's
// Registration service for the aggregation protocol, roll into the current
// epoch (which contributes the local value), and re-flood the start over the
// assigned overlay while hop budget remains. A start without a window is
// refused. A start of a task the node holds only completes a passive join
// (task.confirm, task.assign).
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
	// A start of a task the node holds is usually a duplicate flood copy —
	// but if an exchange share outran the start (passive join), the start
	// confirms the root and metric and, if registration failed back then,
	// brings targets.
	s.mu.Lock()
	t := s.m.tasks[start.TaskID]
	register := t == nil || t.confirm(start.Root, start.Metric)
	s.mu.Unlock()
	if !register {
		return nil, nil
	}
	params, err := s.registerTask(ctx, cctx)
	switch {
	case err != nil && t == nil:
		return nil, err
	case err != nil:
		return nil, nil
	case t == nil:
		window := time.Duration(start.WindowMillis) * time.Millisecond
		if !s.install(start.TaskID, fn, window, start.Root, start.Metric, params, cctx) {
			return nil, nil
		}
	default:
		block := contextBlock(cctx)
		s.mu.Lock()
		t.assign(params, block)
		s.mu.Unlock()
	}
	if start.Hops > 0 {
		s.forwardStart(ctx, start, cctx, params.Targets)
	}
	return nil, nil
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
// encoding/xml could not marshal: contextBlock's zero block, whose Raw is
// nil.
var errContext = errors.New("aggregate: coordination context did not marshal")

// startMessage is the start flood's message: the action and id, cctx's
// block as its one header block after them, and start marshalled by
// encoding/xml as its body. It is sent to every target with no To of its
// own, each copy's rendered per target.
func startMessage(cctx wscoord.CoordinationContext, start Start, id []byte) (soap.Message, error) {
	block := contextBlock(cctx)
	if block.Raw == nil {
		return soap.Message{}, errContext
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
		if st.join && (len(contexts) == 0 || st.p.share.TaskID != last) {
			if st.cctx.Raw == nil {
				return errContext
			}
			contexts = append(contexts, st.cctx)
			last = st.p.share.TaskID
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
	refused := len(failed)
	if err != nil {
		refused = len(targets)
	}
	s.mu.Lock()
	s.m.flooded(sent, refused)
	s.unlock()
}

// install adds a task started here or by a start message (machine.install)
// and reports whether the node did not hold it yet.
func (s *Service) install(taskID string, fn Func, window time.Duration, root, metric string, params core.AggregateParameters, cctx wscoord.CoordinationContext) bool {
	t := s.m.newTask(taskID, fn, window, root, metric, params, contextBlock(cctx))
	s.mu.Lock()
	ok := s.m.install(t, s.clk.Now())
	s.unlock()
	if ok {
		// A new task is traffic too: snap a backed-off exchange loop to base
		// pace so its first push-sum round is not delayed by a stretched
		// quiescent interval.
		s.bumpActivity()
	}
	return ok
}

// dropTask forgets a task this node started but could not announce.
func (s *Service) dropTask(taskID string) {
	s.mu.Lock()
	s.m.drop(taskID)
	s.unlock()
}

// Tick runs one push-sum round for every task (machine.round). The sends
// happen outside the lock, one envelope per peer (sendShareBatch), the
// peers in the order the round first names them, each peer's shares in
// task-ID and then machine order. The transport's verdict on an envelope is
// every share's in it (machine.sent). Call it from a timer at the
// deployment's exchange interval.
func (s *Service) Tick(ctx context.Context) {
	s.mu.Lock()
	sends := s.m.round(s.clk.Now())
	s.unlock()
	for len(sends) > 0 {
		// Move the first peer's shares to the front, keeping both their
		// order and the others'.
		n := 0
		for i := range sends {
			if st := sends[i]; st.p.to == sends[0].p.to {
				copy(sends[n+1:i+1], sends[n:i])
				sends[n] = st
				n++
			}
		}
		err := sendShareBatch(ctx, s.cfg.Caller, sends[:n])
		s.mu.Lock()
		for i := range n {
			s.m.sent(&sends[i], err)
		}
		s.unlock()
		sends = sends[n:]
	}
}

// inlineChildren is how many children of an inbound exchange or ack
// envelope intake reads into arrays on its stack: more tasks than a node
// usually serves, so reading an envelope allocates nothing.
const inlineChildren = 4

// shareIn is one child of an inbound exchange envelope: the share, its
// TaskID's wire bytes (a view into the receive buffer, see scanShare) and,
// once resolved, its task — or, for a task the node must join, the context
// that names it.
type shareIn struct {
	sh   Share
	id   []byte
	t    *task
	cctx wscoord.CoordinationContext
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
		if ack, reply := in[i].t.x.absorb(now, &in[i].sh); reply {
			acks = append(acks, ack)
		}
	}
	s.unlock()
	s.bumpActivity()
	if len(acks) == 0 {
		return nil, nil
	}
	err = sendAcks(ctx, s.cfg.Caller, in[0].sh.From, acks)
	s.mu.Lock()
	s.m.acked(len(acks), err)
	s.unlock()
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
		in[i].t = s.m.tasks[string(in[i].id)]
		missing = missing || in[i].t == nil
	}
	s.mu.Unlock()
	if !missing {
		return nil
	}
	for i := range in {
		if in[i].t != nil {
			continue
		}
		if _, err := ParseFunc(in[i].sh.Function); err != nil {
			return soap.NewFault(soap.CodeSender, err.Error())
		}
		var err error
		if in[i].cctx, err = wscoord.ContextFor(env, string(in[i].id)); err != nil {
			return soap.NewFault(soap.CodeSender, "aggregate share without coordination context: "+err.Error())
		}
	}
	for i := range in {
		if in[i].t == nil {
			in[i].t = s.joinPassive(ctx, &in[i])
		}
	}
	return nil
}

// joinPassive joins the task of in, a share of a task the node did not
// hold, from the share alone (machine.join), registering first; a node that
// holds the task by now — an earlier share of the same envelope, or a
// concurrent one, joined it — keeps the one it holds.
func (s *Service) joinPassive(ctx context.Context, in *shareIn) *task {
	id := in.cctx.Identifier
	s.mu.Lock()
	t := s.m.tasks[id]
	s.mu.Unlock()
	if t != nil {
		return t
	}
	// Registration can fail (coordinator down); the node still holds the
	// mass it absorbs, so the totals stay conserved.
	params, _ := s.registerTask(ctx, in.cctx)
	window := time.Duration(in.sh.WindowMillis) * time.Millisecond
	t = s.m.newTask(id, Func(in.sh.Function), window, in.sh.Root, in.sh.Metric, params, contextBlock(in.cctx))
	s.mu.Lock()
	t = s.m.join(t, s.clk.Now())
	s.unlock()
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
	now := s.clk.Now()
	for i := range in {
		s.m.commit(in[i].id, now, &in[i].a)
	}
	s.unlock()
	return nil, nil
}
