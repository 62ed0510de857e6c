package aggregate

import (
	"math/rand"
	"slices"
	"time"

	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
)

// passiveFanout is the exchange fanout a passive joiner without registered
// parameters uses when a live peer view lets it relay anyway.
const passiveFanout = 3

// Stats counts one node's aggregation events. Both bindings count them in
// one machine; a Service publishes each field as the registry counter its
// metric tag names, and reads them back from there, so the two cannot drift.
type Stats struct {
	// Started counts tasks installed by this node's own start or by a start
	// message.
	Started int64 `metric:"aggregate_tasks_started_total"`
	// PassiveJoins counts tasks joined through an exchange share alone
	// (the start message never arrived; the node relays mass anyway).
	PassiveJoins int64 `metric:"aggregate_passive_joins_total"`
	// SharesSent counts shares the transport accepted, first sends and
	// retries alike.
	SharesSent int64 `metric:"aggregate_shares_sent_total"`
	// SharesAbsorbed counts incoming shares merged into local state.
	SharesAbsorbed int64 `metric:"aggregate_shares_absorbed_total"`
	// StartsForwarded counts start-message re-floods.
	StartsForwarded int64 `metric:"aggregate_starts_forwarded_total"`
	// SendErrors counts sends the transport refused: a share's (a reclaimed
	// first send too), an ack's and a start's.
	SendErrors int64 `metric:"aggregate_send_errors_total"`
	// Rounds counts rounds that split fresh shares.
	Rounds int64 `metric:"aggregate_rounds_total"`
	// Epochs counts epoch rolls.
	Epochs int64 `metric:"aggregate_epochs_total"`
	// AcksSent counts exchange acks sent for absorbed or stale shares.
	AcksSent int64 `metric:"aggregate_acks_sent_total"`
	// Commits counts outstanding shares whose transfer an ack committed.
	Commits int64 `metric:"aggregate_exchange_commits_total"`
	// Retries counts re-sends of unacked outstanding shares.
	Retries int64 `metric:"aggregate_exchange_retries_total"`
	// Recovered counts shares whose mass was reclaimed after a synchronous
	// send refusal (the only mid-epoch recovery: the share is known unsent).
	Recovered int64 `metric:"aggregate_shares_recovered_total"`
	// StaleShares counts shares from already-retired epochs (acked but not
	// absorbed).
	StaleShares int64 `metric:"aggregate_stale_shares_total"`
	// DuplicateShares counts retried shares deduplicated on (From, Seq).
	DuplicateShares int64 `metric:"aggregate_duplicate_shares_total"`
	// UnackedDropped counts outstanding shares discarded with their epoch
	// at a roll — the per-target-timeout mass recovery path.
	UnackedDropped int64 `metric:"aggregate_unacked_discarded_total"`
}

// task is one aggregation interaction a node holds: the exchange holding
// its mass, the coordinator-assigned parameters, and cctx, the join data a
// share that needs it travels with (on the Service's wire, the task's
// coordination-context header block; a SimNode's shares carry none).
type task struct {
	x      *exchange
	params core.AggregateParameters
	cctx   soap.Block
}

// staged is one share send a round asks of its binding, with what the
// binding reads of it after the machine's serialization ends: retry and
// join as p.retry() and p.join() stood at the round, and the task's join
// data.
type staged struct {
	p           *pendingShare
	cctx        soap.Block
	retry, join bool
}

// machine is a node's aggregation policy, written once for both bindings:
// the task table and every decision about it — install, passive join and
// drop, each round's fan-out and targets, the verdict on each send — and
// the counts of every event. Intake and commit are its exchanges'. It is
// sans-IO: no lock, no clock, no sends. A binding (Service under its mutex,
// SimNode on the simulator's event loop) serializes the calls, passes in
// the time, and moves the bytes of what a call hands back.
type machine struct {
	addr string
	rng  *rand.Rand
	// view is the live peer view round targets are drawn from; nil draws
	// from each task's coordinator-assigned targets.
	view gossip.PeerProvider
	// contribute is the binding's value source at a roll (exchange.contribute).
	contribute func(x *exchange) (value float64, root, ok bool)
	// holders is set when tasks keep the peers known to hold them: the
	// Service's shares carry join data, the SimNode's never do.
	holders bool
	tasks   map[string]*task
	// ids lists the tasks' IDs, sorted: the order a round visits them in.
	ids    []string
	counts Stats
	// scratch holds one task's targets during a round (targets).
	scratch []string
}

// newMachine returns a machine at addr holding no task.
func newMachine(addr string, rng *rand.Rand, view gossip.PeerProvider, holders bool, contribute func(*exchange) (float64, bool, bool)) *machine {
	return &machine{addr: addr, rng: rng, view: view, holders: holders, contribute: contribute, tasks: make(map[string]*task)}
}

// newTask returns task id, neither in the table nor rolled into an epoch.
// It touches nothing of the machine's state, so a binding may build it
// before it serializes the call that adds it.
func (m *machine) newTask(id string, fn Func, window time.Duration, root, metric string, params core.AggregateParameters, cctx soap.Block) *task {
	x := newExchange(id, m.addr, fn, window, root, metric, &m.counts)
	x.contribute = func() (float64, bool, bool) { return m.contribute(x) }
	x.trackHolders = m.holders
	return &task{x: x, params: params, cctx: cctx}
}

// put adds t to the table, contributing from epoch from on, and reports
// whether it did: false if the node holds its task already.
func (m *machine) put(t *task, from uint64) bool {
	id := t.x.taskID
	i, held := slices.BinarySearch(m.ids, id)
	if held {
		return false
	}
	t.x.contributeFrom = from
	m.tasks[id] = t
	m.ids = slices.Insert(m.ids, i, id)
	return true
}

// install adds t, started here or by a start message, unless its task is
// already held, and rolls it into the live epoch at now on the spot — which
// contributes the local value and seeds the anchor if this node is the
// root. It reports whether it did.
func (m *machine) install(t *task, now time.Duration) bool {
	if !m.put(t, 0) {
		return false
	}
	t.x.roll(EpochAt(now, t.x.window), now)
	m.counts.Started++
	return true
}

// join adds t, learned at now from a share alone, as a mid-window joiner:
// it relays passively for the rest of this window and contributes from the
// next boundary on, never retroactively. It returns the task the table
// holds — t, or the one an earlier share joined first.
func (m *machine) join(t *task, now time.Duration) *task {
	if !m.put(t, EpochAt(now, t.x.window)+1) {
		return m.tasks[t.x.taskID]
	}
	m.counts.PassiveJoins++
	return t
}

// configure adds t as the one task a node created at now runs, unrolled
// until its first transition. The node contributes from the first epoch
// that starts at or after now — epoch ⌈now/w⌉+1 — so one created on a
// boundary contributes to the epoch opening there, and one created
// mid-window relays passively until the next boundary, as a joiner does.
func (m *machine) configure(t *task, now time.Duration) {
	m.put(t, EpochAt(now+t.x.window-1, t.x.window))
}

// drop forgets task id.
func (m *machine) drop(id string) {
	if i, held := slices.BinarySearch(m.ids, id); held {
		delete(m.tasks, id)
		m.ids = slices.Delete(m.ids, i, i+1)
	}
}

// confirm is a start message's effect on t, a task the node holds already:
// a duplicate flood copy, or the start a share outran (passive join). It
// fills in the root and metric the share lacked, the join's contribution
// deferral standing, and reports whether t has no targets yet — a passive
// join whose registration failed — so its binding registers again.
func (t *task) confirm(root, metric string) bool {
	if t.x.root == "" {
		t.x.root = root
	}
	if t.x.metric == "" {
		t.x.metric = metric
	}
	return len(t.params.Targets) == 0
}

// assign gives t a registration's parameters and join data, unless t has
// targets by now.
func (t *task) assign(params core.AggregateParameters, cctx soap.Block) {
	if len(t.params.Targets) == 0 {
		t.params, t.cctx = params, cctx
	}
}

// fanout is how many targets t asks for each round. A passive joiner whose
// registration failed has no parameters; with a live view (or assigned
// targets) it still relays at the default fanout.
func (m *machine) fanout(t *task) int {
	switch {
	case t.params.Fanout > 0:
		return t.params.Fanout
	case m.view == nil && len(t.params.Targets) == 0:
		return 0
	}
	return passiveFanout
}

// round runs one push-sum round at now for every task, in task-ID order,
// and returns its sends, each task's in machine order (exchange.tick).
// The round's targets are drawn from the live view once, at the largest
// fanout any task asks for, and each task takes its prefix of that sample.
// Every PeerProvider samples without replacement, one uniform pick after
// another (gossip.SamplePeers is a partial Fisher–Yates), so each prefix is
// itself a uniform sample, and a node with one task draws exactly what that
// task alone would. Without a view, or while it is empty, each task draws
// from its coordinator-assigned targets.
func (m *machine) round(now time.Duration) []staged {
	most, widest := 0, 0 // the round's sends at most; the largest fanout
	for _, id := range m.ids {
		t := m.tasks[id]
		n := m.fanout(t)
		most += len(t.x.pending) + n
		widest = max(widest, n)
	}
	dst := make([]staged, 0, most)
	var sample []string
	if m.view != nil && widest > 0 {
		sample = m.view.SelectPeers(m.rng, widest, m.addr)
	}
	for _, id := range m.ids {
		t := m.tasks[id]
		base := len(dst)
		dst = t.x.tick(now, m.targets(t, sample), dst)
		for i := base; i < len(dst); i++ {
			dst[i].cctx = t.cctx
		}
	}
	return dst
}

// targets returns t's exchange targets for one round: its prefix of the
// round's sample, copied into scratch because the exchange filters its
// targets in place, or, without a sample, its own draw from the
// coordinator-assigned list.
func (m *machine) targets(t *task, sample []string) []string {
	n := m.fanout(t)
	if n == 0 {
		return nil
	}
	if len(sample) > 0 {
		m.scratch = append(m.scratch[:0], sample[:min(n, len(sample))]...)
		return m.scratch
	}
	return gossip.SamplePeers(m.rng, t.params.Targets, n, m.addr)
}

// sent takes the transport's verdict on one staged send. An accepted share
// is sent. A refused retry proves nothing — an earlier copy may have
// arrived — so it only counts. A refused first send provably never left
// this node, so its task reclaims the mass, unless the share is pending no
// more (committed, or retired with its epoch, while the send was in
// progress) or the task is gone.
func (m *machine) sent(st *staged, err error) {
	switch {
	case err == nil:
		m.counts.SharesSent++
	case st.retry:
		m.counts.SendErrors++
	default:
		if t := m.tasks[st.p.share.TaskID]; t != nil && t.x.reclaim(st.p) {
			m.counts.SendErrors++
		}
	}
}

// acked takes the transport's verdict on a message of n acks.
func (m *machine) acked(n int, err error) {
	if err != nil {
		m.counts.SendErrors += int64(n)
		return
	}
	m.counts.AcksSent += int64(n)
}

// flooded counts a start flood: the copies forwarded, and those refused.
func (m *machine) flooded(forwarded, refused int) {
	m.counts.StartsForwarded += int64(forwarded)
	m.counts.SendErrors += int64(refused)
}

// commit settles the transfer a, read from the wire with its TaskID's bytes
// id, names, if the node holds its task; an ack of any other is ignored.
func (m *machine) commit(id []byte, now time.Duration, a *ExchangeAck) {
	if t := m.tasks[string(id)]; t != nil {
		t.x.commit(now, a)
	}
}

// massError is the sum of the tasks' conservation residuals: exactly zero
// at every commit point.
func (m *machine) massError() float64 {
	var e float64
	for _, id := range m.ids {
		e += m.tasks[id].x.massError()
	}
	return e
}
