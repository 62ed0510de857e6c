package aggregate

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// exchange is one task's push-sum custody, written once for both bindings:
// the State, its conservation ledger, the epoch, and the seq/ack machinery
// that makes a transfer pairwise-atomic. It is the sans-IO half of a task:
// no lock, no clock, no sends. The task machine (machine.go) owns it and
// passes in the time and the targets it drew; the binding that serializes
// the machine supplies the node's contribution at each roll and moves the
// bytes of whatever a transition hands back. Every transition — tick,
// absorb, commit — rolls the epoch first when due; reclaim never does.
type exchange struct {
	// taskID and addr are stamped on every outgoing share and ack.
	taskID, addr string
	state        *State
	led          ledger
	// counts is the machine's: every transition counts its events there.
	counts *Stats

	// window, root and metric also ride on every share, so a node that never
	// saw the start can join from one.
	window       time.Duration
	root, metric string
	// contribute is the binding's policy at a roll: the node's local value,
	// whether it holds the count/sum anchor, and ok=false for a node with no
	// value source (it relays passively).
	contribute func() (value float64, root, ok bool)
	// epoch is the 1-based live epoch; 0 until the first roll.
	epoch uint64
	// contributeFrom is the first epoch the node contributes into. A node
	// that joins mid-window relays passively for the rest of that window and
	// is absorbed at the next boundary, never retroactively.
	contributeFrom uint64
	// nextSeq allocates share sequence numbers. Never reset: a seq names one
	// transfer across retries and epochs.
	nextSeq uint64
	// pending holds split shares not yet acknowledged, keyed by seq.
	pending map[uint64]*pendingShare
	// seen dedups absorbed shares per sender for the live epoch.
	seen map[string]map[uint64]struct{}
	// frozen is the last closed epoch's final estimate.
	frozen *EpochEstimate
	// contributed is the weight this node injected into the live epoch
	// (contribution plus anchor) — the conservation tests' ground truth.
	contributed float64
	// holders lists the peers with evidence of holding the task — an ack
	// from a peer committing a share sent to it, or a share absorbed from
	// it — each with the live epoch of its latest evidence. A fresh share to
	// a listed peer needs no join data (pendingShare.join). A peer leaves the
	// list when a first send to it is reclaimed, and at the roll into the
	// second epoch without evidence from it, so under churn the list holds
	// only the peers heard from lately. It is kept only when trackHolders is
	// set: the Service's shares carry join data, the SimNode's never do.
	holders      []holder
	trackHolders bool
}

// holder is one entry of exchange.holders.
type holder struct {
	peer  string
	epoch uint64
}

// pendingShare is one outstanding transfer: the share as sent (so retries are
// byte-identical), and how often it has been retried.
type pendingShare struct {
	to    string
	share Share
	tries int
	// known is set when the share was split for a peer with evidence of
	// holding the task.
	known bool
}

// retry reports whether a staged send re-sends a share that already went out
// once. A refused retry proves nothing — an earlier copy may have arrived —
// so only a refused first send may be reclaimed.
func (p *pendingShare) retry() bool { return p.tries > 0 }

// join reports whether a staged send must carry what a peer needs to join
// the task (on the Service's wire, the task's coordination context): a first
// send to a peer not known to hold the task does, and so does every retry,
// because a missing ack means the peer may have lost the task.
func (p *pendingShare) join() bool { return p.retry() || !p.known }

// suspectTries is the per-target timeout, measured in exchange rounds: a
// target whose oldest unacked share has been retried this many times is
// excluded from new share fan-out for the rest of the epoch. The pending
// share itself keeps being retried — if the target heals, the ack commits
// the transfer; if not, the epoch boundary recovers the mass by retiring
// the epoch.
const suspectTries = 3

// massSnapTol is the relative tolerance below which a task's ledger balance
// is treated as float residue and snapped to exactly zero. The ledger and
// the push-sum state apply the same share values through different
// expression trees, so sub-ulp drift accumulates; real conservation bugs
// (a lost share's worth of mass) sit many orders of magnitude above this.
const massSnapTol = 1e-9

// ledger is one task's conservation account. Mass held by the push-sum
// state plus mass split off but not yet acknowledged (outstanding) must
// equal everything that entered local custody (in) minus everything whose
// transfer was committed (out). A split share sits in outstanding until its
// ack.
type ledger struct {
	in          float64
	out         float64
	outstanding float64
}

// balance returns the task's conservation error given the weight its state
// currently holds, with sub-ulp residue snapped to exactly zero.
func (l *ledger) balance(held float64) float64 {
	bal := (held + l.outstanding) - (l.in - l.out)
	scale := math.Max(1, math.Abs(l.in)+math.Abs(l.out))
	if math.Abs(bal) <= massSnapTol*scale {
		return 0
	}
	return bal
}

// newExchange returns task taskID's exchange at addr for function fn,
// counting into counts, not yet rolled into any epoch: it holds no mass
// until the first roll contributes.
func newExchange(taskID, addr string, fn Func, window time.Duration, root, metric string, counts *Stats) *exchange {
	return &exchange{taskID: taskID, addr: addr, state: NewState(fn, 0, false, true), window: window, root: root, metric: metric, counts: counts}
}

// massError is the conservation residual: exactly zero at every commit point
// — contribution, split, absorb, ack commit, reclaim, epoch roll — because
// mass that is merely in flight sits in the outstanding account.
func (x *exchange) massError() float64 {
	_, w := x.state.Mass()
	return x.led.balance(w)
}

// frozenEstimate returns the last closed epoch's final estimate; false
// while the first window is still open.
func (x *exchange) frozenEstimate() (EpochEstimate, bool) {
	if x.frozen == nil {
		return EpochEstimate{}, false
	}
	return *x.frozen, true
}

// admissible reports whether every number sh would add to local state is
// finite and its weight is not negative. A share failing this is dropped
// unacked at intake: absorbed, it would poison the estimate and the ledger
// for ever, and every later split would carry the poison on.
func admissible(sh *Share) bool {
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	return finite(sh.Sum) && finite(sh.Weight) && sh.Weight >= 0 &&
		(!sh.HasExtremes || finite(sh.Min) && finite(sh.Max))
}

// fits reports whether absorbing sh keeps the state's mass and the ledger
// finite. Admissible shares can still overflow float64 together — no honest
// node holds mass within orders of magnitude of that — and an infinite sum or
// weight would poison the task as a non-finite share would, so absorb ignores
// such a share unacked, like an inadmissible one.
func (x *exchange) fits(sh *Share) bool {
	sum, w := x.state.Mass()
	return !math.IsInf(sum+sh.Sum, 0) && !math.IsInf(w+sh.Weight, 0) && !math.IsInf(x.led.in+sh.Weight, 0)
}

// tooFarAhead reports whether epoch k is more than one past the local epoch
// at now. A share or ack claiming such an epoch is ignored outright: acted
// on, one message would roll this node — and through its acks every node it
// talks to — into an epoch the clock never reaches, freezing the task.
func (x *exchange) tooFarAhead(now time.Duration, k uint64) bool {
	return k > EpochAt(now, x.window)+1
}

// roll retires the live epoch and enters epoch k; a k that is not ahead is a
// no-op. The old epoch's outstanding shares, dedup state and ledger are
// discarded as a unit — its balance was zero, so removing all of it keeps the
// residual at zero, and any absorbed-but-unacked ambiguity dies with the
// epoch. The node then re-contributes into fresh state.
func (x *exchange) roll(k uint64, now time.Duration) {
	if k <= x.epoch {
		return
	}
	if x.epoch != 0 {
		est, ok := x.state.Estimate()
		_, w := x.state.Mass()
		x.frozen = &EpochEstimate{
			Epoch:    x.epoch,
			Estimate: est,
			Defined:  ok,
			Weight:   w,
			Rounds:   x.state.Rounds(),
			ClosedAt: now,
		}
	}
	x.counts.UnackedDropped += int64(len(x.pending))
	x.pending = make(map[uint64]*pendingShare)
	x.holders = slices.DeleteFunc(x.holders, func(h holder) bool { return h.epoch+1 < k })
	x.seen = make(map[string]map[uint64]struct{})
	x.epoch = k
	var value float64
	root, passive := false, true
	if k >= x.contributeFrom {
		var ok bool
		value, root, ok = x.contribute()
		passive = !ok
	}
	x.state = NewState(x.state.Func(), value, root, passive)
	_, w := x.state.Mass()
	x.led = ledger{in: w}
	x.contributed = w
	x.counts.Epochs++
}

// tick runs one round at time now and appends the sends to perform to dst,
// in order: every outstanding share again, in seq order (the receiver dedups
// on (From, Seq), so a share whose first copy arrived but whose ack was lost
// is absorbed exactly once and simply re-acked), then one fresh share per
// target. targets is the round's sample for the task; it is filtered in
// place of targets whose oldest pending share has timed out (suspectTries).
// A fresh share to a peer in holders is known, so its first send needs no
// join data. A send the transport refuses synchronously goes to reclaim
// unless it is a retry.
func (x *exchange) tick(now time.Duration, targets []string, dst []staged) []staged {
	x.roll(EpochAt(now, x.window), now)
	base := len(dst)
	for _, p := range x.pending {
		dst = append(dst, staged{p: p})
	}
	retries := dst[base:]
	slices.SortFunc(retries, func(a, b staged) int { return cmp.Compare(a.p.share.Seq, b.p.share.Seq) })
	for i := range retries {
		p := retries[i].p
		p.tries++
		retries[i].retry, retries[i].join = p.retry(), p.join()
		if p.tries >= suspectTries {
			targets = slices.DeleteFunc(targets, func(tg string) bool { return tg == p.to })
		}
	}
	x.counts.Retries += int64(len(retries))
	if len(targets) == 0 {
		return dst
	}
	x.counts.Rounds++
	sum, w := x.state.Split(len(targets))
	for _, tg := range targets {
		x.nextSeq++
		p := &pendingShare{to: tg, known: x.holds(tg), share: Share{
			TaskID:       x.taskID,
			Function:     string(x.state.fn),
			From:         x.addr,
			Sum:          sum,
			Weight:       w,
			HasExtremes:  x.state.hasExtremes,
			Min:          x.state.min,
			Max:          x.state.max,
			WindowMillis: x.window.Milliseconds(),
			Epoch:        x.epoch,
			Seq:          x.nextSeq,
			Root:         x.root,
			Metric:       x.metric,
		}}
		x.pending[x.nextSeq] = p
		// Outstanding is charged per share (not batched) so a later
		// per-share reclaim or commit cancels its entry term-for-term.
		x.led.outstanding += w
		dst = append(dst, staged{p: p, retry: p.retry(), join: p.join()})
	}
	return dst
}

// absorb takes one inbound share at time now and returns the ack for it;
// reply is false when there is nobody to ack (no sender, or the node
// itself). A share of the live epoch is absorbed once per (From, Seq). A
// share from a retired epoch is acked without absorbing — its mass died with
// that epoch everywhere, and the ack both stops the retries and rolls the
// sender forward. A share from the next epoch rolls this node forward first:
// epochs spread epidemically, the clock is only the local trigger. A share
// that is not admissible, is tooFarAhead, or does not fit is ignored and not
// acked.
func (x *exchange) absorb(now time.Duration, sh *Share) (ack ExchangeAck, reply bool) {
	if !admissible(sh) || x.tooFarAhead(now, sh.Epoch) {
		return ack, false
	}
	x.roll(max(EpochAt(now, x.window), sh.Epoch), now)
	if sh.Epoch == x.epoch {
		m := x.seen[sh.From]
		if m == nil {
			m = make(map[uint64]struct{})
			x.seen[sh.From] = m
		}
		if _, dup := m[sh.Seq]; dup {
			x.counts.DuplicateShares++
		} else if !x.fits(sh) {
			return ack, false
		} else {
			m[sh.Seq] = struct{}{}
			x.state.Absorb(*sh)
			x.led.in += sh.Weight
			x.counts.SharesAbsorbed++
			x.prove(sh.From)
		}
	} else {
		x.counts.StaleShares++
	}
	ack = ExchangeAck{TaskID: x.taskID, From: x.addr, Epoch: x.epoch, Seq: sh.Seq}
	return ack, sh.From != "" && sh.From != x.addr
}

// commit settles one outstanding transfer: the share's mass moves from the
// outstanding account to committed-out at the moment the ack arrives. An ack
// from the next epoch also rolls this node forward; one tooFarAhead is
// ignored.
func (x *exchange) commit(now time.Duration, ack *ExchangeAck) {
	if x.tooFarAhead(now, ack.Epoch) {
		return
	}
	if p, ok := x.pending[ack.Seq]; ok {
		delete(x.pending, ack.Seq)
		x.led.outstanding -= p.share.Weight
		x.led.out += p.share.Weight
		x.counts.Commits++
		if p.to == ack.From {
			x.prove(p.to)
		}
	}
	x.roll(ack.Epoch, now)
}

// reclaim takes back a share whose first send was refused synchronously: it
// provably never left this node, so the mass moves straight from outstanding
// back to held (in/out untouched, the cancellation stays term-exact). The
// refusal may be a peer's that lost the task, so the peer is no longer known
// to hold it. It reports false for a share no longer pending — committed, or
// retired with its epoch, while the send was in progress.
func (x *exchange) reclaim(p *pendingShare) bool {
	if x.pending[p.share.Seq] != p {
		return false
	}
	delete(x.pending, p.share.Seq)
	x.state.Absorb(p.share)
	x.led.outstanding -= p.share.Weight
	x.counts.Recovered++
	x.holders = slices.DeleteFunc(x.holders, func(h holder) bool { return h.peer == p.to })
	return true
}

// holds reports whether peer has shown evidence of holding the task in the
// live epoch or the one before: every transition but reclaim rolls first,
// and a roll drops older entries.
func (x *exchange) holds(peer string) bool {
	for i := range x.holders {
		if x.holders[i].peer == peer {
			return true
		}
	}
	return false
}

// prove records evidence, in the live epoch, that peer holds the task.
func (x *exchange) prove(peer string) {
	if !x.trackHolders || peer == "" || peer == x.addr {
		return
	}
	for i := range x.holders {
		if x.holders[i].peer == peer {
			x.holders[i].epoch = x.epoch
			return
		}
	}
	x.holders = append(x.holders, holder{peer: peer, epoch: x.epoch})
}
