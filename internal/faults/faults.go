package faults

import (
	"math/rand"
	"sync"
	"time"
)

// Outcome classifies what a link-fault table decided for one send.
type Outcome uint8

// Outcomes of a Table decision, in escalating order of sender visibility.
const (
	// Deliver lets the message proceed (possibly still subject to a loss
	// draw and extra latency).
	Deliver Outcome = iota
	// Refuse fails the send synchronously back to the sender — the
	// connection-refused signal a delivery plane retries and eventually
	// circuit-breaks on.
	Refuse
	// Drop swallows the message after a successful send, the way a
	// partitioned or NAT-filtered datagram path does: the sender learns
	// nothing.
	Drop
)

// String returns the lowercase outcome name.
func (o Outcome) String() string {
	switch o {
	case Deliver:
		return "deliver"
	case Refuse:
		return "refuse"
	case Drop:
		return "drop"
	default:
		return "outcome(?)"
	}
}

// Decision is the verdict for one send plus the rule that produced it, so
// harnesses can keep exact fault↔counter accounting.
type Decision struct {
	// Outcome is the verdict.
	Outcome Outcome
	// Rule names the deciding rule ("" when the outcome is Deliver).
	Rule string
}

// Totals aggregates how many sends the table affected, by effect class.
type Totals struct {
	// Refused counts sends failed synchronously back to the sender.
	Refused int64
	// Dropped counts sends silently swallowed by cut/partition/NAT rules.
	Dropped int64
	// Lost counts sends swallowed by a loss draw.
	Lost int64
}

// Sum returns the total number of affected sends.
func (t Totals) Sum() int64 { return t.Refused + t.Dropped + t.Lost }

type ruleKind uint8

const (
	kindCut ruleKind = iota
	kindRefuse
	kindLoss
	kindDelay
	kindPartition
)

// rule is one directional link rule. from/to are matched per direction (nil
// means any endpoint), which is what makes asymmetry native: a rule for
// A→B says nothing about B→A. kindPartition reuses from as the group set
// and matches any send crossing the group boundary (both directions).
type rule struct {
	name     string
	kind     ruleKind
	from, to map[string]bool
	loss     float64
	delay    time.Duration
}

func (r *rule) matches(from, to string) bool {
	if r.kind == kindPartition {
		return r.from[from] != r.from[to]
	}
	return (r.from == nil || r.from[from]) && (r.to == nil || r.to[to])
}

// Table is a directional link-fault model: an ordered set of per-direction
// refuse/cut/loss/delay rules, a NAT reachability matrix, and a global
// loss probability. It decides, per (from, to) send, whether the message is
// refused, dropped, lost, or delayed — and counts every decision per rule,
// so a harness can assert exact fault↔counter accounting against its own
// fabric counters.
//
// Determinism: the table itself draws no randomness. Lossy consumes exactly
// one draw from the caller's seeded RNG per call, whether or not any loss
// is configured, so installing or healing loss rules never shifts the
// random stream the surrounding fabric (virtBus, simnet) sees for
// unaffected traffic.
type Table struct {
	mu     sync.Mutex
	loss   float64
	rules  []*rule
	nat    map[string]map[string]bool // node -> senders allowed in
	counts map[string]int64
	totals Totals
}

// NewTable returns an empty table: every send delivers.
func NewTable() *Table {
	return &Table{
		nat:    make(map[string]map[string]bool),
		counts: make(map[string]int64),
	}
}

func set(addrs []string) map[string]bool {
	if addrs == nil {
		return nil
	}
	m := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		m[a] = true
	}
	return m
}

func (t *Table) addRule(r *rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules = append(t.rules, r)
}

// Cut installs a named directional partition: sends matching from→to are
// silently dropped. A nil endpoint set matches any address.
func (t *Table) Cut(name string, from, to []string) {
	t.addRule(&rule{name: name, kind: kindCut, from: set(from), to: set(to)})
}

// CutBoth cuts both directions between the two endpoint sets under one name.
func (t *Table) CutBoth(name string, a, b []string) {
	t.Cut(name, a, b)
	t.Cut(name, b, a)
}

// RefuseLink installs a named directional connection fault: sends matching
// from→to fail synchronously back to the sender. A nil endpoint set matches
// any address.
func (t *Table) RefuseLink(name string, from, to []string) {
	t.addRule(&rule{name: name, kind: kindRefuse, from: set(from), to: set(to)})
}

// RefuseBoth refuses both directions between the two endpoint sets under
// one name.
func (t *Table) RefuseBoth(name string, a, b []string) {
	t.RefuseLink(name, a, b)
	t.RefuseLink(name, b, a)
}

// LinkLoss installs a named directional loss probability on matching sends,
// combined independently with the global loss and any other matching rule.
func (t *Table) LinkLoss(name string, from, to []string, p float64) {
	t.addRule(&rule{name: name, kind: kindLoss, from: set(from), to: set(to), loss: p})
}

// LinkDelay adds named extra one-way latency to matching sends.
func (t *Table) LinkDelay(name string, from, to []string, d time.Duration) {
	t.addRule(&rule{name: name, kind: kindDelay, from: set(from), to: set(to), delay: d})
}

// Partition installs a named symmetric split: sends between the group and
// its complement are silently dropped in both directions.
func (t *Table) Partition(name string, group []string) {
	g := set(group)
	if g == nil {
		g = map[string]bool{}
	}
	t.addRule(&rule{name: name, kind: kindPartition, from: g})
}

// Heal removes every rule installed under name.
func (t *Table) Heal(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.rules[:0]
	for _, r := range t.rules {
		if r.name != name {
			kept = append(kept, r)
		}
	}
	t.rules = kept
}

// HealAll removes every link rule and NAT entry and resets the global loss
// to zero. Counters are preserved: healed faults keep their history.
func (t *Table) HealAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules = nil
	t.nat = make(map[string]map[string]bool)
	t.loss = 0
}

// SetLoss sets the global one-way loss probability.
func (t *Table) SetLoss(p float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loss = p
}

// Loss returns the global one-way loss probability.
func (t *Table) Loss() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.loss
}

// SetNAT puts node behind a NAT boundary: inbound sends are refused unless
// the sender is one of the designated relays (or the node itself). The
// node's own outbound traffic is unrestricted, which is what makes the
// fault asymmetric — it can reach anyone, most peers cannot reach it.
func (t *Table) SetNAT(node string, relays ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	allowed := make(map[string]bool, len(relays)+1)
	for _, r := range relays {
		allowed[r] = true
	}
	allowed[node] = true
	t.nat[node] = allowed
}

// ClearNAT removes node's NAT boundary.
func (t *Table) ClearNAT(node string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.nat, node)
}

// Names of the global pseudo-rules in Counts.
const (
	// RuleLoss attributes losses drawn against the global loss probability.
	RuleLoss = "loss"
	// RuleNATPrefix prefixes the NAT'd node's address in NAT refusal counts.
	RuleNATPrefix = "nat:"
)

// Check evaluates the deterministic rules — refuse before drop, so a
// connection fault wins over a silent partition on the same link — and
// counts the decision against the deciding rule. It consumes no
// randomness; call Lossy afterwards for the per-message loss draw.
func (t *Table) Check(from, to string) Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.rules {
		if r.kind == kindRefuse && r.matches(from, to) {
			return t.countLocked(Refuse, r.name)
		}
	}
	if allowed, natted := t.nat[to]; natted && !allowed[from] {
		return t.countLocked(Refuse, RuleNATPrefix+to)
	}
	for _, r := range t.rules {
		if (r.kind == kindCut || r.kind == kindPartition) && r.matches(from, to) {
			return t.countLocked(Drop, r.name)
		}
	}
	return Decision{Outcome: Deliver}
}

func (t *Table) countLocked(o Outcome, name string) Decision {
	t.counts[name]++
	switch o {
	case Refuse:
		t.totals.Refused++
	case Drop:
		t.totals.Dropped++
	}
	return Decision{Outcome: o, Rule: name}
}

// Lossy draws the per-message loss verdict for one send that passed Check,
// combining the global loss with every matching link-loss rule as
// independent events. It always consumes exactly one draw from rng — even
// with no loss configured — so a fabric that calls it once per send draws
// the same stream whatever rules are installed on other links. A hit is
// counted against the first matching link rule, or RuleLoss.
func (t *Table) Lossy(from, to string, rng *rand.Rand) bool {
	t.mu.Lock()
	p := t.loss
	attr := RuleLoss
	for _, r := range t.rules {
		if r.kind == kindLoss && r.matches(from, to) {
			p = 1 - (1-p)*(1-r.loss)
			if attr == RuleLoss {
				attr = r.name
			}
		}
	}
	t.mu.Unlock()
	if rng.Float64() >= p {
		return false
	}
	t.mu.Lock()
	t.counts[attr]++
	t.totals.Lost++
	t.mu.Unlock()
	return true
}

// ExtraDelay returns the summed extra one-way latency of every matching
// delay rule.
func (t *Table) ExtraDelay(from, to string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, r := range t.rules {
		if r.kind == kindDelay && r.matches(from, to) {
			d += r.delay
		}
	}
	return d
}

// Counts returns a copy of the per-rule affected-send counters.
func (t *Table) Counts() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// Totals returns the aggregate affected-send counters.
func (t *Table) Totals() Totals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals
}

// Active reports whether any rule, NAT entry, or global loss is currently
// installed.
func (t *Table) Active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rules) > 0 || len(t.nat) > 0 || t.loss > 0
}
