package aggregate

import (
	"encoding/xml"
	"fmt"
	"math"

	"wsgossip/internal/core"
)

// Func identifies the aggregate function an interaction computes.
type Func string

// Supported aggregate functions.
const (
	FuncCount Func = "count"
	FuncSum   Func = "sum"
	FuncAvg   Func = "avg"
	FuncMin   Func = "min"
	FuncMax   Func = "max"
)

// ParseFunc validates an aggregate function name.
func ParseFunc(name string) (Func, error) {
	switch Func(name) {
	case FuncCount, FuncSum, FuncAvg, FuncMin, FuncMax:
		return Func(name), nil
	}
	return "", fmt.Errorf("aggregate: unknown function %q", name)
}

// Aggregation protocol SOAP actions.
const (
	// ActionStart disseminates the start of an aggregation task over the
	// coordinator-assigned overlay (hop-bounded flood, deduplicated per
	// task).
	ActionStart = core.Namespace + ":aggregate:start"
	// ActionExchange carries push-sum shares from one peer to another: a
	// Service's round sends every task's shares for a peer in one envelope.
	ActionExchange = core.Namespace + ":aggregate:exchange"
)

// Start announces an aggregation task. It travels with the interaction's
// CoordinationContext header so first-contact services can register.
type Start struct {
	XMLName  xml.Name `xml:"urn:wsgossip:2008 AggregateStart"`
	TaskID   string   `xml:"TaskID"`
	Function string   `xml:"Function"`
	// Root is the address holding the anchor weight for count/sum.
	Root string `xml:"Root"`
	// Hops is the remaining flood budget for re-forwarding the start.
	Hops int `xml:"Hops"`
	// WindowMillis is the epoch length: push-sum restarts every window. A
	// start without a positive one is refused.
	WindowMillis int64 `xml:"WindowMillis,omitempty"`
	// Metric names the local value source the task samples each epoch
	// (resolved against ServiceConfig.Values, falling back to Value).
	Metric string `xml:"Metric,omitempty"`
}

// Share is one push-sum exchange: a (sum, weight) mass transfer plus the
// idempotent extreme merge for min/max tasks. It also travels with the
// CoordinationContext header, so a service that missed the start can still
// join passively and conserve the mass it receives.
type Share struct {
	XMLName  xml.Name `xml:"urn:wsgossip:2008 AggregateShare"`
	TaskID   string   `xml:"TaskID"`
	Function string   `xml:"Function"`
	From     string   `xml:"From"`
	Sum      float64  `xml:"Sum"`
	Weight   float64  `xml:"Weight"`
	// HasExtremes marks Min/Max as valid (a passive node has none yet).
	HasExtremes bool    `xml:"HasExtremes"`
	Min         float64 `xml:"Min,omitempty"`
	Max         float64 `xml:"Max,omitempty"`
	// A share carries everything a node that never saw the start needs to
	// join: the window (a share without a positive one is refused), the
	// epoch, the anchor address, and the metric name. Seq is the sender's
	// per-task sequence number — the receiver dedups on (From, Seq) so a
	// retried share is absorbed exactly once, and the ack quotes it back.
	WindowMillis int64  `xml:"WindowMillis,omitempty"`
	Epoch        uint64 `xml:"Epoch,omitempty"`
	Seq          uint64 `xml:"Seq,omitempty"`
	Root         string `xml:"Root,omitempty"`
	Metric       string `xml:"Metric,omitempty"`
}

// minWeight is the weight below which an estimate is considered undefined
// (a passive node that has not yet received meaningful mass).
const minWeight = 1e-12

// State is one node's push-sum state for one epoch of an aggregation task.
// It is pure protocol math — no I/O — and unit-testable in isolation.
type State struct {
	fn     Func
	sum    float64
	weight float64

	hasExtremes bool
	min, max    float64

	rounds int
}

// NewState returns the initial state of one participant.
//
//	avg:      (value, 1) everywhere — estimates converge to the mean.
//	sum:      (value, 0); the root contributes the single anchor weight.
//	count:    (1, 0);     idem — estimates converge to the population size.
//	min/max:  extremes only; (sum, weight) stay zero.
//
// root marks the anchor node (normally the Querier); passive marks a node
// that contributes no local value (it relays mass but adds none).
func NewState(fn Func, value float64, root, passive bool) *State {
	s := &State{fn: fn}
	if !passive {
		switch fn {
		case FuncAvg:
			s.sum, s.weight = value, 1
		case FuncSum:
			s.sum = value
		case FuncCount:
			s.sum = 1
		case FuncMin, FuncMax:
			s.hasExtremes, s.min, s.max = true, value, value
		}
	}
	if root && (fn == FuncSum || fn == FuncCount) {
		s.weight++
	}
	return s
}

// Func returns the task's aggregate function.
func (s *State) Func() Func { return s.fn }

// Rounds returns how many exchange rounds the node has run.
func (s *State) Rounds() int { return s.rounds }

// Mass returns the node's current (sum, weight) pair — the conserved
// quantities.
func (s *State) Mass() (sum, weight float64) { return s.sum, s.weight }

// Estimate returns the node's current estimate and whether it is defined.
func (s *State) Estimate() (float64, bool) {
	switch s.fn {
	case FuncMin:
		return s.min, s.hasExtremes
	case FuncMax:
		return s.max, s.hasExtremes
	}
	if s.weight < minWeight {
		return 0, false
	}
	return s.sum / s.weight, true
}

// Split starts a round: it carves the state into n+1 equal shares, keeps one,
// and returns the n outgoing (sum, weight) shares' common value. Extremes are
// copied, not split — they merge idempotently.
func (s *State) Split(n int) (shareSum, shareWeight float64) {
	if n <= 0 {
		return 0, 0
	}
	s.rounds++
	parts := float64(n + 1)
	shareSum = s.sum / parts
	shareWeight = s.weight / parts
	s.sum -= shareSum * float64(n)
	s.weight -= shareWeight * float64(n)
	return shareSum, shareWeight
}

// Absorb merges an incoming share into the state.
func (s *State) Absorb(sh Share) {
	s.sum += sh.Sum
	s.weight += sh.Weight
	if sh.HasExtremes {
		if !s.hasExtremes {
			s.hasExtremes = true
			s.min, s.max = sh.Min, sh.Max
		} else {
			s.min = math.Min(s.min, sh.Min)
			s.max = math.Max(s.max, sh.Max)
		}
	}
}
