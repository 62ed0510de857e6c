package aggregate

import (
	"sort"
	"time"
)

// The consumer view of a node's tasks: the frozen estimate of each closed
// epoch, the live one still mixing, and the accounting hooks the
// conservation tests read.

// ContinuousEstimate is one task's consumer view: the frozen
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

// ContinuousEstimates snapshots every task, sorted by task ID.
func (s *Service) ContinuousEstimates() []ContinuousEstimate {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ContinuousEstimate, 0)
	ids := make([]string, 0, len(s.tasks))
	for id := range s.tasks {
		ids = append(ids, id)
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

// EpochOf returns the live epoch of a task (0 if unknown).
func (s *Service) EpochOf(taskID string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[taskID]; ok {
		return t.x.epoch
	}
	return 0
}

// FrozenEstimate returns the last closed epoch's estimate for a task.
func (s *Service) FrozenEstimate(taskID string) (EpochEstimate, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tasks[taskID]; ok && t.x.frozen != nil {
		return *t.x.frozen, true
	}
	return EpochEstimate{}, false
}

// Outstanding returns a task's unacked outstanding weight and
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
