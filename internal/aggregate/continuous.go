package aggregate

// The per-task accessors: the live estimate and mass, the epoch, the frozen
// estimate of the last closed epoch, and the accounting hooks the
// conservation tests read, each through one lookup in the task machine.

// read calls f with task taskID's exchange under the lock and reports
// whether the node holds the task: the one lookup every per-task accessor
// reads through.
func (s *Service) read(taskID string, f func(x *exchange)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.m.tasks[taskID]
	if t != nil {
		f(t.x)
	}
	return t != nil
}

// Estimate returns the node's current estimate for the task.
func (s *Service) Estimate(taskID string) (est float64, ok bool) {
	s.read(taskID, func(x *exchange) { est, ok = x.state.Estimate() })
	return est, ok
}

// Mass returns the node's conserved (sum, weight) pair for the task.
func (s *Service) Mass(taskID string) (sum, weight float64, ok bool) {
	ok = s.read(taskID, func(x *exchange) { sum, weight = x.state.Mass() })
	return sum, weight, ok
}

// EpochOf returns the live epoch of a task (0 if unknown).
func (s *Service) EpochOf(taskID string) (epoch uint64) {
	s.read(taskID, func(x *exchange) { epoch = x.epoch })
	return epoch
}

// FrozenEstimate returns the last closed epoch's estimate for a task.
func (s *Service) FrozenEstimate(taskID string) (est EpochEstimate, ok bool) {
	s.read(taskID, func(x *exchange) { est, ok = x.frozenEstimate() })
	return est, ok
}

// Outstanding returns a task's unacked outstanding weight and
// the weight this node contributed into the live epoch — the conservation
// property tests' accounting hooks.
func (s *Service) Outstanding(taskID string) (outstanding, contributed float64) {
	s.read(taskID, func(x *exchange) { outstanding, contributed = x.led.outstanding, x.contributed })
	return outstanding, contributed
}
