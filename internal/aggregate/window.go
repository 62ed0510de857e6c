package aggregate

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ContinuousQuery declares one cluster-wide quantity a Window keeps fresh:
// a name (doubles as the metric resolved against ServiceConfig.Values) and
// the aggregate function over it.
type ContinuousQuery struct {
	Name string
	Func Func
}

// WindowConfig configures a Window controller.
type WindowConfig struct {
	// Querier is the node driving the continuous queries: it activates
	// each query's coordination activity once and participates in every
	// epoch's exchanges like any other node.
	Querier *Querier
	// Window is the epoch length. Each query restarts push-sum at every
	// multiple of it on the shared clock.
	Window time.Duration
	// Queries are the cluster quantities to maintain (e.g. node count,
	// average load, max lag).
	Queries []ContinuousQuery
}

// Window is the continuous-query controller: driven as a core.Runner
// aggregate loop on the shared clock, it starts each configured query
// once (retrying while the coordinator is unreachable) and then ticks the
// underlying participant, whose epoch machinery restarts push-sum every
// window. Every node in the deployment ends up holding a fresh estimate of
// each queried quantity that tracks churn epoch by epoch.
type Window struct {
	cfg WindowConfig

	mu    sync.Mutex
	tasks map[string]*Task // by query name, once started
}

// NewWindow validates cfg and returns a controller. Nothing is activated
// until the first Tick, so a Window can be built before the coordinator is
// reachable.
func NewWindow(cfg WindowConfig) (*Window, error) {
	if cfg.Querier == nil {
		return nil, fmt.Errorf("aggregate: window config requires a querier")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("aggregate: window config requires a positive window, got %v", cfg.Window)
	}
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("aggregate: window config requires at least one query")
	}
	seen := make(map[string]bool, len(cfg.Queries))
	for _, q := range cfg.Queries {
		if q.Name == "" {
			return nil, fmt.Errorf("aggregate: continuous query requires a name")
		}
		if seen[q.Name] {
			return nil, fmt.Errorf("aggregate: duplicate continuous query %q", q.Name)
		}
		seen[q.Name] = true
		if _, err := ParseFunc(string(q.Func)); err != nil {
			return nil, err
		}
	}
	return &Window{cfg: cfg, tasks: make(map[string]*Task)}, nil
}

// Tick is the Runner hook: start any query not yet activated, then run one
// exchange round (which also rolls epochs at window boundaries).
func (w *Window) Tick(ctx context.Context) {
	for _, q := range w.cfg.Queries {
		w.mu.Lock()
		_, started := w.tasks[q.Name]
		w.mu.Unlock()
		if started {
			continue
		}
		tk, err := w.cfg.Querier.StartContinuous(ctx, q.Name, q.Func, w.cfg.Window)
		if err != nil {
			continue // coordinator unreachable; retry next tick
		}
		w.mu.Lock()
		w.tasks[q.Name] = tk
		w.mu.Unlock()
	}
	w.cfg.Querier.Tick(ctx)
}

// Task returns the activated task behind a query name, once started.
func (w *Window) Task(name string) (*Task, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	tk, ok := w.tasks[name]
	return tk, ok
}

// ClusterEstimate is one continuous query's health view: the stable
// estimate from the last closed epoch plus the still-mixing live one.
// Consumers may assume the frozen estimate is at most one window plus one
// exchange round stale, and that a churn event is fully reflected within
// one epoch of the boundary that follows it.
type ClusterEstimate struct {
	Query    string  `json:"query"`
	Function string  `json:"function"`
	TaskID   string  `json:"taskId"`
	Window   string  `json:"window"`
	Epoch    uint64  `json:"epoch"`
	Estimate float64 `json:"estimate"`
	Defined  bool    `json:"defined"`
	// FrozenEpoch is the closed epoch Estimate came from (0 while the
	// first window is still open and only Live is available).
	FrozenEpoch uint64  `json:"frozenEpoch"`
	Live        float64 `json:"live"`
	LiveDefined bool    `json:"liveDefined"`
}

// Estimates snapshots every started query, ordered as configured.
func (w *Window) Estimates() []ClusterEstimate {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]ClusterEstimate, 0, len(w.cfg.Queries))
	for _, q := range w.cfg.Queries {
		tk, ok := w.tasks[q.Name]
		if !ok {
			continue
		}
		est := ClusterEstimate{Query: q.Name, TaskID: tk.ID}
		if w.cfg.Querier.read(tk.ID, func(x *exchange) {
			est.Function, est.Window, est.Epoch = string(x.state.Func()), x.window.String(), x.epoch
			est.Live, est.LiveDefined = x.state.Estimate()
			if f, ok := x.frozenEstimate(); ok {
				est.Estimate, est.Defined, est.FrozenEpoch = f.Estimate, f.Defined, f.Epoch
			}
		}) {
			out = append(out, est)
		}
	}
	return out
}
