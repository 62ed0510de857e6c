package experiments

import (
	"fmt"
	"strings"
)

// Experiment is one runnable entry of the experiment index in README.md
// ("Running the experiments").
type Experiment struct {
	// ID is the index key ("e0".."e12", "a1".."a3").
	ID string
	// Description summarizes what the experiment validates.
	Description string
	// Run executes the experiment.
	Run func(Options) ([]Table, error)
}

// All returns the full experiment registry in index order: e0 to e12, then
// the ablations.
func All() []Experiment {
	return []Experiment{
		{"e0", "Figure 1 dissemination flow over SOAP", E0Figure1},
		{"e1", "scalability: latency and rounds vs N", E1Scalability},
		{"e2", "coverage vs fanout, atomic delivery w.h.p.", E2FanoutCoverage},
		{"e3", "resilience to crashes and loss vs WS-N broker", E3Resilience},
		{"e4", "stable throughput under perturbation (pbcast)", E4Throughput},
		{"e5", "per-node load balance vs N", E5Load},
		{"e6", "(f, r) configuration table vs analytic model", E6ParameterTable},
		{"e7", "middleware overhead and consumer-unchanged check", E7Overhead},
		{"e8", "distributed coordinator load and consistency", E8DistributedCoordinator},
		{"e9", "dissemination under membership churn", E9Churn},
		{"e10", "aggregation accuracy and convergence vs N", E10Aggregation},
		{"e11", "receiver-bound fan-in: per-delivery decode cost", E11FanIn},
		{"e12", "ablation: windowed exchange share sizing under loss", E12WindowSizing},
		{"a1", "ablation: gossip styles", A1Styles},
		{"a2", "ablation: seen-cache sizing", A2DedupCache},
		{"a3", "ablation: coordinator target assignment", A3TargetAssignment},
	}
}

// Find returns the experiment with the given ID (case-insensitive).
func Find(id string) (Experiment, error) {
	id = strings.ToLower(strings.TrimSpace(id))
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll executes every experiment and returns the concatenated tables.
func RunAll(opt Options) ([]Table, error) {
	var out []Table
	for _, e := range All() {
		tables, err := e.Run(opt)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		out = append(out, tables...)
	}
	return out, nil
}
