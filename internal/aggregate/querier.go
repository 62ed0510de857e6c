package aggregate

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/metrics"
	"wsgossip/internal/soap"
	"wsgossip/internal/wscoord"
)

// QuerierConfig configures a Querier.
type QuerierConfig struct {
	// Address is the querier's endpoint address. Subscribe it with the
	// Coordinator (advertising core.ProtocolAggregate) so peers' exchange
	// overlays include it — the anchor weight it seeds must mix with the
	// population's mass.
	Address string
	// Caller sends SOAP messages.
	Caller soap.Caller
	// Activation is the Coordinator's Activation service address.
	Activation string
	// Value optionally contributes the querier's own local value; nil
	// (the common case) makes it a passive anchor.
	Value func() float64
	// RNG drives peer sampling; nil falls back to a fixed seed.
	RNG *rand.Rand
	// Metrics is forwarded to the querier's embedded participant Service;
	// nil uses a private registry.
	Metrics *metrics.Registry
	// Clock, Values, and Peers are forwarded to the embedded Service: the
	// shared clock epochs derive from, the named local value sources queries
	// sample, and the live peer view exchange targets are drawn from (see
	// ServiceConfig).
	Clock  clock.Clock
	Values map[string]func() float64
	Peers  core.PeerView
}

// Querier is the aggregation counterpart of the Initiator role: the one
// node whose application code changes. It activates an aggregation
// interaction, seeds the anchor weight that count/sum queries need every
// epoch, and disseminates the start message. Its embedded Service is the
// participant it exchanges as, like any other node.
type Querier struct {
	*Service
	activation *wscoord.ActivationClient
	// coordinator is the Coordinator's Activation service address.
	coordinator string
}

// Task is one activated aggregation interaction as seen by its querier.
type Task struct {
	// ID is the task (= coordination activity) identifier.
	ID string
	// Func is the aggregate function being computed.
	Func Func
	// Params carries the coordinator-assigned configuration.
	Params core.AggregateParameters
	// Context is the interaction's coordination context.
	Context wscoord.CoordinationContext
}

// NewQuerier returns a querier.
func NewQuerier(cfg QuerierConfig) (*Querier, error) {
	if cfg.Address == "" || cfg.Caller == nil || cfg.Activation == "" {
		return nil, fmt.Errorf("aggregate: querier config requires address, caller, and activation address")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	// The first draw is skipped: seeded runs are recorded with the service
	// sampling targets from the second draw on.
	rng.Int63()
	svc, err := NewService(ServiceConfig{
		Address: cfg.Address,
		Caller:  cfg.Caller,
		Value:   cfg.Value,
		RNG:     rng,
		Metrics: cfg.Metrics,
		Clock:   cfg.Clock,
		Values:  cfg.Values,
		Peers:   cfg.Peers,
	})
	if err != nil {
		return nil, err
	}
	return &Querier{
		Service:     svc,
		activation:  wscoord.NewActivationClient(cfg.Caller, cfg.Address),
		coordinator: cfg.Activation,
	}, nil
}

// StartContinuous activates an epoch-windowed aggregation: it registers
// the querier (obtaining fanout, hop budget and targets), installs the task
// as its root, and disseminates the start over the assigned overlay. Every
// node restarts push-sum at each window boundary on the shared clock, so the
// estimate tracks churn. name selects the participants' local value source
// (ServiceConfig.Values) and labels the query for consumers. The querier
// re-seeds the anchor weight every epoch. A start that reaches none of its
// targets leaves no task behind.
func (q *Querier) StartContinuous(ctx context.Context, name string, fn Func, window time.Duration) (*Task, error) {
	if _, err := ParseFunc(string(fn)); err != nil {
		return nil, err
	}
	if window <= 0 {
		return nil, fmt.Errorf("aggregate: continuous aggregation requires a positive window, got %v", window)
	}
	cctx, err := q.activation.Create(ctx, q.coordinator, core.CoordinationTypeGossip)
	if err != nil {
		return nil, fmt.Errorf("aggregate: activate interaction: %w", err)
	}
	params, err := q.registerTask(ctx, cctx)
	if err != nil {
		return nil, fmt.Errorf("aggregate: register querier: %w", err)
	}
	q.install(cctx.Identifier, fn, window, q.Address(), name, params, cctx)
	start := Start{
		TaskID:       cctx.Identifier,
		Function:     string(fn),
		Root:         q.Address(),
		Hops:         params.Hops,
		WindowMillis: window.Milliseconds(),
		Metric:       name,
	}
	if len(params.Targets) > 0 {
		// The start flood is one logical message: written once, a
		// per-target copy rendered at wsa:To (encode-once wire path).
		sent, failed, err := floodStart(ctx, q.cfg.Caller, cctx, start, params.Targets)
		if err != nil {
			q.dropTask(cctx.Identifier)
			return nil, err
		}
		q.mu.Lock()
		q.m.flooded(0, len(failed))
		q.unlock()
		if sent == 0 {
			q.dropTask(cctx.Identifier)
			return nil, fmt.Errorf("aggregate: start reached none of %d targets", len(params.Targets))
		}
	}
	return &Task{ID: cctx.Identifier, Func: fn, Params: params, Context: cctx}, nil
}
