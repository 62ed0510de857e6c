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
// epoch, and disseminates the start message.
type Querier struct {
	cfg        QuerierConfig
	svc        *Service
	activation *wscoord.ActivationClient
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
		cfg:        cfg,
		svc:        svc,
		activation: wscoord.NewActivationClient(cfg.Caller, cfg.Address),
	}, nil
}

// Address returns the querier's endpoint address.
func (q *Querier) Address() string { return q.cfg.Address }

// Handler returns the querier's SOAP handler (it participates in exchanges
// like any aggregation service).
func (q *Querier) Handler() soap.Handler { return q.svc.Handler() }

// RegisterActions installs the querier's aggregation actions on an existing
// dispatcher, for stacks that colocate the querier with other services
// (e.g. a Disseminator) on one endpoint.
func (q *Querier) RegisterActions(d *soap.Dispatcher) { q.svc.RegisterActions(d) }

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
	cctx, err := q.activation.Create(ctx, q.cfg.Activation, core.CoordinationTypeGossip)
	if err != nil {
		return nil, fmt.Errorf("aggregate: activate interaction: %w", err)
	}
	params, err := q.svc.registerTask(ctx, cctx)
	if err != nil {
		return nil, fmt.Errorf("aggregate: register querier: %w", err)
	}
	q.svc.startContinuousLocal(cctx.Identifier, fn, cctx, params, window, name)
	start := Start{
		TaskID:       cctx.Identifier,
		Function:     string(fn),
		Root:         q.cfg.Address,
		Hops:         params.Hops,
		WindowMillis: window.Milliseconds(),
		Metric:       name,
	}
	if len(params.Targets) > 0 {
		// The start flood is one logical message: written once, a
		// per-target copy rendered at wsa:To (encode-once wire path).
		sent, failed, err := floodStart(ctx, q.cfg.Caller, cctx, start, params.Targets)
		if err != nil {
			q.svc.dropTask(cctx.Identifier)
			return nil, err
		}
		q.svc.stats.sendErrors.Add(int64(len(failed)))
		if sent == 0 {
			q.svc.dropTask(cctx.Identifier)
			return nil, fmt.Errorf("aggregate: start reached none of %d targets", len(params.Targets))
		}
	}
	return &Task{ID: cctx.Identifier, Func: fn, Params: params, Context: cctx}, nil
}

// Tick runs one of the querier's own exchange rounds.
func (q *Querier) Tick(ctx context.Context) { q.svc.Tick(ctx) }

// EpochOf returns the querier's live epoch for a task.
func (q *Querier) EpochOf(taskID string) uint64 { return q.svc.EpochOf(taskID) }

// FrozenEstimate returns the querier's last closed-epoch estimate for a
// task.
func (q *Querier) FrozenEstimate(taskID string) (EpochEstimate, bool) {
	return q.svc.FrozenEstimate(taskID)
}

// ActivityCount is the querier participant's monotonic traffic counter
// (see Service.ActivityCount); it lets an adaptive Runner pace the
// querier's exchange loop.
func (q *Querier) ActivityCount() uint64 { return q.svc.ActivityCount() }

// OnActivity registers the adaptive Runner's snap-back callback (see
// Service.OnActivity).
func (q *Querier) OnActivity(fn func()) { q.svc.OnActivity(fn) }

// Estimate returns the querier's live local estimate for the task.
func (q *Querier) Estimate(taskID string) (float64, bool) { return q.svc.Estimate(taskID) }

// Stats returns the querier's participant counters.
func (q *Querier) Stats() ServiceStats { return q.svc.Stats() }
