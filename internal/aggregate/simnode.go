package aggregate

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
)

// Transport-level push-sum node: the same task machine as the SOAP-level
// Service, attached directly to a transport.Endpoint. It is what lets
// cmd/wsgossip-sim drive aggregation over the deterministic simulator at
// scales (and loss rates) the SOAP harness does not reach, mirroring how
// the dissemination engine has both a SOAP binding and a simnet binding.
// The protocol is the Service's (machine.go, exchange.go) and so is the
// share on the wire (wire.go): the node only reads the clock and moves
// bodies, one bare share or ack per message.

// SimNodeConfig configures a simulator aggregation node.
type SimNodeConfig struct {
	// Endpoint attaches the node to the simulated network. Required.
	Endpoint transport.Endpoint
	// Peers supplies exchange targets. Required.
	Peers gossip.PeerProvider
	// Fanout is the number of share recipients per round.
	Fanout int
	// TaskID names the single aggregation task the node runs.
	TaskID string
	// Func is the aggregate function.
	Func Func
	// Value is the node's local measurement.
	Value float64
	// Root marks the anchor node for count/sum.
	Root bool
	// RNG drives peer selection; nil falls back to a fixed seed.
	RNG *rand.Rand
	// Window is the epoch length: push-sum restarts at every multiple of it
	// on Clock. Required.
	Window time.Duration
	// Clock supplies the shared time epochs derive from. Required.
	Clock clock.Clock
}

// SimNode is one simulator participant: a machine with one configured task
// that never joins another. All calls arrive from the simulator's
// single-threaded event loop, so no locking is needed.
type SimNode struct {
	cfg SimNodeConfig
	m   *machine
}

// NewSimNode validates cfg and returns a node with its initial state.
func NewSimNode(cfg SimNodeConfig) (*SimNode, error) {
	if cfg.Endpoint == nil || cfg.Peers == nil {
		return nil, fmt.Errorf("aggregate: sim node requires endpoint and peers")
	}
	if cfg.Fanout < 1 {
		return nil, fmt.Errorf("aggregate: sim node fanout must be >= 1, got %d", cfg.Fanout)
	}
	if _, err := ParseFunc(string(cfg.Func)); err != nil {
		return nil, err
	}
	if cfg.Window <= 0 || cfg.Clock == nil {
		return nil, fmt.Errorf("aggregate: sim node requires a positive window and a clock")
	}
	rng := cfg.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	n := &SimNode{cfg: cfg}
	value, root := cfg.Value, cfg.Root
	n.m = newMachine(cfg.Endpoint.Addr(), rng, cfg.Peers, false, func(*exchange) (float64, bool, bool) {
		return value, root, true
	})
	n.m.configure(n.m.newTask(cfg.TaskID, cfg.Func, cfg.Window, "", "", core.AggregateParameters{Fanout: cfg.Fanout}, soap.Block{}), cfg.Clock.Now())
	return n, nil
}

// simActions are a SimNode's wire actions, which Register binds as one route.
var simActions = []string{ActionExchange, ActionExchangeAck}

// Register installs the node's wire actions on the mux, as one route.
func (n *SimNode) Register(mux *transport.Mux) {
	mux.Route(simActions, n.handle)
}

// handle is the node's route: it passes msg to its action's handler.
func (n *SimNode) handle(ctx context.Context, msg transport.Message) error {
	if msg.Action == ActionExchangeAck {
		return n.handleAck(ctx, msg)
	}
	return n.handleExchange(ctx, msg)
}

// x is the node's one task's exchange.
func (n *SimNode) x() *exchange { return n.m.tasks[n.cfg.TaskID].x }

// State exposes the node's push-sum state for the live epoch.
func (n *SimNode) State() *State { return n.x().state }

// Epoch returns the live epoch (0 = not yet rolled).
func (n *SimNode) Epoch() uint64 { return n.x().epoch }

// Frozen returns the last closed epoch's final estimate.
func (n *SimNode) Frozen() (EpochEstimate, bool) { return n.x().frozenEstimate() }

// Outstanding returns the unacked split weight awaiting commit.
func (n *SimNode) Outstanding() float64 { return n.x().led.outstanding }

// Contributed returns the weight this node injected into the live epoch.
func (n *SimNode) Contributed() float64 { return n.x().contributed }

// Stats returns the node's counters.
func (n *SimNode) Stats() Stats { return n.m.counts }

// MassError returns the node's conservation residual: held plus outstanding
// weight minus the ledger's net injections, snapped to exactly zero within
// float tolerance. Under the acked exchange it must be zero at every commit
// point regardless of loss — the aggregate chaos gates assert exactly that.
func (n *SimNode) MassError() float64 { return n.m.massError() }

// send moves one share or ack body.
func (n *SimNode) send(ctx context.Context, to, action string, body []byte) error {
	return n.cfg.Endpoint.Send(ctx, transport.Message{To: to, Action: action, Body: body})
}

// Tick runs one push-sum round (machine.round), sending each share as its
// own message in machine order, and hands each verdict back (machine.sent).
func (n *SimNode) Tick(ctx context.Context) {
	for _, st := range n.m.round(n.cfg.Clock.Now()) {
		n.m.sent(&st, n.send(ctx, st.p.to, ActionExchange, shareBlock(&st.p.share).Raw))
	}
}

// handleExchange absorbs one share of the node's task and acks it. A share
// of another task, or without a window, is dropped unacked.
func (n *SimNode) handleExchange(ctx context.Context, msg transport.Message) error {
	sh, id, err := decodeShare(msg.Body)
	if err != nil {
		return err
	}
	t := n.m.tasks[string(id)]
	if t == nil || sh.WindowMillis <= 0 {
		return nil
	}
	if ack, reply := t.x.absorb(n.cfg.Clock.Now(), &sh); reply {
		n.m.acked(1, n.send(ctx, sh.From, ActionExchangeAck, ackBlock(&ack).Raw))
	}
	return nil
}

// handleAck commits one outstanding transfer at the moment its ack arrives
// — the commit point where MassError is defined to be zero.
func (n *SimNode) handleAck(_ context.Context, msg transport.Message) error {
	ack, id, err := decodeAck(msg.Body)
	if err != nil {
		return err
	}
	n.m.commit(id, n.cfg.Clock.Now(), &ack)
	return nil
}
