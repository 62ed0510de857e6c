package aggregate

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/gossip"
	"wsgossip/internal/transport"
)

// Transport-level push-sum node: the same exchange machine as the SOAP-level
// Service, attached directly to a transport.Endpoint. It is what lets
// cmd/wsgossip-sim drive aggregation over the deterministic simulator at
// scales (and loss rates) the SOAP harness does not reach, mirroring how
// the dissemination engine has both a SOAP binding and a simnet binding.
// The protocol is the Service's (exchange.go) and so is the share on the
// wire (wire.go): the node only samples peers, reads the clock and moves
// bodies.

// SimNodeStats counts one simulator node's exchange events.
type SimNodeStats struct {
	// Epochs is how many epoch rolls the node has performed.
	Epochs int64
	// SharesSent counts shares handed to the network without a synchronous
	// refusal (first sends and retries alike).
	SharesSent int64
	// SharesAbsorbed counts shares merged into local mass.
	SharesAbsorbed int64
	// Duplicates counts re-deliveries dropped by (sender, seq) dedup.
	Duplicates int64
	// Stale counts shares from retired epochs (acked, not absorbed).
	Stale int64
	// AcksSent counts acknowledgements handed to the network.
	AcksSent int64
	// Commits counts pending shares settled by an ack.
	Commits int64
	// Retries counts re-sends of still-unacked shares.
	Retries int64
	// Recovered counts shares reclaimed after a synchronous first-send
	// refusal (the only case where mid-epoch recovery is sound).
	Recovered int64
	// UnackedDiscarded counts pending shares retired wholesale at epoch
	// boundaries.
	UnackedDiscarded int64
	// SendErrors counts synchronous send refusals that did not recover mass
	// (retries and acks).
	SendErrors int64
}

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

// SimNode is one simulator participant. All calls arrive from the
// simulator's single-threaded event loop, so no locking is needed.
type SimNode struct {
	cfg SimNodeConfig
	rng *rand.Rand
	x   *exchange
	// The transport's verdicts on what the machine asked to send.
	sharesSent, acksSent, sendErrors int64
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
	n := &SimNode{cfg: cfg, rng: rng}
	// Passive until the first roll. A node created mid-window is absorbed at
	// the NEXT epoch boundary: it relays and holds mass for the in-progress
	// epoch but contributes its own value only from the first epoch that
	// starts after it exists — the same deferral the Service applies to
	// passive joiners, so a joiner never retroactively pollutes an epoch it
	// did not fully live.
	n.x = newExchange(cfg.TaskID, cfg.Endpoint.Addr(), cfg.Func, cfg.Window, "", "")
	n.x.contribute = func() (float64, bool, bool) { return n.cfg.Value, n.cfg.Root, true }
	n.x.contributeFrom = EpochAt(cfg.Clock.Now(), cfg.Window)
	if cfg.Clock.Now()%cfg.Window != 0 {
		n.x.contributeFrom++
	}
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

// State exposes the node's push-sum state for the live epoch.
func (n *SimNode) State() *State { return n.x.state }

// Epoch returns the live epoch (0 = not yet rolled).
func (n *SimNode) Epoch() uint64 { return n.x.epoch }

// Frozen returns the last closed epoch's final estimate.
func (n *SimNode) Frozen() (EpochEstimate, bool) {
	if n.x.frozen == nil {
		return EpochEstimate{}, false
	}
	return *n.x.frozen, true
}

// Outstanding returns the unacked split weight awaiting commit.
func (n *SimNode) Outstanding() float64 { return n.x.led.outstanding }

// Contributed returns the weight this node injected into the live epoch.
func (n *SimNode) Contributed() float64 { return n.x.contributed }

// SimStats returns the exchange counters.
func (n *SimNode) SimStats() SimNodeStats {
	c := n.x.counts
	return SimNodeStats{
		Epochs:           c.epochs,
		SharesSent:       n.sharesSent,
		SharesAbsorbed:   c.absorbed,
		Duplicates:       c.dups,
		Stale:            c.stale,
		AcksSent:         n.acksSent,
		Commits:          c.commits,
		Retries:          c.retries,
		Recovered:        c.recovered,
		UnackedDiscarded: c.unacked,
		SendErrors:       n.sendErrors,
	}
}

// MassError returns the node's conservation residual: held plus outstanding
// weight minus the ledger's net injections, snapped to exactly zero within
// float tolerance. Under the acked exchange it must be zero at every commit
// point regardless of loss — the aggregate chaos gates assert exactly that.
func (n *SimNode) MassError() float64 { return n.x.massError() }

// send moves one share or ack body.
func (n *SimNode) send(ctx context.Context, to, action string, body []byte) error {
	return n.cfg.Endpoint.Send(ctx, transport.Message{To: to, Action: action, Body: body})
}

// Tick runs one push-sum round: the machine's tick — roll when the clock
// crossed a boundary, retry unacked shares, split fresh acked shares for the
// sampled peers — with a refused first send handed straight back.
func (n *SimNode) Tick(ctx context.Context) {
	peers := n.cfg.Peers.SelectPeers(n.rng, n.cfg.Fanout, n.cfg.Endpoint.Addr())
	for _, p := range n.x.tick(n.cfg.Clock.Now(), peers) {
		switch err := n.send(ctx, p.to, ActionExchange, shareBlock(&p.share).Raw); {
		case err == nil:
			n.sharesSent++
		case p.retry():
			n.sendErrors++
		default:
			n.x.reclaim(p)
		}
	}
}

// handleExchange absorbs one share of the node's task and acks it. A share
// without a window is dropped unacked.
func (n *SimNode) handleExchange(ctx context.Context, msg transport.Message) error {
	sh, id, err := decodeShare(msg.Body)
	if err != nil {
		return err
	}
	if string(id) != n.cfg.TaskID || sh.WindowMillis <= 0 {
		return nil
	}
	ack, reply := n.x.absorb(n.cfg.Clock.Now(), &sh)
	if !reply {
		return nil
	}
	if err := n.send(ctx, sh.From, ActionExchangeAck, ackBlock(&ack).Raw); err != nil {
		n.sendErrors++
		return nil
	}
	n.acksSent++
	return nil
}

// handleAck commits one outstanding transfer at the moment its ack arrives
// — the commit point where MassError is defined to be zero.
func (n *SimNode) handleAck(_ context.Context, msg transport.Message) error {
	ack, id, err := decodeAck(msg.Body)
	if err != nil {
		return err
	}
	if string(id) == n.cfg.TaskID {
		n.x.commit(n.cfg.Clock.Now(), &ack)
	}
	return nil
}
