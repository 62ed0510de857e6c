package simnet

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/faults"
	"wsgossip/internal/transport"
)

// Config controls link and node behaviour.
type Config struct {
	// Seed initializes the simulation RNG. Two runs with equal seeds and
	// equal workloads produce identical event sequences.
	Seed int64
	// MinLatency and MaxLatency bound per-message link delay (uniform).
	MinLatency time.Duration
	MaxLatency time.Duration
	// LossRate is the probability in [0,1] that any message is dropped: the
	// initial global loss of the network's fault table.
	LossRate float64
}

// DefaultConfig returns a LAN-like configuration: 1-5 ms links, no loss.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:       seed,
		MinLatency: time.Millisecond,
		MaxLatency: 5 * time.Millisecond,
	}
}

// Stats aggregates network-level observations for an experiment run.
type Stats struct {
	Sent      int64
	Delivered int64
	Dropped   int64
	Bytes     int64
	// FaultRefused counts sends refused synchronously by the fault table
	// (refuse rules and NAT) — the sender saw a connection error.
	FaultRefused int64
	// FaultDropped counts sends silently dropped by the fault table: cut
	// and partition rules, link-loss rules and the global loss. Also
	// included in Dropped, which further counts sends to an unknown, crashed
	// or departed node.
	FaultDropped int64
}

// Network is the simulated fabric. Scheduling rides on a clock.Virtual —
// the network's own by default, or one shared with other timelines (a
// core.Runner's round timers, another network) via NewOnClock, so protocol
// timers and message deliveries interleave on a single deterministic event
// order. Handlers execute inside the goroutine that drives Run/Step/RunFor.
// The mutex guards cross-goroutine inspection of stats and topology.
type Network struct {
	cfg    Config
	clk    *clock.Virtual
	faults *faults.Table

	mu       sync.Mutex
	rng      *rand.Rand
	nodes    map[string]*Node
	crashed  map[string]bool
	departed map[string]bool
	stats    Stats
}

// New returns an empty network with the given configuration, on its own
// virtual clock.
func New(cfg Config) *Network {
	return NewOnClock(cfg, clock.NewVirtual())
}

// NewOnClock returns an empty network scheduling on clk. Attach protocol
// runtimes (core.Runner) to the same clock to run self-clocking nodes and
// the fabric on one shared virtual timeline. Its fault table starts with
// cfg.LossRate as the global loss and no rules.
func NewOnClock(cfg Config, clk *clock.Virtual) *Network {
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = cfg.MinLatency
	}
	tbl := faults.NewTable()
	tbl.SetLoss(cfg.LossRate)
	return &Network{
		cfg:      cfg,
		clk:      clk,
		faults:   tbl,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		nodes:    make(map[string]*Node),
		crashed:  make(map[string]bool),
		departed: make(map[string]bool),
	}
}

var _ clock.Clock = (*Network)(nil)

// Clock returns the virtual clock the network schedules on.
func (n *Network) Clock() *clock.Virtual { return n.clk }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.clk.Now() }

// AfterFunc schedules fn at now+d on the virtual clock.
func (n *Network) AfterFunc(d time.Duration, fn func()) func() bool {
	return n.clk.AfterFunc(d, fn)
}

// Node returns the endpoint for addr, creating it on first use.
func (n *Network) Node(addr string) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node, ok := n.nodes[addr]; ok {
		return node
	}
	node := &Node{net: n, addr: addr}
	n.nodes[addr] = node
	return node
}

// Addrs returns all node addresses (including crashed ones).
func (n *Network) Addrs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.nodes))
	for a := range n.nodes {
		out = append(out, a)
	}
	return out
}

// Crash marks addr as crashed: its in-flight deliveries are dropped on
// arrival and it cannot send.
func (n *Network) Crash(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[addr] = true
}

// Depart marks addr as permanently gone (a churn leave, as opposed to a
// transient Crash). Like a crashed node it cannot send and receives nothing,
// but the distinction matters for the event queue: messages addressed to a
// departed node are dropped at enqueue time, before a delivery timer is
// scheduled, so a large churned-out population does not fill the timer queue
// with deliveries destined for dead nodes. The link RNG draws (loss, latency)
// are still consumed, so runs with and without the enqueue-time drop see
// identical random streams for the surviving traffic.
func (n *Network) Depart(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[addr] = true
	n.departed[addr] = true
}

// Recover clears the crash flag for addr. Recovering a departed node
// re-admits it (rejoin as the same endpoint): both flags clear.
func (n *Network) Recover(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, addr)
	delete(n.departed, addr)
}

// Crashed reports whether addr is currently crashed (or departed).
func (n *Network) Crashed(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[addr]
}

// Departed reports whether addr has permanently left.
func (n *Network) Departed(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.departed[addr]
}

// Faults returns the network's fault table, the one model of its links:
// global loss, per-link loss, cuts, partitions, refusals, NAT and extra
// delay. It is never nil; rules written to it apply from the next send.
func (n *Network) Faults() *faults.Table { return n.faults }

// Stats returns a copy of the aggregate counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the aggregate counters.
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = Stats{}
}

// Step executes the next pending event and reports whether one existed.
func (n *Network) Step() bool { return n.clk.Step() }

// Run drains all pending events (including ones scheduled while draining).
// With self-rescheduling timers on the shared clock — a core.Runner's round
// loops — it never returns; drive those timelines with RunFor/RunUntil.
func (n *Network) Run() { n.clk.Run() }

// RunFor drains events with timestamps up to now+d, then advances the clock
// to exactly now+d.
func (n *Network) RunFor(d time.Duration) { n.clk.Advance(d) }

// RunUntil drains events with timestamps up to the absolute virtual time t,
// then sets the clock to t.
func (n *Network) RunUntil(t time.Duration) { n.clk.RunUntil(t) }

// Pending reports the number of undelivered events (including cancelled
// timer slots not yet popped) on the network's clock.
func (n *Network) Pending() int { return n.clk.Pending() }

// send implements the link model: the sender's crash, the fault table's
// verdict, one loss draw, one latency draw, the destination's departure and
// the table's extra delay, in that order. A refusal, cut or partition
// consumes no draw, and every send the table lets through draws loss and then
// latency, so rules touching other links never shift a message's stream.
func (n *Network) send(from string, msg transport.Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed[from] {
		return fmt.Errorf("%w: sender %s crashed", transport.ErrUnreachable, from)
	}
	dest, ok := n.nodes[msg.To]
	if !ok {
		n.stats.Dropped++
		return fmt.Errorf("%w: %s", transport.ErrUnreachable, msg.To)
	}
	n.stats.Sent++
	n.stats.Bytes += int64(len(msg.Body))
	switch d := n.faults.Check(from, msg.To); d.Outcome {
	case faults.Refuse:
		n.stats.FaultRefused++
		return fmt.Errorf("%w: connection refused: %s -> %s", transport.ErrUnreachable, from, msg.To)
	case faults.Drop:
		n.stats.FaultDropped++
		n.stats.Dropped++
		return nil
	}
	if n.faults.Lossy(from, msg.To, n.rng) {
		n.stats.FaultDropped++
		n.stats.Dropped++
		return nil
	}
	latency := n.cfg.MinLatency
	if span := n.cfg.MaxLatency - n.cfg.MinLatency; span > 0 {
		latency += time.Duration(n.rng.Int63n(int64(span) + 1))
	}
	if n.departed[msg.To] {
		// Departed (vs transiently crashed) nodes never come back for this
		// message: drop at enqueue instead of scheduling a delivery timer
		// into a dead node. The loss and latency draws above have already
		// been consumed, so the RNG stream seen by surviving traffic is
		// identical to a run without the early drop.
		n.stats.Dropped++
		return nil
	}
	latency += n.faults.ExtraDelay(from, msg.To)
	msg.From = from
	d := getDelivery(len(msg.Body))
	d.net, d.dest = n, dest
	if len(msg.Body) > 0 {
		// Send does not keep the sender's buffer (transport.Message): the
		// message flies as the record's own copy.
		d.buf = append(d.buf[:0], msg.Body...)
		msg.Body = d.buf
	}
	d.msg = msg
	n.clk.Schedule(latency, d)
	return nil
}

// delivery is one message in flight and the buffer its body is copied into.
// Nobody cancels a delivery (a crash is checked on arrival), so it rides the
// clock's fire-and-forget path and takes no stop handle. The record goes back
// to its pool once the handler has returned, since msg.Body is its buffer
// until then, so a steady stream of messages reuses the same few records and
// their buffers.
type delivery struct {
	net   *Network
	dest  *Node
	msg   transport.Message
	buf   []byte
	small [minBody]byte // buf's backing array in the smallest class
}

// Records are pooled by the capacity of the buffer they carry, one pool per
// power of two from minBody to maxBody bytes, and a send takes a record of
// the smallest class its body fits. So every body the simulator's workloads
// send is pooled, and a record never carries much more buffer than its
// message: a membership view (about 36 bytes a member in the churn mode,
// whose views are uncapped: 4.7 KiB at 128 nodes, 14.6 KiB at 400) or a
// full pull digest (DigestCap sums, 1 KiB) does not ride along under every
// later push. A push, a pull request or an IHAVE (under 64 bytes on every
// workload) fits the record's inline buffer, so a record that misses its
// pool costs one allocation. A body over maxBody is copied into a buffer of
// its own that is not pooled.
const (
	minBody     = 64
	maxBody     = 1 << 20
	bodyClasses = 15 // minBody << (bodyClasses-1) == maxBody
)

var deliveryPools [bodyClasses]sync.Pool

// bodyClass returns the smallest class whose buffers hold n bytes; it is
// bodyClasses or more for a body over maxBody.
func bodyClass(n int) int {
	if n <= minBody {
		return 0
	}
	return bits.Len(uint(n-1)) - bits.Len(minBody-1)
}

// getDelivery returns a record whose buffer holds n bytes without growing.
func getDelivery(n int) *delivery {
	c := bodyClass(n)
	if c >= bodyClasses {
		return new(delivery)
	}
	if d, ok := deliveryPools[c].Get().(*delivery); ok {
		return d
	}
	d := new(delivery)
	if c == 0 {
		d.buf = d.small[:0]
	} else {
		d.buf = make([]byte, 0, minBody<<c)
	}
	return d
}

// Fire hands the message to the destination's handler, if it is still up,
// and recycles the record when the handler is back.
func (d *delivery) Fire() {
	defer d.recycle()
	n, dest := d.net, d.dest
	n.mu.Lock()
	if n.crashed[dest.addr] {
		n.stats.Dropped++
		n.mu.Unlock()
		return
	}
	h := dest.handler
	n.stats.Delivered++
	n.mu.Unlock()
	if h == nil {
		return
	}
	// Handler errors are protocol-level; the network, like UDP, ignores them.
	_ = h(context.Background(), d.msg)
}

// recycle zeroes the body and returns the record to its class's pool. The
// zeroing is what makes a handler that kept msg.Body past its return fail
// loudly: it reads zeros, not the message, until a later message reuses the
// buffer.
func (d *delivery) recycle() {
	buf := d.buf
	clear(buf)
	d.net, d.dest, d.msg, d.buf = nil, nil, transport.Message{}, buf[:0]
	if c := bodyClass(cap(buf)); c < bodyClasses {
		deliveryPools[c].Put(d)
	}
}

// Node is one simulated endpoint.
type Node struct {
	net     *Network
	addr    string
	handler transport.Handler
}

var _ transport.Endpoint = (*Node)(nil)

// Addr returns the node's address.
func (nd *Node) Addr() string { return nd.addr }

// SetHandler installs the inbound handler.
func (nd *Node) SetHandler(h transport.Handler) {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	nd.handler = h
}

// Send transmits msg through the simulated fabric.
func (nd *Node) Send(_ context.Context, msg transport.Message) error {
	return nd.net.send(nd.addr, msg)
}
