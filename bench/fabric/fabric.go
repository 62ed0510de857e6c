// Package fabric is the virtual-clock SOAP binding the virt-node-faulty-32
// workload runs on: one-way exchanges ride a clock.Virtual with seeded link
// delay and a faults.Table, request-response exchanges (the
// WS-Coordination control plane) stay synchronous and reliable.
//
// It is a bench-local copy of internal/scenario's test-only virtBus, with
// one deliberate difference: randomness is drawn from one seeded stream per
// directed link instead of one stream per fabric. core.Disseminator.TickRepair
// fans out in Go map order, so the order of sends issued at one instant is
// not reproducible; with per-link streams the k-th message on a link gets
// the k-th draw of that link's stream whatever the order, and a run is a
// pure function of its seed. Replace this package when the repository
// grows a shared fabric (ROADMAP items 2 and 3).
//
// A Fabric is driven by one goroutine — the one advancing the clock — and
// is not safe for concurrent use.
package fabric

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/faults"
	"wsgossip/internal/simnet"
	"wsgossip/internal/soap"
)

// Stats counts one-way traffic. After the clock has drained,
// Sent == Delivered + Refused + FaultDropped + CrashDropped.
type Stats struct {
	// Sent counts one-way sends handed to the fabric, Bytes their sizes.
	Sent, Bytes int64
	// Delivered counts messages handed to a receiver's handler.
	Delivered int64
	// Refused counts sends a refuse rule or a NAT failed synchronously.
	Refused int64
	// FaultDropped counts sends a cut, partition or loss rule swallowed.
	FaultDropped int64
	// CrashDropped counts messages lost to a crashed sender or receiver,
	// including ones in flight when the receiver went down.
	CrashDropped int64
}

type node struct {
	idx     int
	addr    string
	handler soap.Handler
	down    bool
}

// Fabric is the binding. Build endpoints with Endpoint; install faults
// through Faults or a faults.Plan scheduled on Applier.
type Fabric struct {
	clk                *clock.Virtual
	seed               int64
	minDelay, maxDelay time.Duration
	table              *faults.Table
	nodes              map[string]*node
	links              map[[2]int]*rand.Rand
	stats              Stats
	digest             uint64
}

// New returns an empty fabric whose link delays are drawn uniformly from
// [minDelay, maxDelay].
func New(clk *clock.Virtual, seed int64, minDelay, maxDelay time.Duration) *Fabric {
	if maxDelay < minDelay {
		maxDelay = minDelay
	}
	return &Fabric{
		clk:      clk,
		seed:     seed,
		minDelay: minDelay,
		maxDelay: maxDelay,
		table:    faults.NewTable(),
		nodes:    make(map[string]*node),
		links:    make(map[[2]int]*rand.Rand),
		digest:   14695981039346656037, // FNV-1a offset basis
	}
}

// Register binds addr to h, replacing any previous binding.
func (f *Fabric) Register(addr string, h soap.Handler) {
	f.node(addr).handler = h
}

func (f *Fabric) node(addr string) *node {
	n, ok := f.nodes[addr]
	if !ok {
		n = &node{idx: len(f.nodes), addr: addr}
		f.nodes[addr] = n
	}
	return n
}

// Faults exposes the fault table every one-way send is checked against.
func (f *Fabric) Faults() *faults.Table { return f.table }

// Crash isolates addr: messages to it are dropped, including ones already
// in flight, and its own sends vanish.
func (f *Fabric) Crash(addr string) { f.node(addr).down = true }

// Recover clears a crash.
func (f *Fabric) Recover(addr string) { f.node(addr).down = false }

// Applier is the surface a faults.Plan drives.
func (f *Fabric) Applier() faults.Applier {
	return faults.Applier{Table: f.table, Crash: f.Crash, Recover: f.Recover}
}

// Stats returns the traffic counters.
func (f *Fabric) Stats() Stats { return f.stats }

// OrderDigest hashes the (receiver, size, time) of every delivery in
// delivery order; equal seeds must give equal digests.
func (f *Fabric) OrderDigest() uint64 { return f.digest }

func (f *Fabric) mix(v uint64) {
	for i := 0; i < 8; i++ {
		f.digest = (f.digest ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
}

// link returns the directed link's random stream, created on first use
// from the fabric seed and the two node indices.
func (f *Fabric) link(from, to *node) *rand.Rand {
	key := [2]int{from.idx, to.idx}
	r, ok := f.links[key]
	if !ok {
		r = simnet.NewCompactRNG(f.seed*1000003 + int64(from.idx)*4099 + int64(to.idx) + 1)
		f.links[key] = r
	}
	return r
}

// Endpoint is the fabric as seen from one node: sends carry their origin,
// so the fault table can rule on the directed link.
type Endpoint struct {
	f    *Fabric
	from *node
}

var (
	_ soap.Caller        = (*Endpoint)(nil)
	_ soap.EncodedSender = (*Endpoint)(nil)
)

// Endpoint returns addr's view of the fabric.
func (f *Fabric) Endpoint(addr string) *Endpoint {
	return &Endpoint{f: f, from: f.node(addr)}
}

// Call is the reliable, synchronous control plane. Faults do not apply;
// a crashed or unknown endpoint is unreachable.
func (e *Endpoint) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	n := e.f.nodes[to]
	if n == nil || n.handler == nil || n.down || e.from.down {
		return nil, fmt.Errorf("fabric: unreachable endpoint %s", to)
	}
	data, err := env.Encode()
	if err != nil {
		return nil, err
	}
	decoded, err := soap.Decode(data)
	if err != nil {
		return nil, err
	}
	resp, err := n.handler.HandleSOAP(ctx, &soap.Request{Envelope: decoded, Remote: e.from.addr})
	if err != nil {
		return nil, soap.AsFault(err)
	}
	if f := soap.FaultFrom(resp); f != nil {
		return nil, f
	}
	return resp, nil
}

// Send is the lossy, delayed one-way path.
func (e *Endpoint) Send(ctx context.Context, to string, env *soap.Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return e.SendEncoded(ctx, to, data)
}

// SendEncoded sends an already-serialized envelope. The fault table rules
// in simnet's order: Check (refuse fails the send synchronously, cut and
// partition swallow it), then Lossy, then the link delay plus ExtraDelay.
func (e *Endpoint) SendEncoded(_ context.Context, to string, data []byte) error {
	f := e.f
	dest := f.nodes[to]
	if dest == nil || dest.handler == nil {
		return fmt.Errorf("fabric: unknown endpoint %s", to)
	}
	f.stats.Sent++
	f.stats.Bytes += int64(len(data))
	if e.from.down {
		f.stats.CrashDropped++
		return nil
	}
	switch d := f.table.Check(e.from.addr, to); d.Outcome {
	case faults.Refuse:
		f.stats.Refused++
		return fmt.Errorf("fabric: connection refused: %s -> %s", e.from.addr, to)
	case faults.Drop:
		f.stats.FaultDropped++
		return nil
	}
	if dest.down {
		f.stats.CrashDropped++
		return nil
	}
	rng := f.link(e.from, dest)
	if f.table.Lossy(e.from.addr, to, rng) {
		f.stats.FaultDropped++
		return nil
	}
	delay := f.minDelay
	if span := f.maxDelay - f.minDelay; span > 0 {
		delay += time.Duration(rng.Int63n(int64(span) + 1))
	}
	delay += f.table.ExtraDelay(e.from.addr, to)
	from := e.from.addr
	f.clk.AfterFunc(delay, func() {
		if dest.down {
			f.stats.CrashDropped++
			return
		}
		f.stats.Delivered++
		decoded, err := soap.Decode(data)
		if err != nil {
			return // cannot happen: data came from Encode or RenderTo
		}
		f.mix(uint64(dest.idx))
		f.mix(uint64(len(data)))
		f.mix(uint64(f.clk.Now()))
		// One-way semantics: handler errors vanish, as over HTTP 202.
		_, _ = dest.handler.HandleSOAP(context.Background(), &soap.Request{Envelope: decoded, Remote: from})
	})
	return nil
}
