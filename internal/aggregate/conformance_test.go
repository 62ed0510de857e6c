package aggregate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/core"
	"wsgossip/internal/gossip"
	"wsgossip/internal/soap"
	"wsgossip/internal/transport"
	"wsgossip/internal/wscoord"
)

// handClock is a clock moved only by the test.
type handClock struct{ now time.Duration }

func (c *handClock) Now() time.Duration { return c.now }
func (c *handClock) AfterFunc(time.Duration, func()) func() bool {
	panic("aggregate: a hand-driven cluster schedules no timers")
}

// handQueue delivers what every node of one cluster sends, losslessly and in
// the order it was sent, when the test drains it.
type handQueue struct{ pending []func() }

// drain runs every delivery, and the ones those deliveries send, in order.
func (q *handQueue) drain() {
	for len(q.pending) > 0 {
		next := q.pending[0]
		q.pending = q.pending[1:]
		next()
	}
}

// handCaller is a Service's soap.Caller onto a handQueue: each one-way
// message is decoded from a copy of its bytes and queued for the target's
// dispatcher.
type handCaller struct {
	q       *handQueue
	targets map[string]soap.Handler
}

func (c *handCaller) SendEncoded(ctx context.Context, to string, data []byte) error {
	env, err := soap.Decode(bytes.Clone(data))
	if err != nil {
		return err
	}
	return c.Send(ctx, to, env)
}

func (c *handCaller) Send(ctx context.Context, to string, env *soap.Envelope) error {
	h := c.targets[to]
	if h == nil {
		return transport.ErrUnreachable
	}
	c.q.pending = append(c.q.pending, func() { _, _ = h.HandleSOAP(ctx, &soap.Request{Envelope: env}) })
	return nil
}

func (c *handCaller) Call(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
	return nil, errors.New("handCaller: no request-response peer")
}

// handEndpoint is a SimNode's transport.Endpoint onto a handQueue.
type handEndpoint struct {
	q        *handQueue
	addr     string
	handlers map[string]transport.Handler
}

func (e *handEndpoint) Addr() string                   { return e.addr }
func (e *handEndpoint) SetHandler(h transport.Handler) { e.handlers[e.addr] = h }
func (e *handEndpoint) Send(ctx context.Context, msg transport.Message) error {
	h := e.handlers[msg.To]
	if h == nil {
		return transport.ErrUnreachable
	}
	msg.From, msg.Body = e.addr, bytes.Clone(msg.Body)
	e.q.pending = append(e.q.pending, func() { _ = h(ctx, msg) })
	return nil
}

// TestBindingsConform runs one task on a Service cluster and on a SimNode
// cluster: the same seeds, the same static peer list, the same values and
// root, and lossless in-order hand delivery, each round ticking every node
// in turn and delivering everything before the next round. The task machine
// decides everything both bindings do, so after every round each node of
// one cluster must hold what its twin holds — the frozen estimate of every
// closed epoch, the live mass — and have counted the same events.
func TestBindingsConform(t *testing.T) {
	const (
		n      = 6
		task   = "urn:uuid:conform"
		window = time.Second
		round  = 100 * time.Millisecond
		fanout = 2
	)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("mem://n%d", i)
	}
	value := func(i int) float64 { return float64(3*i + 1) }
	seed := func(i int) *rand.Rand { return rand.New(rand.NewSource(int64(100 + i))) }
	clk := &handClock{}
	ctx := context.Background()

	svcQ := &handQueue{}
	caller := &handCaller{q: svcQ, targets: map[string]soap.Handler{}}
	cctx := wscoord.CoordinationContext{
		Identifier:          task,
		CoordinationType:    core.CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://coordinator"},
	}
	svcs := make([]*Service, n)
	for i, addr := range addrs {
		v := value(i)
		svc, err := NewService(ServiceConfig{
			Address: addr,
			Caller:  caller,
			Value:   func() float64 { return v },
			RNG:     seed(i),
			Peers:   gossip.NewStaticPeers(addrs),
			Clock:   clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		caller.targets[addr] = svc.Handler()
		if !svc.install(task, FuncSum, window, addrs[0], "", core.AggregateParameters{Fanout: fanout}, cctx) {
			t.Fatalf("%s did not install the task", addr)
		}
		svcs[i] = svc
	}

	simQ := &handQueue{}
	handlers := map[string]transport.Handler{}
	sims := make([]*SimNode, n)
	for i, addr := range addrs {
		ep := &handEndpoint{q: simQ, addr: addr, handlers: handlers}
		node, err := NewSimNode(SimNodeConfig{
			Endpoint: ep,
			Peers:    gossip.NewStaticPeers(addrs),
			Fanout:   fanout,
			TaskID:   task,
			Func:     FuncSum,
			Value:    value(i),
			Root:     i == 0,
			RNG:      seed(i),
			Window:   window,
			Clock:    clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		mux := transport.NewMux()
		node.Register(mux)
		mux.Bind(ep)
		sims[i] = node
	}

	const epochs = 4
	for ; clk.now < epochs*window+2*round; clk.now += round {
		for i := range addrs {
			svcs[i].Tick(ctx)
			svcQ.drain()
			sims[i].Tick(ctx)
			simQ.drain()
		}
		for i, addr := range addrs {
			sf, sok := svcs[i].FrozenEstimate(task)
			nf, nok := sims[i].Frozen()
			if sok != nok || sf != nf {
				t.Fatalf("%v %s: the Service froze %+v (%v), the SimNode %+v (%v)", clk.now, addr, sf, sok, nf, nok)
			}
			sum, w, _ := svcs[i].Mass(task)
			if nsum, nw := sims[i].State().Mass(); sum != nsum || w != nw {
				t.Fatalf("%v %s: the Service holds (%g, %g), the SimNode (%g, %g)", clk.now, addr, sum, w, nsum, nw)
			}
			st := svcs[i].Stats()
			if st.Started != 1 {
				t.Fatalf("%s started %d tasks, want 1", addr, st.Started)
			}
			// Joins and start floods are the Service's alone.
			st.Started, st.PassiveJoins, st.StartsForwarded = 0, 0, 0
			if nst := sims[i].Stats(); st != nst {
				t.Fatalf("%v %s: the Service counted %+v, the SimNode %+v", clk.now, addr, st, nst)
			}
		}
	}
	for i, addr := range addrs {
		fr, ok := sims[i].Frozen()
		if !ok || fr.Epoch != epochs || !fr.Defined {
			t.Fatalf("%s froze %+v (%v), want epoch %d defined", addr, fr, ok, epochs)
		}
		if st := sims[i].Stats(); st.SharesSent == 0 || st.Commits != st.SharesSent || st.Epochs != epochs+1 {
			t.Fatalf("%s counted %+v: want every share committed over %d epochs", addr, st, epochs+1)
		}
	}
}
