package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wsgossip/internal/soap"
)

// The harness measures layers from outside: it owns decorators around the
// boundaries the system already has (soap.Caller above the delivery plane
// and at the binding, soap.Handler at each node's endpoint, core.Loop
// ticks, transport.Endpoint in the simulator) and records one span per
// crossing. A layer's self time is its span minus the part its child
// spans cover.

type spanKind uint8

const (
	spanNotify   spanKind = iota // root: one Initiator.Notify or Engine.Publish
	spanRoleSend                 // a role's send, above the delivery plane
	spanWireSend                 // a send handed to the binding
	spanHandler                  // a node's inbound handler, keyed by action
	spanLoop                     // one core.Loop fire, keyed by loop name
)

var spanKindNames = [...]string{"notify", "role-send", "wire-send", "handler", "loop"}

// span is one boundary crossing. Times are ns since the tracer's epoch.
type span struct {
	kind   spanKind
	node   int32
	label  string // wsa:Action for sends and handlers, loop name for loops
	msgID  string // wsa:MessageID: the trace id on notify-action spans
	to     string // destination, on sends
	start  int64
	dur    int64
	child  int64 // ns covered by direct children
	parent *span
}

func (s *span) self() int64 { return s.dur - s.child }

type ctxKey struct{}

// tracer collects spans. Single-goroutine workloads nest spans on a stack
// (their bindings do not carry the caller's context into the receiver);
// the HTTP workload nests through context values, which net/http and the
// delivery plane pass along.
type tracer struct {
	epoch  time.Time
	byCtx  bool
	on     atomic.Bool
	mu     sync.Mutex
	stack  []*span
	spans  []*span
	queued map[*byte]int64 // role-send time of buffers not yet at the binding
	waits  []float64       // plane queue wait per buffer, µs
	byAct  map[string]*actionCount
	sample map[string][][]byte // first few wire messages per action, copied
}

type actionCount struct{ msgs, bytes int64 }

func newTracer(byCtx bool) *tracer {
	return &tracer{
		epoch:  time.Now(),
		byCtx:  byCtx,
		queued: make(map[*byte]int64),
		byAct:  make(map[string]*actionCount),
		sample: make(map[string][][]byte),
	}
}

// enabled reports whether spans are being recorded; a nil tracer never is.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) begin(ctx context.Context, kind spanKind, node int) (*span, context.Context) {
	s := &span{kind: kind, node: int32(node)}
	if t.byCtx {
		s.parent, _ = ctx.Value(ctxKey{}).(*span)
		ctx = context.WithValue(ctx, ctxKey{}, s)
	} else {
		if n := len(t.stack); n > 0 {
			s.parent = t.stack[n-1]
		}
		t.stack = append(t.stack, s)
	}
	s.start = int64(time.Since(t.epoch))
	return s, ctx
}

func (t *tracer) end(s *span) {
	s.dur = int64(time.Since(t.epoch)) - s.start
	if s.parent != nil {
		atomic.AddInt64(&s.parent.child, s.dur)
	}
	if t.byCtx {
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
		return
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans = append(t.spans, s)
}

// wsaText cuts a WS-Addressing header value out of a serialized envelope.
// Both wire encoders write these blocks as <Name xmlns="...addressing">v</Name>.
func wsaText(data []byte, name string) string {
	open := "<" + name + ` xmlns="http://www.w3.org/2005/08/addressing">`
	v, _ := between(data, open, "</"+name+">")
	return string(v)
}

const samplesPerAction = 32

// wire notes one message at the binding: its action's share of traffic
// and, for the first few of each action, a private copy for the replays.
func (t *tracer) wire(s *span, to string, data []byte) {
	s.label, s.msgID, s.to = wsaText(data, "Action"), wsaText(data, "MessageID"), to
	t.mu.Lock()
	c := t.byAct[s.label]
	if c == nil {
		c = &actionCount{}
		t.byAct[s.label] = c
	}
	c.msgs++
	c.bytes += int64(len(data))
	if have := t.sample[s.label]; len(have) < samplesPerAction {
		t.sample[s.label] = append(have, bytes.Clone(data))
	}
	if at, ok := t.queued[&data[0]]; ok {
		delete(t.queued, &data[0])
		t.waits = append(t.waits, float64(s.start-at)/1000)
	}
	t.mu.Unlock()
}

// wireTap decorates a binding. It is always in place: messages and bytes
// are counted here, below the delivery plane, so retries and everything
// that bypasses the plane (membership, probes) are counted once per
// attempt. It implements both soap.Caller and soap.EncodedSender — a
// decorator without SendEncoded would silently push soap.Fanout and
// delivery.NewPlane onto their re-encode fallback.
type wireTap struct {
	b    binding
	t    *tracer
	node int

	msgs, bytes, errs atomic.Int64
}

var (
	_ soap.Caller        = (*wireTap)(nil)
	_ soap.EncodedSender = (*wireTap)(nil)
)

type binding interface {
	soap.Caller
	soap.EncodedSender
}

func newWireTap(b binding, t *tracer, node int) *wireTap {
	return &wireTap{b: b, t: t, node: node}
}

// Call counts a request-response exchange as one message of the request's
// encoded size (responses are not counted: the metric is bytes handed to
// the binding).
func (w *wireTap) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	if data, err := env.Encode(); err == nil {
		w.msgs.Add(1)
		w.bytes.Add(int64(len(data)))
	}
	return w.b.Call(ctx, to, env)
}

// Send encodes and takes the encoded path, as every binding's Send does.
func (w *wireTap) Send(ctx context.Context, to string, env *soap.Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return w.SendEncoded(ctx, to, data)
}

func (w *wireTap) SendEncoded(ctx context.Context, to string, data []byte) error {
	w.msgs.Add(1)
	w.bytes.Add(int64(len(data)))
	var err error
	if w.t.enabled() {
		s, ctx := w.t.begin(ctx, spanWireSend, w.node)
		w.t.wire(s, to, data)
		err = w.b.SendEncoded(ctx, to, data)
		w.t.end(s)
	} else {
		err = w.b.SendEncoded(ctx, to, data)
	}
	if err != nil {
		w.errs.Add(1)
	}
	return err
}

// roleTap decorates the caller a role sends through, above the delivery
// plane. It only records spans; with tracing off it is a pass-through.
type roleTap struct {
	b     binding
	t     *tracer
	node  int
	sends atomic.Int64
}

var (
	_ soap.Caller        = (*roleTap)(nil)
	_ soap.EncodedSender = (*roleTap)(nil)
)

func newRoleTap(b binding, t *tracer, node int) *roleTap {
	return &roleTap{b: b, t: t, node: node}
}

func (r *roleTap) Call(ctx context.Context, to string, env *soap.Envelope) (*soap.Envelope, error) {
	return r.b.Call(ctx, to, env)
}

func (r *roleTap) Send(ctx context.Context, to string, env *soap.Envelope) error {
	r.sends.Add(1)
	if !r.t.enabled() {
		return r.b.Send(ctx, to, env)
	}
	s, ctx := r.t.begin(ctx, spanRoleSend, r.node)
	s.to = to
	err := r.b.Send(ctx, to, env)
	r.t.end(s)
	return err
}

func (r *roleTap) SendEncoded(ctx context.Context, to string, data []byte) error {
	r.sends.Add(1)
	if !r.t.enabled() {
		return r.b.SendEncoded(ctx, to, data)
	}
	s, ctx := r.t.begin(ctx, spanRoleSend, r.node)
	s.to = to
	r.t.mu.Lock()
	r.t.queued[&data[0]] = s.start
	r.t.mu.Unlock()
	err := r.b.SendEncoded(ctx, to, data)
	if err != nil {
		// The plane refused the message: it will never reach the binding.
		r.t.mu.Lock()
		delete(r.t.queued, &data[0])
		r.t.mu.Unlock()
	}
	r.t.end(s)
	return err
}

// tapHandler decorates a node's inbound handler.
func tapHandler(next soap.Handler, t *tracer, node int) soap.Handler {
	if t == nil {
		return next
	}
	return soap.HandlerFunc(func(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
		if !t.enabled() {
			return next.HandleSOAP(ctx, req)
		}
		s, ctx := t.begin(ctx, spanHandler, node)
		// The parse is cached on the envelope; the dispatcher below would
		// have paid for it anyway.
		a := req.Addressing()
		s.label, s.msgID, s.to = a.Action, string(a.MessageID), a.To
		resp, err := next.HandleSOAP(ctx, req)
		t.end(s)
		return resp, err
	})
}

// tapLoop decorates one core.Loop tick.
func tapLoop(name string, tick func(context.Context), t *tracer, node int) func(context.Context) {
	if t == nil {
		return tick
	}
	return func(ctx context.Context) {
		if !t.enabled() {
			tick(ctx)
			return
		}
		s, ctx := t.begin(ctx, spanLoop, node)
		s.label = name
		tick(ctx)
		t.end(s)
	}
}

// spanStats aggregates the spans matching keep.
type spanStats struct {
	n          int
	durs       []float64 // µs
	selfUs     float64   // total self time, µs
	totalDurUs float64
}

func (t *tracer) stats(keep func(*span) bool) spanStats {
	var st spanStats
	for _, s := range t.spans {
		if keep(s) {
			st.n++
			st.durs = append(st.durs, float64(s.dur)/1000)
			st.selfUs += float64(s.self()) / 1000
			st.totalDurUs += float64(s.dur) / 1000
		}
	}
	return st
}

func (st spanStats) meanSelfUs() float64 {
	if st.n == 0 {
		return 0
	}
	return st.selfUs / float64(st.n)
}

func (st spanStats) meanDurUs() float64 {
	if st.n == 0 {
		return 0
	}
	return st.totalDurUs / float64(st.n)
}

// serverSelfUs joins every binding-level send to the handler span it
// caused, on (MessageID, destination), earliest unmatched first, and
// returns the mean of send duration minus handler duration: what the
// binding and the receiving server spent outside the handler.
func (t *tracer) serverSelfUs() float64 {
	type key struct{ msgID, to string }
	sends := make(map[key][]*span)
	handlers := make(map[key][]*span)
	for _, s := range t.spans {
		switch s.kind {
		case spanWireSend:
			sends[key{s.msgID, s.to}] = append(sends[key{s.msgID, s.to}], s)
		case spanHandler:
			handlers[key{s.msgID, s.to}] = append(handlers[key{s.msgID, s.to}], s)
		}
	}
	var sum float64
	var n int
	for k, ss := range sends {
		hs := handlers[k]
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		sort.Slice(hs, func(i, j int) bool { return hs[i].start < hs[j].start })
		for i := 0; i < len(ss) && i < len(hs); i++ {
			if d := ss[i].dur - hs[i].dur; d >= 0 {
				sum += float64(d) / 1000
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// writeFile dumps every span as one JSON line, in start order.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].start < t.spans[j].start })
	index := make(map[*span]int, len(t.spans))
	for i, s := range t.spans {
		index[s] = i
	}
	enc := json.NewEncoder(f)
	for i, s := range t.spans {
		parent := -1
		if s.parent != nil {
			if p, ok := index[s.parent]; ok {
				parent = p
			}
		}
		rec := map[string]any{
			"id": i, "parent": parent, "kind": spanKindNames[s.kind], "node": s.node,
			"label": s.label, "trace": s.msgID, "to": s.to,
			"start_ns": s.start, "dur_ns": s.dur, "self_ns": s.self(),
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
