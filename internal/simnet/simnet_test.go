package simnet

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"
	"time"

	"wsgossip/internal/transport"
)

func lossless(seed int64) Config {
	return Config{Seed: seed, MinLatency: time.Millisecond, MaxLatency: 5 * time.Millisecond}
}

func TestDeliverySingleMessage(t *testing.T) {
	net := New(lossless(1))
	a := net.Node("a")
	b := net.Node("b")
	var got []string
	b.SetHandler(func(_ context.Context, msg transport.Message) error {
		got = append(got, string(msg.Body))
		if msg.From != "a" {
			t.Errorf("from = %q", msg.From)
		}
		return nil
	})
	if err := a.Send(context.Background(), transport.Message{To: "b", Action: "x", Body: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got = %v", got)
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendToUnknownAddress(t *testing.T) {
	net := New(lossless(1))
	a := net.Node("a")
	err := a.Send(context.Background(), transport.Message{To: "ghost", Action: "x"})
	if err == nil {
		t.Fatal("send to unknown address succeeded")
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	net := New(Config{Seed: 1, MinLatency: 10 * time.Millisecond, MaxLatency: 10 * time.Millisecond})
	a := net.Node("a")
	b := net.Node("b")
	var at time.Duration
	b.SetHandler(func(context.Context, transport.Message) error {
		at = net.Now()
		return nil
	})
	_ = a.Send(context.Background(), transport.Message{To: "b"})
	net.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("delivery time = %v, want 10ms", at)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []string {
		net := New(Config{Seed: seed, MinLatency: time.Millisecond, MaxLatency: 20 * time.Millisecond, LossRate: 0.2})
		var order []string
		mk := func(name string) *Node {
			n := net.Node(name)
			n.SetHandler(func(_ context.Context, msg transport.Message) error {
				order = append(order, name+"<-"+msg.From)
				return nil
			})
			return n
		}
		nodes := []*Node{mk("a"), mk("b"), mk("c"), mk("d")}
		for i, from := range nodes {
			for j := range nodes {
				if i == j {
					continue
				}
				_ = from.Send(context.Background(), transport.Message{To: nodes[j].Addr()})
			}
		}
		net.Run()
		return order
	}
	o1 := run(42)
	o2 := run(42)
	if len(o1) != len(o2) {
		t.Fatalf("lengths differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("order diverges at %d: %q vs %q", i, o1[i], o2[i])
		}
	}
	o3 := run(43)
	same := len(o1) == len(o3)
	if same {
		for i := range o1 {
			if o1[i] != o3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("different seeds produced identical orders (possible but unlikely)")
	}
}

func TestLossRate(t *testing.T) {
	net := New(Config{Seed: 7, MinLatency: time.Millisecond, MaxLatency: time.Millisecond, LossRate: 0.5})
	a := net.Node("a")
	b := net.Node("b")
	delivered := 0
	b.SetHandler(func(context.Context, transport.Message) error {
		delivered++
		return nil
	})
	const total = 2000
	for i := 0; i < total; i++ {
		_ = a.Send(context.Background(), transport.Message{To: "b"})
	}
	net.Run()
	frac := float64(delivered) / total
	if frac < 0.44 || frac > 0.56 {
		t.Fatalf("delivered fraction = %v, want ~0.5", frac)
	}
}

func TestCrashDropsDeliveries(t *testing.T) {
	net := New(lossless(1))
	a := net.Node("a")
	b := net.Node("b")
	delivered := 0
	b.SetHandler(func(context.Context, transport.Message) error {
		delivered++
		return nil
	})
	net.Crash("b")
	_ = a.Send(context.Background(), transport.Message{To: "b"})
	net.Run()
	if delivered != 0 {
		t.Fatal("crashed node received a message")
	}
	if err := a.Send(context.Background(), transport.Message{To: "b"}); err != nil {
		t.Fatalf("send to crashed dest should be silent drop, got %v", err)
	}
	net.Run() // drain the in-flight message while b is still down
	net.Recover("b")
	_ = a.Send(context.Background(), transport.Message{To: "b"})
	net.Run()
	if delivered != 1 {
		t.Fatalf("delivered after recover = %d", delivered)
	}
}

func TestCrashedSenderCannotSend(t *testing.T) {
	net := New(lossless(1))
	a := net.Node("a")
	net.Node("b")
	net.Crash("a")
	if err := a.Send(context.Background(), transport.Message{To: "b"}); err == nil {
		t.Fatal("crashed sender could send")
	}
	if !net.Crashed("a") {
		t.Fatal("crashed flag not reported")
	}
}

func TestPartitionBlocksCrossGroupTraffic(t *testing.T) {
	net := New(lossless(1))
	a := net.Node("a")
	b := net.Node("b")
	c := net.Node("c")
	counts := map[string]int{}
	for _, n := range []*Node{a, b, c} {
		n := n
		n.SetHandler(func(context.Context, transport.Message) error {
			counts[n.Addr()]++
			return nil
		})
	}
	net.Faults().Partition("split", []string{"c"}) // {a,b} | {c}
	_ = a.Send(context.Background(), transport.Message{To: "b"})
	_ = a.Send(context.Background(), transport.Message{To: "c"})
	net.Run()
	if counts["b"] != 1 {
		t.Fatalf("same-side delivery failed: %v", counts)
	}
	if counts["c"] != 0 {
		t.Fatalf("cross-partition delivery occurred: %v", counts)
	}
	net.Faults().Heal("split")
	_ = a.Send(context.Background(), transport.Message{To: "c"})
	net.Run()
	if counts["c"] != 1 {
		t.Fatalf("post-heal delivery failed: %v", counts)
	}
}

func TestAfterFuncOrderingAndCancel(t *testing.T) {
	net := New(lossless(1))
	var fired []string
	net.AfterFunc(30*time.Millisecond, func() { fired = append(fired, "late") })
	net.AfterFunc(10*time.Millisecond, func() { fired = append(fired, "early") })
	stop := net.AfterFunc(20*time.Millisecond, func() { fired = append(fired, "cancelled") })
	if !stop() {
		t.Fatal("cancel failed")
	}
	if stop() {
		t.Fatal("double cancel succeeded")
	}
	net.Run()
	if len(fired) != 2 || fired[0] != "early" || fired[1] != "late" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunForStopsAtDeadline(t *testing.T) {
	net := New(lossless(1))
	var fired []string
	net.AfterFunc(10*time.Millisecond, func() { fired = append(fired, "in") })
	net.AfterFunc(100*time.Millisecond, func() { fired = append(fired, "out") })
	net.RunFor(50 * time.Millisecond)
	if len(fired) != 1 || fired[0] != "in" {
		t.Fatalf("fired = %v", fired)
	}
	if net.Now() != 50*time.Millisecond {
		t.Fatalf("now = %v, want 50ms", net.Now())
	}
	net.Run()
	if len(fired) != 2 {
		t.Fatalf("fired after full run = %v", fired)
	}
}

func TestReentrantSendFromHandler(t *testing.T) {
	net := New(lossless(1))
	a := net.Node("a")
	b := net.Node("b")
	c := net.Node("c")
	got := false
	b.SetHandler(func(ctx context.Context, msg transport.Message) error {
		return b.Send(ctx, transport.Message{To: "c", Body: msg.Body})
	})
	c.SetHandler(func(_ context.Context, msg transport.Message) error {
		got = string(msg.Body) == "relay"
		return nil
	})
	_ = a.Send(context.Background(), transport.Message{To: "b", Body: []byte("relay")})
	net.Run()
	if !got {
		t.Fatal("relayed message not delivered")
	}
}

// TestBodyIsLent: Send copies the body, so the sender may rewrite its buffer
// as soon as Send is back; and a handler's msg.Body is the delivery record's
// buffer, lent for the call. This handler breaks the rule on purpose and keeps
// the body: once the handler has returned it reads zeros, not its message —
// nor a later one, which it would if the record went back to the pool, and
// on to the next send, before its handler ran. Each size is sent twice, so
// the second message rides the first's recycled record: the record's inline
// buffer, a pooled larger one, and a body over maxBody, which gets a buffer
// of its own.
func TestBodyIsLent(t *testing.T) {
	net := New(lossless(1))
	a := net.Node("a")
	var during []byte
	var kept []byte
	net.Node("b").SetHandler(func(_ context.Context, msg transport.Message) error {
		during, kept = bytes.Clone(msg.Body), msg.Body
		return nil
	})
	for _, n := range []int{13, 1000, maxBody + 1} {
		for _, fill := range []byte{'a', 'b'} {
			text := bytes.Repeat([]byte{fill}, n)
			buf := bytes.Clone(text)
			if err := a.Send(context.Background(), transport.Message{To: "b", Body: buf}); err != nil {
				t.Fatal(err)
			}
			clear(buf)
			net.Run()
			if !bytes.Equal(during, text) {
				t.Fatalf("%d-byte body: handler read %.20q…, want %.20q…", n, during, text)
			}
			if !bytes.Equal(kept, make([]byte, n)) {
				t.Fatalf("%d-byte body kept past its handler reads %.20q…, want zeros", n, kept)
			}
		}
	}
}

// TestBodyClass pins the size classes: the smallest class is the record's
// inline buffer, each class doubles, and a body over maxBody has none.
func TestBodyClass(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{0, 0}, {1, 0}, {minBody, 0}, {minBody + 1, 1}, {2 * minBody, 1},
		{1 << 10, 4}, {5 << 10, 7}, {maxBody, bodyClasses - 1}, {maxBody + 1, bodyClasses},
	} {
		if got := bodyClass(tc.n); got != tc.class {
			t.Errorf("bodyClass(%d) = %d, want %d", tc.n, got, tc.class)
		}
		if tc.class < bodyClasses && (tc.n > minBody<<tc.class) {
			t.Errorf("class %d's buffers (%d bytes) do not hold %d", tc.class, minBody<<tc.class, tc.n)
		}
	}
	if minBody<<(bodyClasses-1) != maxBody {
		t.Errorf("the largest class holds %d bytes, want maxBody %d", minBody<<(bodyClasses-1), maxBody)
	}
}

func TestSlowdownDelaysDelivery(t *testing.T) {
	net := New(Config{Seed: 1, MinLatency: time.Millisecond, MaxLatency: time.Millisecond})
	a := net.Node("a")
	b := net.Node("b")
	var at time.Duration
	b.SetHandler(func(context.Context, transport.Message) error {
		at = net.Now()
		return nil
	})
	net.Faults().LinkDelay("slow", nil, []string{"b"}, 100*time.Millisecond)
	_ = a.Send(context.Background(), transport.Message{To: "b"})
	net.Run()
	if at != 101*time.Millisecond {
		t.Fatalf("delivery at %v, want 101ms", at)
	}
	net.Faults().Heal("slow")
	_ = a.Send(context.Background(), transport.Message{To: "b"})
	net.Run()
	if at != 102*time.Millisecond {
		t.Fatalf("delivery at %v, want 102ms", at)
	}
}

// TestLatencyBoundsProperty: every delivery occurs within [min,max] of send.
func TestLatencyBoundsProperty(t *testing.T) {
	f := func(seed int64, minMs, spanMs uint8) bool {
		min := time.Duration(minMs) * time.Millisecond
		max := min + time.Duration(spanMs)*time.Millisecond
		net := New(Config{Seed: seed, MinLatency: min, MaxLatency: max})
		a := net.Node("a")
		b := net.Node("b")
		ok := true
		var sentAt time.Duration
		b.SetHandler(func(context.Context, transport.Message) error {
			d := net.Now() - sentAt
			if d < min || d > max {
				ok = false
			}
			return nil
		})
		for i := 0; i < 20; i++ {
			sentAt = net.Now()
			_ = a.Send(context.Background(), transport.Message{To: "b"})
			net.Run()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDepartDropsAtEnqueue pins the churn bugfix: a message to a departed
// node is dropped at send time — counted, but never scheduled as a delivery
// timer — while a transiently crashed node still gets an in-flight delivery
// that can land after Recover.
func TestDepartDropsAtEnqueue(t *testing.T) {
	net := New(lossless(1))
	a := net.Node("a")
	b := net.Node("b")
	delivered := 0
	b.SetHandler(func(context.Context, transport.Message) error {
		delivered++
		return nil
	})
	net.Depart("b")
	if !net.Crashed("b") || !net.Departed("b") {
		t.Fatal("departed node should report both Crashed and Departed")
	}
	if err := a.Send(context.Background(), transport.Message{To: "b"}); err != nil {
		t.Fatalf("send to departed dest should be silent drop, got %v", err)
	}
	if got := net.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after send to departed node, want 0 (no delivery timer)", got)
	}
	st := net.Stats()
	if st.Sent != 1 || st.Dropped != 1 || st.Delivered != 0 {
		t.Fatalf("stats = %+v, want the enqueue-time drop counted", st)
	}
	net.Run()
	if delivered != 0 {
		t.Fatal("departed node received a message")
	}

	// Contrast: Crash keeps delivery-time semantics — the timer is scheduled
	// and the message lands if the node recovers before it arrives.
	net.Recover("b")
	net.Crash("b")
	_ = a.Send(context.Background(), transport.Message{To: "b"})
	if net.Pending() == 0 {
		t.Fatal("crashed (not departed) dest should still get a delivery timer")
	}
	net.Recover("b")
	net.Run()
	if delivered != 1 {
		t.Fatalf("delivered after crash+recover = %d, want 1", delivered)
	}
}

// TestDepartPreservesRNGStream checks the determinism contract of the
// enqueue-time drop: traffic between surviving nodes sees the same loss
// pattern and the same per-message latency draws whether the unrelated
// messages addressed to a dead node are dropped early (Depart) or carried to
// their delivery time (Crash). Absolute virtual times may differ — the dead
// deliveries no longer advance the clock — but the random stream feeding the
// survivors must not shift.
func TestDepartPreservesRNGStream(t *testing.T) {
	run := func(depart bool) []time.Duration {
		net := New(Config{Seed: 9, MinLatency: time.Millisecond, MaxLatency: 20 * time.Millisecond, LossRate: 0.3})
		a := net.Node("a")
		b := net.Node("b")
		net.Node("gone")
		var latencies []time.Duration
		var sentAt time.Duration
		b.SetHandler(func(context.Context, transport.Message) error {
			latencies = append(latencies, net.Now()-sentAt)
			return nil
		})
		if depart {
			net.Depart("gone")
		} else {
			net.Crash("gone")
		}
		for i := 0; i < 50; i++ {
			_ = a.Send(context.Background(), transport.Message{To: "gone"})
			sentAt = net.Now()
			_ = a.Send(context.Background(), transport.Message{To: "b"})
			net.Run()
			latencies = append(latencies, -1) // iteration marker: encodes the loss pattern
		}
		return latencies
	}
	crashLat := run(false)
	departLat := run(true)
	if len(crashLat) != len(departLat) {
		t.Fatalf("survivor delivery pattern differs: crash %d entries, depart %d", len(crashLat), len(departLat))
	}
	for i := range crashLat {
		if crashLat[i] != departLat[i] {
			t.Fatalf("entry %d: %v with depart, %v with crash: RNG stream shifted", i, departLat[i], crashLat[i])
		}
	}
}

// TestCompactRNGDeterministic pins the scale-mode RNG: same seed, same
// stream, and distinct seeds diverge.
func TestCompactRNGDeterministic(t *testing.T) {
	r1 := NewCompactRNG(77)
	r2 := NewCompactRNG(77)
	r3 := NewCompactRNG(78)
	same3 := true
	for i := 0; i < 1000; i++ {
		a, b, c := r1.Uint64(), r2.Uint64(), r3.Uint64()
		if a != b {
			t.Fatalf("draw %d: same seed diverged", i)
		}
		if a != c {
			same3 = false
		}
	}
	if same3 {
		t.Fatal("different seeds produced identical streams")
	}
	// Int63n must stay in range (exercises the Int63 path).
	r := NewCompactRNG(5)
	for i := 0; i < 1000; i++ {
		if v := r.Int63n(10); v < 0 || v >= 10 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestStatsBytes(t *testing.T) {
	net := New(lossless(1))
	a := net.Node("a")
	net.Node("b").SetHandler(func(context.Context, transport.Message) error { return nil })
	_ = a.Send(context.Background(), transport.Message{To: "b", Body: make([]byte, 100)})
	net.Run()
	if st := net.Stats(); st.Bytes != 100 {
		t.Fatalf("bytes = %d", st.Bytes)
	}
	net.ResetStats()
	if st := net.Stats(); st.Sent != 0 || st.Bytes != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}
