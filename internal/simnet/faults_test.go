package simnet

import (
	"context"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"wsgossip/internal/faults"
	"wsgossip/internal/transport"
)

// faultRig is a three-node network, its fault table, and per-node delivery
// counts.
type faultRig struct {
	net   *Network
	tbl   *faults.Table
	nodes map[string]*Node
	recvd map[string]int
}

func newFaultRig(t *testing.T, seed int64) *faultRig {
	t.Helper()
	net := New(lossless(seed))
	r := &faultRig{
		net:   net,
		tbl:   net.Faults(),
		nodes: map[string]*Node{},
		recvd: map[string]int{},
	}
	for _, a := range []string{"a", "b", "c"} {
		a := a
		r.nodes[a] = r.net.Node(a)
		r.nodes[a].SetHandler(func(context.Context, transport.Message) error {
			r.recvd[a]++
			return nil
		})
	}
	return r
}

func (r *faultRig) send(t *testing.T, from, to string) error {
	t.Helper()
	return r.nodes[from].Send(context.Background(), transport.Message{To: to, Action: "x", Body: []byte("m")})
}

// TestFaultTableRefuseAndDrop checks the two table outcomes surface
// correctly: refusals are synchronous errors, cuts are silent drops, and
// both are accounted exactly — network stats match table totals.
func TestFaultTableRefuseAndDrop(t *testing.T) {
	r := newFaultRig(t, 1)
	r.tbl.RefuseLink("ref", []string{"a"}, []string{"b"})
	r.tbl.Cut("cut", []string{"a"}, []string{"c"})

	if err := r.send(t, "a", "b"); err == nil {
		t.Fatal("refused link returned nil")
	}
	if err := r.send(t, "a", "c"); err != nil {
		t.Fatalf("cut link must drop silently, got %v", err)
	}
	// Untouched directions still deliver.
	if err := r.send(t, "b", "a"); err != nil {
		t.Fatal(err)
	}
	r.net.Run()
	if r.recvd["a"] != 1 || r.recvd["b"] != 0 || r.recvd["c"] != 0 {
		t.Fatalf("recvd = %v", r.recvd)
	}
	st := r.net.Stats()
	if st.FaultRefused != 1 || st.FaultDropped != 1 {
		t.Fatalf("stats = %+v, want 1 refused / 1 fault-dropped", st)
	}
	tot := r.tbl.Totals()
	if tot.Refused != st.FaultRefused || tot.Dropped+tot.Lost != st.FaultDropped {
		t.Fatalf("table totals %+v disagree with network stats %+v", tot, st)
	}
}

// TestFaultTableNATRelays checks NAT semantics on the fabric: only relay
// senders reach the NAT'd node; everyone else gets connection-refused.
func TestFaultTableNATRelays(t *testing.T) {
	r := newFaultRig(t, 2)
	r.tbl.SetNAT("c", "b")

	if err := r.send(t, "a", "c"); err == nil {
		t.Fatal("non-relay reached the NAT'd node")
	}
	if err := r.send(t, "b", "c"); err != nil {
		t.Fatalf("relay -> NAT'd: %v", err)
	}
	if err := r.send(t, "c", "a"); err != nil {
		t.Fatalf("NAT'd outbound: %v", err)
	}
	r.net.Run()
	if r.recvd["c"] != 1 || r.recvd["a"] != 1 {
		t.Fatalf("recvd = %v", r.recvd)
	}
	if st := r.net.Stats(); st.FaultRefused != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFaultLinkLossAndDelay checks probabilistic directional loss and
// extra one-way latency.
func TestFaultLinkLossAndDelay(t *testing.T) {
	r := newFaultRig(t, 3)
	r.tbl.LinkLoss("ll", []string{"a"}, []string{"b"}, 1) // certain loss a->b
	r.tbl.LinkDelay("ld", []string{"b"}, []string{"a"}, 50*time.Millisecond)

	if err := r.send(t, "a", "b"); err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	r.nodes["a"].SetHandler(func(context.Context, transport.Message) error {
		at = r.net.Now()
		return nil
	})
	if err := r.send(t, "b", "a"); err != nil {
		t.Fatal(err)
	}
	r.net.Run()
	if r.recvd["b"] != 0 {
		t.Fatalf("p=1 link loss delivered: %v", r.recvd)
	}
	if at < 50*time.Millisecond {
		t.Fatalf("delivery at %v, want >= the 50ms fault delay", at)
	}
	if st := r.net.Stats(); st.FaultDropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFaultPlanOverNetwork schedules a parsed plan (including crash and
// recover ops bound to the network) on the network clock and replays it
// twice, requiring identical stats — the property the simulator's
// byte-identical-report check rests on.
func TestFaultPlanOverNetwork(t *testing.T) {
	const src = `
10ms cut a->b name=ab
20ms crash c
30ms recover c
40ms heal ab
`
	run := func() (Stats, map[string]int64) {
		r := newFaultRig(t, 4)
		plan, err := faults.ParsePlan(src)
		if err != nil {
			t.Fatal(err)
		}
		err = plan.Schedule(r.net.Clock(), faults.Applier{
			Table:   r.tbl,
			Crash:   r.net.Crash,
			Recover: r.net.Recover,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			r.net.RunFor(10 * time.Millisecond)
			_ = r.send(t, "a", "b")
			_ = r.send(t, "c", "a")
		}
		r.net.Run()
		return r.net.Stats(), r.tbl.Counts()
	}
	st1, c1 := run()
	st2, c2 := run()
	if st1 != st2 {
		t.Fatalf("stats differ across replays: %+v vs %+v", st1, st2)
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("count %q differs: %d vs %d", k, v, c2[k])
		}
	}
	if st1.FaultDropped == 0 {
		t.Fatal("plan dropped nothing; the determinism check proved nothing")
	}
	// While crashed, c's sends fail; after recovery they deliver again.
	if st1.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestOneLossDrawPerSend pins the link model's random stream: a send the
// table lets through draws one Float64 for loss and, unless that loses it,
// one Int63n for latency — nothing else. The expected stream is replayed on
// a parallel source with the network's seed, and the dropped set and every
// delivery time must match it. Loss set through Config.LossRate and through
// the table before any traffic is the same loss.
func TestOneLossDrawPerSend(t *testing.T) {
	const (
		seed  = 9
		p     = 0.3
		sends = 200
		min   = time.Millisecond
		max   = 5 * time.Millisecond
	)
	run := func(cfg Config, setup func(*Network)) (Stats, map[int]time.Duration) {
		net := New(cfg)
		setup(net)
		at := map[int]time.Duration{}
		a := net.Node("a")
		net.Node("b").SetHandler(func(_ context.Context, msg transport.Message) error {
			at[int(binary.BigEndian.Uint16(msg.Body))] = net.Now()
			return nil
		})
		for i := 0; i < sends; i++ {
			body := binary.BigEndian.AppendUint16(nil, uint16(i))
			if err := a.Send(context.Background(), transport.Message{To: "b", Body: body}); err != nil {
				t.Fatal(err)
			}
		}
		net.Run()
		return net.Stats(), at
	}

	st, at := run(Config{Seed: seed, MinLatency: min, MaxLatency: max, LossRate: p}, func(*Network) {})
	replay := rand.New(rand.NewSource(seed))
	lost := 0
	for i := 0; i < sends; i++ {
		if replay.Float64() < p {
			lost++
			if got, ok := at[i]; ok {
				t.Fatalf("send %d: the replay loses it, the network delivered it at %v", i, got)
			}
			continue
		}
		want := min + time.Duration(replay.Int63n(int64(max-min)+1))
		if got, ok := at[i]; !ok || got != want {
			t.Fatalf("send %d: delivered=%v at %v, the replay delivers it at %v", i, ok, got, want)
		}
	}
	if lost == 0 || lost == sends {
		t.Fatalf("the replay lost %d of %d sends: the loss draw exercised nothing", lost, sends)
	}
	if st.Dropped != int64(lost) || st.FaultDropped != int64(lost) || st.Delivered != int64(sends-lost) {
		t.Fatalf("stats %+v, want %d dropped by the fault table and %d delivered", st, lost, sends-lost)
	}

	viaTable, _ := run(Config{Seed: seed, MinLatency: min, MaxLatency: max}, func(net *Network) {
		net.Faults().SetLoss(p)
	})
	if viaTable != st {
		t.Fatalf("loss set on the table %+v, loss set in Config %+v", viaTable, st)
	}
}
