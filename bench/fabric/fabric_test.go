package fabric

import (
	"context"
	"encoding/xml"
	"fmt"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
)

type ping struct {
	XMLName xml.Name `xml:"urn:fabric:test Ping"`
	Hops    int      `xml:"Hops"`
}

const actionPing = "urn:fabric:test:ping"

// flood runs a small epidemic over a faulty fabric: every node forwards a
// ping to its three successors until the hop budget is spent. order
// permutes the sequence in which each node issues its three sends.
func flood(t *testing.T, seed int64, order [3]int) (*Fabric, uint64) {
	t.Helper()
	const n = 12
	clk := clock.NewVirtual()
	f := New(clk, seed, time.Millisecond, 5*time.Millisecond)
	addr := func(i int) string { return fmt.Sprintf("mem://n%02d", i%n) }
	send := func(from, hops int) {
		ep := f.Endpoint(addr(from))
		for _, k := range order {
			to := addr(from + 1 + k)
			env := soap.NewEnvelope()
			if err := env.SetAddressing(wsa.Headers{To: to, Action: actionPing, MessageID: "urn:uuid:fixed"}); err != nil {
				t.Fatal(err)
			}
			if err := env.SetBody(ping{Hops: hops}); err != nil {
				t.Fatal(err)
			}
			_ = ep.Send(context.Background(), to, env) // refusals are part of the scenario
		}
	}
	for i := 0; i < n; i++ {
		i := i
		f.Register(addr(i), soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
			var p ping
			if err := req.Envelope.DecodeBody(&p); err != nil {
				t.Error(err)
			}
			if p.Hops > 0 {
				send(i, p.Hops-1)
			}
			return nil, nil
		}))
	}
	f.Faults().SetLoss(0.2)
	f.Faults().Cut("cut", []string{addr(1)}, []string{addr(2)})
	f.Faults().SetNAT(addr(5), addr(4))
	f.Faults().LinkDelay("slow", []string{addr(3)}, nil, 7*time.Millisecond)
	clk.AfterFunc(8*time.Millisecond, func() { f.Crash(addr(7)) })
	clk.AfterFunc(20*time.Millisecond, func() { f.Recover(addr(7)) })
	send(0, 5)
	clk.Run()
	return f, f.OrderDigest()
}

// Equal seeds give an identical delivery order — whatever order each
// node issues its simultaneous sends in, which is what core's repair
// round leaves to Go's map iteration — and another seed gives another.
func TestEqualSeedsGiveIdenticalDeliveryOrder(t *testing.T) {
	_, a := flood(t, 42, [3]int{0, 1, 2})
	_, b := flood(t, 42, [3]int{0, 1, 2})
	if a != b {
		t.Fatalf("same seed, same send order: digests %x and %x", a, b)
	}
	_, c := flood(t, 42, [3]int{2, 0, 1})
	if a != c {
		t.Fatalf("same seed, permuted send order: digests %x and %x", a, c)
	}
	if _, d := flood(t, 43, [3]int{0, 1, 2}); a == d {
		t.Fatalf("seeds 42 and 43 gave the same digest %x", a)
	}
}

// Every send ends in exactly one of the four counted outcomes, and the
// fabric's fault counts are the fault table's.
func TestAccountingBalances(t *testing.T) {
	f, _ := flood(t, 7, [3]int{0, 1, 2})
	s := f.Stats()
	if s.Sent == 0 || s.Delivered == 0 || s.Refused == 0 || s.FaultDropped == 0 || s.CrashDropped == 0 {
		t.Fatalf("the scenario missed an outcome: %+v", s)
	}
	if got := s.Delivered + s.Refused + s.FaultDropped + s.CrashDropped; got != s.Sent {
		t.Errorf("sent %d, accounted for %d: %+v", s.Sent, got, s)
	}
	tot := f.Faults().Totals()
	if s.Refused != tot.Refused || s.FaultDropped != tot.Dropped+tot.Lost {
		t.Errorf("fabric %+v disagrees with the fault table %+v", s, tot)
	}
}

// The control plane is synchronous and immune to link faults, but not to
// a crashed endpoint.
func TestCallIsReliableUntilCrash(t *testing.T) {
	clk := clock.NewVirtual()
	f := New(clk, 1, time.Millisecond, time.Millisecond)
	f.Register("mem://svc", soap.HandlerFunc(func(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
		return req.Envelope.Snapshot(), nil
	}))
	f.Faults().SetLoss(1)
	env := soap.NewEnvelope()
	if err := env.SetBody(ping{Hops: 3}); err != nil {
		t.Fatal(err)
	}
	resp, err := f.Endpoint("mem://client").Call(context.Background(), "mem://svc", env)
	if err != nil || resp == nil {
		t.Fatalf("call under total loss: %v, %v", resp, err)
	}
	f.Crash("mem://svc")
	if _, err := f.Endpoint("mem://client").Call(context.Background(), "mem://svc", env); err == nil {
		t.Fatal("call to a crashed endpoint succeeded")
	}
}
