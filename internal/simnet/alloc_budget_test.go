package simnet

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"wsgossip/internal/transport"
)

// sendDeliverBench is the fabric's unit of work on the scale path: one send
// between two nodes and its delivery to a handler that does nothing.
type sendDeliverBench struct {
	net       *Network
	from      *Node
	msg       transport.Message
	delivered int
}

func newSendDeliverBench() *sendDeliverBench {
	sb := &sendDeliverBench{net: New(DefaultConfig(1))}
	sb.from = sb.net.Node("a")
	sb.net.Node("b").SetHandler(func(context.Context, transport.Message) error {
		sb.delivered++
		return nil
	})
	sb.msg = transport.Message{To: "b", Action: "urn:test", Body: make([]byte, 64)}
	return sb
}

func (sb *sendDeliverBench) sendDeliver(tb testing.TB) {
	if err := sb.from.Send(context.Background(), sb.msg); err != nil {
		tb.Fatal(err)
	}
	sb.net.Run()
}

// TestSendDeliverAllocBudget: a message in flight is a pooled record — the
// delivery the clock fires, back in the pool before the handler runs — on a
// recycled timer, with no closure, no escaped message copy and no stop
// handle, so a send and its delivery allocate nothing. The budget is
// committed in testdata/alloc_budget.json.
func TestSendDeliverAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatalf("read alloc budget: %v", err)
	}
	budget := struct {
		SendDeliver float64 `json:"send_deliver_max_allocs"`
	}{-1}
	if err := json.Unmarshal(raw, &budget); err != nil || budget.SendDeliver < 0 {
		t.Fatalf("parse alloc budget: %+v, %v", budget, err)
	}
	sb := newSendDeliverBench()
	allocs := testing.AllocsPerRun(200, func() { sb.sendDeliver(t) })
	if sb.delivered != 201 {
		t.Fatalf("delivered %d of 201", sb.delivered)
	}
	if allocs > budget.SendDeliver {
		t.Errorf("send + deliver = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)", allocs, budget.SendDeliver)
	}
	t.Logf("send + deliver: %.1f allocs/op (budget %.0f)", allocs, budget.SendDeliver)
}

func BenchmarkSendDeliver(b *testing.B) {
	sb := newSendDeliverBench()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.sendDeliver(b)
	}
}
