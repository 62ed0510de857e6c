package simnet

import (
	"context"
	"testing"

	"wsgossip/internal/testkit"
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

func newSendDeliverBench(bodyLen int) *sendDeliverBench {
	sb := &sendDeliverBench{net: New(DefaultConfig(1))}
	sb.from = sb.net.Node("a")
	sb.net.Node("b").SetHandler(func(context.Context, transport.Message) error {
		sb.delivered++
		return nil
	})
	sb.msg = transport.Message{To: "b", Action: "urn:test", Body: make([]byte, bodyLen)}
	return sb
}

func (sb *sendDeliverBench) sendDeliver(tb testing.TB) {
	if err := sb.from.Send(context.Background(), sb.msg); err != nil {
		tb.Fatal(err)
	}
	sb.net.Run()
}

// TestSendDeliverAllocBudget: a message in flight is a pooled record — the
// delivery the clock fires, whose own buffer holds the copied body, back in
// the pool once the handler returns — armed on the timer its embedded
// clock.Slot carries, with no closure, no escaped message copy, no stop
// handle and no timer from the clock's free list, so a send and its delivery
// allocate nothing. That holds for every body size the simulator's
// workloads send: a push (under 64 bytes), a full pull digest (DigestCap
// sums, about 1 KiB) and a membership view (up to about 5 KiB in the churn
// mode) each ride a record of their own size class. The budget is
// committed in testdata/alloc_budget.json.
func TestSendDeliverAllocBudget(t *testing.T) {
	budget := testkit.LoadBudget[struct {
		SendDeliver float64 `json:"send_deliver_max_allocs"`
	}](t)
	for _, bodyLen := range []int{64, 1 << 10, 5 << 10} {
		sb := newSendDeliverBench(bodyLen)
		allocs := testing.AllocsPerRun(200, func() { sb.sendDeliver(t) })
		if sb.delivered != 201 {
			t.Fatalf("%d-byte body: delivered %d of 201", bodyLen, sb.delivered)
		}
		if allocs > budget.SendDeliver {
			t.Errorf("%d-byte body: send + deliver = %.1f allocs/op, budget %.0f (testdata/alloc_budget.json)", bodyLen, allocs, budget.SendDeliver)
		}
		t.Logf("%d-byte body: send + deliver: %.1f allocs/op (budget %.0f)", bodyLen, allocs, budget.SendDeliver)
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	sb := newSendDeliverBench(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.sendDeliver(b)
	}
}
