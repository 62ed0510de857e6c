package clock_test

import (
	"context"
	"testing"

	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

// TestSimnetBurstLeavesFreeListEmpty: a simnet message in flight is armed on
// the timer its delivery record carries, so a burst of 100,000 messages in
// flight at once leaves no timers on the clock's free list when it drains.
// With a timer per message drawn from that list, the burst would leave the
// list full (65,536 timers) for the rest of the run.
func TestSimnetBurstLeavesFreeListEmpty(t *testing.T) {
	const burst = 100000
	net := simnet.New(simnet.DefaultConfig(1))
	from := net.Node("a")
	delivered := 0
	net.Node("b").SetHandler(func(context.Context, transport.Message) error {
		delivered++
		return nil
	})
	msg := transport.Message{To: "b", Action: "urn:test", Body: []byte("burst")}
	for range burst {
		if err := from.Send(context.Background(), msg); err != nil {
			t.Fatal(err)
		}
	}
	if net.Pending() != burst {
		t.Fatalf("%d messages in flight, want %d", net.Pending(), burst)
	}
	net.Run()
	if delivered != burst || net.Pending() != 0 {
		t.Fatalf("delivered %d of %d, %d pending", delivered, burst, net.Pending())
	}
	if n := net.Clock().FreeLen(); n != 0 {
		t.Fatalf("the clock's free list holds %d timers after the burst drained, want 0", n)
	}
}
