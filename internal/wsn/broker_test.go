package wsn

import (
	"context"
	"fmt"
	"testing"

	"wsgossip/internal/simnet"
	"wsgossip/internal/transport"
)

type wsnCluster struct {
	net       *simnet.Network
	broker    *Broker
	consumers []*Consumer
}

func newWsnCluster(t *testing.T, consumers int, seed int64) *wsnCluster {
	t.Helper()
	net := simnet.New(simnet.DefaultConfig(seed))
	broker := NewBroker(net.Node("broker"))
	bmux := transport.NewMux()
	broker.Register(bmux)
	bmux.Bind(net.Node("broker"))
	c := &wsnCluster{net: net, broker: broker}
	for i := 0; i < consumers; i++ {
		addr := fmt.Sprintf("c%03d", i)
		cons := NewConsumer(net.Node(addr))
		mux := transport.NewMux()
		cons.Register(mux)
		mux.Bind(net.Node(addr))
		c.consumers = append(c.consumers, cons)
	}
	return c
}

func TestSubscribeAndPublish(t *testing.T) {
	c := newWsnCluster(t, 8, 1)
	ctx := context.Background()
	for _, cons := range c.consumers {
		if err := cons.Subscribe(ctx, "broker"); err != nil {
			t.Fatal(err)
		}
	}
	c.net.Run()
	if got := len(c.broker.Subscribers()); got != 8 {
		t.Fatalf("subscribers = %d", got)
	}
	if err := c.broker.Publish(ctx, Notification{ID: "n1", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	for i, cons := range c.consumers {
		if !cons.Has("n1") {
			t.Fatalf("consumer %d missed n1", i)
		}
		if cons.ReceivedCount() != 1 {
			t.Fatalf("consumer %d received %d", i, cons.ReceivedCount())
		}
	}
	st := c.broker.Stats()
	if st.Published != 1 || st.NotifiesSent != 8 {
		t.Fatalf("broker stats = %+v", st)
	}
}

func TestSubscribeIdempotent(t *testing.T) {
	c := newWsnCluster(t, 1, 2)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := c.consumers[0].Subscribe(ctx, "broker"); err != nil {
			t.Fatal(err)
		}
	}
	c.net.Run()
	if got := len(c.broker.Subscribers()); got != 1 {
		t.Fatalf("subscribers = %d", got)
	}
	if st := c.broker.Stats(); st.Subscriptions != 1 {
		t.Fatalf("subscription count = %d", st.Subscriptions)
	}
}

func TestPublishViaWire(t *testing.T) {
	c := newWsnCluster(t, 4, 3)
	ctx := context.Background()
	for _, cons := range c.consumers {
		_ = cons.Subscribe(ctx, "broker")
	}
	c.net.Run()
	// A producer node publishes through the wire action rather than the
	// local method.
	producer := c.net.Node("producer")
	body := []byte(`{"id":"wire-1","payload":"aGk="}`)
	if err := producer.Send(ctx, transport.Message{To: "broker", Action: ActionPublish, Body: body}); err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	for i, cons := range c.consumers {
		if !cons.Has("wire-1") {
			t.Fatalf("consumer %d missed wire publish", i)
		}
	}
}

func TestDuplicateNotifyCountedOnce(t *testing.T) {
	c := newWsnCluster(t, 1, 4)
	ctx := context.Background()
	_ = c.consumers[0].Subscribe(ctx, "broker")
	c.net.Run()
	deliveries := 0
	c.consumers[0].SetDeliver(func(Notification) { deliveries++ })
	for i := 0; i < 3; i++ {
		_ = c.broker.Publish(ctx, Notification{ID: "same"})
	}
	c.net.Run()
	if c.consumers[0].ReceivedCount() != 1 {
		t.Fatalf("received = %d", c.consumers[0].ReceivedCount())
	}
	if deliveries != 1 {
		t.Fatalf("deliver callback ran %d times", deliveries)
	}
}

func TestBrokerLossLosesNotifications(t *testing.T) {
	// The brittleness the paper contrasts against: a lossy link between the
	// broker and a subscriber silently loses the event — there is no
	// redundancy and no repair.
	c := newWsnCluster(t, 50, 5)
	ctx := context.Background()
	for _, cons := range c.consumers {
		_ = cons.Subscribe(ctx, "broker")
	}
	c.net.Run()
	c.net.Faults().SetLoss(0.3)
	_ = c.broker.Publish(ctx, Notification{ID: "frail"})
	c.net.Run()
	missed := 0
	for _, cons := range c.consumers {
		if !cons.Has("frail") {
			missed++
		}
	}
	if missed == 0 {
		t.Fatal("no notifications lost under 30% loss; baseline should be brittle")
	}
}

func TestBrokerCrashStopsDissemination(t *testing.T) {
	c := newWsnCluster(t, 5, 6)
	ctx := context.Background()
	for _, cons := range c.consumers {
		_ = cons.Subscribe(ctx, "broker")
	}
	c.net.Run()
	c.net.Crash("broker")
	producer := c.net.Node("producer")
	_ = producer.Send(ctx, transport.Message{To: "broker", Action: ActionPublish, Body: []byte(`{"id":"dead"}`)})
	c.net.Run()
	for i, cons := range c.consumers {
		if cons.Has("dead") {
			t.Fatalf("consumer %d received through a crashed broker", i)
		}
	}
}

func TestSubscribeLocalMatchesWire(t *testing.T) {
	c := newWsnCluster(t, 0, 7)
	c.broker.SubscribeLocal("direct")
	if got := c.broker.Subscribers(); len(got) != 1 || got[0] != "direct" {
		t.Fatalf("subscribers = %v", got)
	}
}
