package wsn

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"wsgossip/internal/transport"
)

// Wire actions.
const (
	ActionSubscribe = "urn:wsgossip:wsn:subscribe"
	ActionPublish   = "urn:wsgossip:wsn:publish"
	ActionNotify    = "urn:wsgossip:wsn:notify"
)

// Notification is the payload delivered to subscribers.
type Notification struct {
	ID      string `json:"id"`
	Payload []byte `json:"payload,omitempty"`
}

type subscribeMsg struct {
	Endpoint string `json:"endpoint"`
}

// BrokerStats counts broker activity.
type BrokerStats struct {
	Published     int64
	NotifiesSent  int64
	Subscriptions int64
}

// Broker is the centralized notification service.
type Broker struct {
	ep transport.Endpoint

	mu    sync.Mutex
	subs  map[string]struct{}
	stats BrokerStats
}

// NewBroker attaches a broker to the endpoint.
func NewBroker(ep transport.Endpoint) *Broker {
	return &Broker{ep: ep, subs: make(map[string]struct{})}
}

// brokerActions are the broker's wire actions, which Register binds as one
// route.
var brokerActions = []string{ActionSubscribe, ActionPublish}

// Register installs the broker's wire actions on the mux, as one route.
func (b *Broker) Register(mux *transport.Mux) {
	mux.Route(brokerActions, b.handle)
}

// handle is the broker's route: it passes msg to its action's handler.
func (b *Broker) handle(ctx context.Context, msg transport.Message) error {
	if msg.Action == ActionPublish {
		return b.handlePublish(ctx, msg)
	}
	return b.handleSubscribe(ctx, msg)
}

// Addr returns the broker's address.
func (b *Broker) Addr() string { return b.ep.Addr() }

// Stats returns a copy of the counters.
func (b *Broker) Stats() BrokerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Subscribers returns the sorted subscriber list.
func (b *Broker) Subscribers() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.subs))
	for s := range b.subs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// SubscribeLocal adds a subscriber without a network round-trip.
func (b *Broker) SubscribeLocal(endpoint string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[endpoint]; !ok {
		b.subs[endpoint] = struct{}{}
		b.stats.Subscriptions++
	}
}

func (b *Broker) handleSubscribe(_ context.Context, msg transport.Message) error {
	var sm subscribeMsg
	if err := json.Unmarshal(msg.Body, &sm); err != nil {
		return fmt.Errorf("wsn: decode subscribe: %w", err)
	}
	if sm.Endpoint == "" {
		return errors.New("wsn: subscribe with empty endpoint")
	}
	b.SubscribeLocal(sm.Endpoint)
	return nil
}

// Publish fans the notification out to every subscriber, sequentially, as a
// WS-Notification broker would. Send errors are counted by the fabric; the
// broker has no retry logic (matching the paper's framing of brittle
// centralized dissemination).
func (b *Broker) Publish(ctx context.Context, n Notification) error {
	body, err := json.Marshal(n)
	if err != nil {
		return fmt.Errorf("wsn: encode notification: %w", err)
	}
	b.mu.Lock()
	targets := make([]string, 0, len(b.subs))
	for s := range b.subs {
		targets = append(targets, s)
	}
	sort.Strings(targets)
	b.stats.Published++
	b.stats.NotifiesSent += int64(len(targets))
	b.mu.Unlock()
	for _, t := range targets {
		_ = b.ep.Send(ctx, transport.Message{To: t, Action: ActionNotify, Body: body})
	}
	return nil
}

func (b *Broker) handlePublish(ctx context.Context, msg transport.Message) error {
	var n Notification
	if err := json.Unmarshal(msg.Body, &n); err != nil {
		return fmt.Errorf("wsn: decode publish: %w", err)
	}
	return b.Publish(ctx, n)
}

// Consumer is a broker subscriber that records delivered notification IDs.
type Consumer struct {
	ep transport.Endpoint

	mu       sync.Mutex
	received map[string]struct{}
	deliver  func(Notification)
}

// NewConsumer attaches a consumer to the endpoint.
func NewConsumer(ep transport.Endpoint) *Consumer {
	return &Consumer{ep: ep, received: make(map[string]struct{})}
}

// Register installs the notify action on the mux.
func (c *Consumer) Register(mux *transport.Mux) {
	mux.Handle(ActionNotify, c.handleNotify)
}

// SetDeliver installs an optional delivery callback.
func (c *Consumer) SetDeliver(fn func(Notification)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deliver = fn
}

// Addr returns the consumer's address.
func (c *Consumer) Addr() string { return c.ep.Addr() }

// Subscribe sends a subscription to the broker.
func (c *Consumer) Subscribe(ctx context.Context, broker string) error {
	body, err := json.Marshal(subscribeMsg{Endpoint: c.ep.Addr()})
	if err != nil {
		return err
	}
	return c.ep.Send(ctx, transport.Message{To: broker, Action: ActionSubscribe, Body: body})
}

func (c *Consumer) handleNotify(_ context.Context, msg transport.Message) error {
	var n Notification
	if err := json.Unmarshal(msg.Body, &n); err != nil {
		return fmt.Errorf("wsn: decode notify: %w", err)
	}
	c.mu.Lock()
	_, dup := c.received[n.ID]
	if !dup {
		c.received[n.ID] = struct{}{}
	}
	deliver := c.deliver
	c.mu.Unlock()
	if !dup && deliver != nil {
		deliver(n)
	}
	return nil
}

// ReceivedCount returns the number of unique notifications delivered.
func (c *Consumer) ReceivedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.received)
}

// Has reports whether the notification ID was delivered.
func (c *Consumer) Has(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.received[id]
	return ok
}
