package wsgossip_test

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"wsgossip"
	"wsgossip/internal/soap"
)

// listen opens a loopback listener and returns it with its base URL: a
// node's address is its listener's URL, known before the node is built.
func listen(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln, "http://" + ln.Addr().String() + "/"
}

// TestNodeHTTPStopLeavesNoGoroutine runs a coordinator and two nodes, each
// with a delivery plane and a live view, as real HTTP servers talking through
// one soap.HTTPClient; it publishes a notification to both, stops both
// nodes, closes the client's idle connections, shuts the servers down, and
// then no goroutine the run started may be left.
func TestNodeHTTPStopLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	transport := &http.Transport{}
	client := soap.NewHTTPClient(&http.Client{Transport: transport, Timeout: 5 * time.Second})

	serving, stopServing := context.WithCancel(context.Background())
	defer stopServing()
	served := make(chan error, 3)
	serve := func(ln net.Listener, h soap.Handler) {
		go func() { served <- soap.Serve(serving, ln, soap.NewHTTPServer(h)) }()
	}

	coordLn, coordURL := listen(t)
	coord := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{Address: coordURL})
	serve(coordLn, coord.Handler())

	got := make(chan struct{}, 4)
	app := soap.HandlerFunc(func(context.Context, *soap.Request) (*soap.Envelope, error) {
		got <- struct{}{}
		return nil, nil
	})
	var lns []net.Listener
	var nodes []*wsgossip.Node
	var urls []string
	for i := 0; i < 2; i++ {
		ln, url := listen(t)
		lns, urls = append(lns, ln), append(urls, url)
	}
	for i, url := range urls {
		node, err := wsgossip.NewNode(wsgossip.NodeConfig{
			Address:     url,
			Caller:      client,
			App:         app,
			Coordinator: coordURL,
			RepairEvery: 20 * time.Millisecond,
			Membership: &wsgossip.NodeMembership{
				Seeds: []string{urls[1-i]}, Every: 20 * time.Millisecond,
				SuspectAfter: time.Minute, RemoveAfter: 2 * time.Minute,
			},
			Delivery: &wsgossip.DeliveryConfig{},
		})
		if err != nil {
			t.Fatal(err)
		}
		serve(lns[i], node.Handler())
		nodes = append(nodes, node)
		if err := node.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for len(coord.Subscribers()) < len(nodes) {
		select {
		case <-ctx.Done():
			t.Fatalf("%d of %d nodes subscribed", len(coord.Subscribers()), len(nodes))
		case <-time.After(5 * time.Millisecond):
		}
	}

	init, err := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
		Address: "urn:test:initiator", Caller: client, Activation: coordURL,
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := init.StartInteraction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := init.Notify(ctx, inter, wireNote{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		select {
		case <-got:
		case <-ctx.Done():
			t.Fatalf("%d of %d nodes delivered the notification", i, len(nodes))
		}
	}

	for _, node := range nodes {
		node.Stop()
	}
	transport.CloseIdleConnections()
	stopServing()
	for range cap(served) {
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 400 {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Stop, %d before the nodes:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
