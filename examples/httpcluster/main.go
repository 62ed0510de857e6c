// Httpcluster: a real SOAP-1.2-over-HTTP WS-Gossip deployment on localhost.
// One coordinator, six disseminators, and one unchanged consumer run as
// actual HTTP servers on ephemeral ports; an initiator activates a gossip
// interaction and issues notifications that spread hop by hop over the wire,
// with repair rounds closing what push misses. It exits 1 if a disseminator
// lacks a notification, or the consumer has none, after 5 s.
//
//	go run ./examples/httpcluster
package main

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"wsgossip"
	"wsgossip/internal/soap"
)

type alert struct {
	XMLName xml.Name `xml:"urn:example:alert Alert"`
	Text    string   `xml:"Text"`
}

// delivered signals each application delivery so the main goroutine waits
// on events instead of sleep-polling.
var delivered = make(chan struct{}, 256)

type recorder struct {
	mu    sync.Mutex
	name  string
	texts []string
}

func (r *recorder) HandleSOAP(_ context.Context, req *soap.Request) (*soap.Envelope, error) {
	var a alert
	if err := req.Envelope.DecodeBody(&a); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.texts = append(r.texts, a.Text)
	r.mu.Unlock()
	select {
	case delivered <- struct{}{}:
	default:
	}
	return nil, nil
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.texts)
}

// listen opens a listener on an ephemeral port and returns it with the base
// URL it serves: an endpoint's address is known before its coordinator or
// node is built.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, fmt.Sprintf("http://%s/", ln.Addr()), nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "httpcluster:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	client := soap.NewHTTPClient(nil)

	// Every endpoint serves until run returns, and run returns once each
	// has shut down.
	var servers sync.WaitGroup
	defer func() {
		cancel()
		servers.Wait()
	}()
	serve := func(ln net.Listener, h soap.Handler) {
		servers.Add(1)
		go func() {
			defer servers.Done()
			if err := soap.Serve(ctx, ln, soap.NewHTTPServer(h)); err != nil {
				log.Printf("serving %s: %v", ln.Addr(), err)
			}
		}()
	}

	// Coordinator, served over real HTTP.
	ln, coordURL, err := listen()
	if err != nil {
		return err
	}
	coordinator := wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{Address: coordURL})
	serve(ln, coordinator.Handler())
	log.Printf("coordinator at %s", coordURL)

	// Six disseminators and one unchanged consumer, each a Node served over
	// HTTP at its listener's URL. Start subscribes in the background
	// (retrying until the coordinator answers); wait until all seven have.
	const disseminators = 6
	var nodes []*wsgossip.Node
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
	}()
	startNode := func(role string, rec *recorder) (string, error) {
		ln, url, err := listen()
		if err != nil {
			return "", err
		}
		node, err := wsgossip.NewNode(wsgossip.NodeConfig{
			Address:     url,
			Role:        role,
			Caller:      client,
			App:         rec,
			Coordinator: coordURL,
			// Push at fanout 3 reaches about 94 % of the group per
			// notification; a repair round closes the rest within the budget.
			RepairEvery: 100 * time.Millisecond,
		})
		if err != nil {
			ln.Close()
			return "", err
		}
		serve(ln, node.Handler())
		nodes = append(nodes, node)
		return url, node.Start(ctx)
	}
	recorders := make([]*recorder, disseminators)
	for i := range recorders {
		recorders[i] = &recorder{name: fmt.Sprintf("dissem%d", i)}
		url, err := startNode(wsgossip.RoleDisseminator, recorders[i])
		if err != nil {
			return err
		}
		log.Printf("disseminator %d at %s", i, url)
	}
	consumerRec := &recorder{name: "consumer"}
	consumerURL, err := startNode(wsgossip.RoleConsumer, consumerRec)
	if err != nil {
		return err
	}
	log.Printf("consumer at %s", consumerURL)
	for len(coordinator.Subscribers()) < disseminators+1 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("subscriptions incomplete: %w", ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}

	// Initiator.
	initiator, err := wsgossip.NewInitiator(wsgossip.InitiatorConfig{
		Address:    "urn:wsgossip:httpcluster:initiator",
		Caller:     client,
		Activation: coordURL,
	})
	if err != nil {
		return err
	}
	interaction, err := initiator.StartInteraction(ctx)
	if err != nil {
		return err
	}
	log.Printf("interaction %s: fanout=%d hops=%d",
		interaction.Context.Identifier, interaction.Params.Fanout, interaction.Params.Hops)

	const notifications = 3
	for i := 1; i <= notifications; i++ {
		if _, sent, err := initiator.Notify(ctx, interaction, alert{
			Text: fmt.Sprintf("alert %d: breaker tripped", i),
		}); err != nil {
			return err
		} else {
			log.Printf("notification %d issued to %d targets", i, sent)
		}
	}

	// HTTP dissemination is asynchronous one-way at each hop; each delivery
	// signals, so wait on events rather than polling.
	complete := func() bool {
		if consumerRec.count() < 1 {
			return false
		}
		for _, rec := range recorders {
			if rec.count() < notifications {
				return false
			}
		}
		return true
	}
	timeout := time.After(5 * time.Second)
	var incomplete error
wait:
	for !complete() {
		select {
		case <-delivered:
		case <-timeout:
			incomplete = errors.New("epidemic incomplete at the 5s budget")
			break wait
		}
	}

	for i, rec := range recorders {
		log.Printf("disseminator %d delivered %d/%d notifications", i, rec.count(), notifications)
	}
	log.Printf("unchanged consumer delivered %d copies", consumerRec.count())
	return incomplete
}
