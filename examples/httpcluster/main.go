// Httpcluster: a real SOAP-1.2-over-HTTP WS-Gossip deployment on localhost.
// One coordinator, six disseminators, and one unchanged consumer run as
// actual HTTP servers on ephemeral ports; an initiator activates a gossip
// interaction and issues notifications that spread hop by hop over the wire.
//
//	go run ./examples/httpcluster
package main

import (
	"context"
	"encoding/xml"
	"fmt"
	"log"
	"net"
	"net/http"
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

// The bounds each server puts on a peer: the head within readHeaderTimeout,
// the whole request, body included, within readTimeout, which is
// postTimeout, the longest the example's client waits for a POST; so a peer
// that stalls mid-body holds a connection no longer than a sender waits. A
// kept-alive connection idle for idleTimeout, longer than net/http's default
// client keeps one (90 s), is closed.
const (
	postTimeout       = 5 * time.Second
	readHeaderTimeout = 5 * time.Second
	readTimeout       = postTimeout
	idleTimeout       = 2 * time.Minute
)

// serveSOAP starts an HTTP server for the handler on an ephemeral port and
// returns its base URL and a shutdown function.
func serveSOAP(h soap.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           soap.NewHTTPServer(h),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	go func() { _ = srv.Serve(ln) }()
	url := fmt.Sprintf("http://%s/", ln.Addr().String())
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	return url, stop, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "httpcluster:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client := soap.NewHTTPClient(&http.Client{Timeout: postTimeout})

	// Coordinator, served over real HTTP. Its public address is only known
	// after the listener binds, so construct it in two steps.
	var coordinator *wsgossip.Coordinator
	coordHandler := soap.HandlerFunc(func(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
		return coordinator.Handler().HandleSOAP(ctx, req)
	})
	coordURL, stopCoord, err := serveSOAP(coordHandler)
	if err != nil {
		return err
	}
	defer stopCoord()
	coordinator = wsgossip.NewCoordinator(wsgossip.CoordinatorConfig{Address: coordURL})
	log.Printf("coordinator at %s", coordURL)

	// Six disseminators and one unchanged consumer, each a Node served over
	// HTTP. A node's address is its listener's URL, so the handler is bound
	// before the node exists. Start subscribes in the background (retrying
	// until the coordinator answers); wait until all seven have.
	const disseminators = 6
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	startNode := func(role string, rec *recorder) (string, error) {
		var node *wsgossip.Node
		url, stop, err := serveSOAP(soap.HandlerFunc(func(ctx context.Context, req *soap.Request) (*soap.Envelope, error) {
			return node.Handler().HandleSOAP(ctx, req)
		}))
		if err != nil {
			return "", err
		}
		stops = append(stops, stop)
		node, err = wsgossip.NewNode(wsgossip.NodeConfig{
			Address:     url,
			Role:        role,
			Caller:      client,
			App:         rec,
			Coordinator: coordURL,
		})
		if err != nil {
			return "", err
		}
		stops = append(stops, node.Stop)
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
wait:
	for !complete() {
		select {
		case <-delivered:
		case <-timeout:
			log.Printf("epidemic incomplete at the 5s budget; reporting what arrived")
			break wait
		}
	}

	for i, rec := range recorders {
		log.Printf("disseminator %d delivered %d/%d notifications", i, rec.count(), notifications)
	}
	log.Printf("unchanged consumer delivered %d copies", consumerRec.count())
	return nil
}
