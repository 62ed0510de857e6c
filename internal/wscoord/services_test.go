package wscoord_test

// The Activation and Registration services driven through this package's
// clients. core.Coordinator is the one implementation of both services, so
// these tests run against it from the outside, over a MemBus.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/core"
	"wsgossip/internal/soap"
	"wsgossip/internal/wsa"
	"wsgossip/internal/wscoord"
)

const coordAddr = "mem://coordinator"

func newTestCoordinator(cfg core.CoordinatorConfig) (*core.Coordinator, *soap.MemBus) {
	cfg.Address = coordAddr
	coord := core.NewCoordinator(cfg)
	bus := soap.NewMemBus()
	bus.Register(coordAddr, coord.Handler())
	return coord, bus
}

// createWithExpiry activates over SOAP with an explicit Expires window,
// which ActivationClient never asks for.
func createWithExpiry(t *testing.T, bus *soap.MemBus, expiresMillis uint64) wscoord.CoordinationContext {
	t.Helper()
	env := soap.NewEnvelope()
	if err := env.SetAddressing(wsa.Headers{To: coordAddr, Action: wscoord.ActionCreate, MessageID: wsa.NewMessageID()}); err != nil {
		t.Fatal(err)
	}
	if err := env.SetBody(wscoord.CreateCoordinationContext{
		ExpiresMillis:    expiresMillis,
		CoordinationType: core.CoordinationTypeGossip,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := bus.Call(context.Background(), coordAddr, env)
	if err != nil {
		t.Fatal(err)
	}
	var body wscoord.CreateCoordinationContextResponse
	if err := resp.DecodeBody(&body); err != nil {
		t.Fatal(err)
	}
	return body.CoordinationContext
}

func register(bus *soap.MemBus, cctx wscoord.CoordinationContext, service string) (*soap.Envelope, error) {
	return wscoord.NewRegistrationClient(bus, service).
		Register(context.Background(), cctx, core.ProtocolPushGossip, service)
}

func wantSenderFault(t *testing.T, err error) *soap.Fault {
	t.Helper()
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	if f.Code.Value != soap.CodeSender {
		t.Fatalf("fault code = %q, want Sender", f.Code.Value)
	}
	return f
}

func TestCreateActivityDirect(t *testing.T) {
	coord, bus := newTestCoordinator(core.CoordinatorConfig{})
	cctx := coord.CreateActivity()
	if err := cctx.Validate(); err != nil {
		t.Fatalf("invalid context: %v", err)
	}
	if cctx.CoordinationType != core.CoordinationTypeGossip {
		t.Fatalf("type = %q", cctx.CoordinationType)
	}
	if cctx.RegistrationService.Address != coordAddr {
		t.Fatalf("registration service = %q", cctx.RegistrationService.Address)
	}
	if got := coord.LiveActivities(); got != 1 {
		t.Fatalf("live activities = %d", got)
	}
	if _, err := register(bus, cctx, "mem://app1"); err != nil {
		t.Fatalf("activity not stored: %v", err)
	}
}

func TestActivationOverSOAP(t *testing.T) {
	_, bus := newTestCoordinator(core.CoordinatorConfig{})
	client := wscoord.NewActivationClient(bus, "mem://app0")
	cctx, err := client.Create(context.Background(), coordAddr, core.CoordinationTypeGossip)
	if err != nil {
		t.Fatal(err)
	}
	if cctx.Identifier == "" || cctx.RegistrationService.Address != coordAddr {
		t.Fatalf("context = %+v", cctx)
	}
}

func TestActivationRejectsWrongType(t *testing.T) {
	coord, bus := newTestCoordinator(core.CoordinatorConfig{})
	client := wscoord.NewActivationClient(bus, "mem://app0")
	_, err := client.Create(context.Background(), coordAddr, "urn:wrong")
	wantSenderFault(t, err)
	if got := coord.LiveActivities(); got != 0 {
		t.Fatalf("refused activation stored %d activities", got)
	}
}

func TestRegisterOverSOAP(t *testing.T) {
	coord, bus := newTestCoordinator(core.CoordinatorConfig{})
	act := wscoord.NewActivationClient(bus, "mem://app1")
	cctx, err := act.Create(context.Background(), coordAddr, core.CoordinationTypeGossip)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := register(bus, cctx, "mem://app1")
	if err != nil {
		t.Fatal(err)
	}
	var body wscoord.RegisterResponse
	if err := resp.DecodeBody(&body); err != nil {
		t.Fatal(err)
	}
	if body.CoordinatorProtocolService.Address != coordAddr {
		t.Fatalf("coordinator protocol service = %q", body.CoordinatorProtocolService.Address)
	}
	if got := coord.Stats().Registrations; got != 1 {
		t.Fatalf("registrations = %d, want 1", got)
	}
}

func TestRegisterUnknownActivity(t *testing.T) {
	_, bus := newTestCoordinator(core.CoordinatorConfig{})
	bogus := wscoord.CoordinationContext{
		Identifier:          "urn:uuid:bogus",
		CoordinationType:    core.CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: coordAddr},
	}
	_, err := register(bus, bogus, "mem://app1")
	wantSenderFault(t, err)
}

// TestRegistrationExtensionHeaders: a Register response carries the
// protocol's parameter block as an extra header, sized by the parameter
// policy and naming targets other than the registrant.
func TestRegistrationExtensionHeaders(t *testing.T) {
	coord, bus := newTestCoordinator(core.CoordinatorConfig{
		Params: func(int) (int, int) { return 2, 4 },
	})
	for _, sub := range []string{"mem://app1", "mem://app2"} {
		if err := coord.SubscribeLocal(context.Background(), sub, core.RoleDisseminator); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := register(bus, coord.CreateActivity(), "mem://app1")
	if err != nil {
		t.Fatal(err)
	}
	params, err := core.GossipParametersFrom(resp)
	if err != nil {
		t.Fatalf("extension header missing: %v", err)
	}
	if params.Fanout != 2 || params.Hops != 4 {
		t.Fatalf("parameters = (%d, %d), want (2, 4)", params.Fanout, params.Hops)
	}
	if len(params.Targets) != 1 || params.Targets[0] != "mem://app2" {
		t.Fatalf("targets = %v, want [mem://app2]", params.Targets)
	}
}

// TestRegistrationExtensionError: a registration the protocol table refuses
// reaches the registrant as that Sender fault, reason intact, and is not
// counted.
func TestRegistrationExtensionError(t *testing.T) {
	coord, bus := newTestCoordinator(core.CoordinatorConfig{})
	cctx := coord.CreateActivity()
	_, err := wscoord.NewRegistrationClient(bus, "mem://app1").
		Register(context.Background(), cctx, "urn:proto", "mem://app1")
	f := wantSenderFault(t, err)
	if want := `unsupported coordination protocol "urn:proto"`; f.Reason.Text != want {
		t.Fatalf("reason = %q, want %q", f.Reason.Text, want)
	}
	if got := coord.Stats().Registrations; got != 0 {
		t.Fatalf("refused registration counted: %d", got)
	}
}

// TestImportActivity: importing the same context twice leaves one
// activity, and a Register against it succeeds.
func TestImportActivity(t *testing.T) {
	coord, bus := newTestCoordinator(core.CoordinatorConfig{ReplicateActivities: true})
	cctx := wscoord.CoordinationContext{
		Identifier:          "urn:imported",
		CoordinationType:    core.CoordinationTypeGossip,
		RegistrationService: wscoord.ServiceRef{Address: "mem://other"},
	}
	for i := 0; i < 2; i++ {
		env := soap.NewEnvelope()
		if err := env.SetAddressing(wsa.Headers{To: coordAddr, Action: core.ActionReplicateActivity, MessageID: wsa.NewMessageID()}); err != nil {
			t.Fatal(err)
		}
		if err := env.SetBody(core.ReplicateActivity{Context: cctx}); err != nil {
			t.Fatal(err)
		}
		if _, err := bus.Call(context.Background(), coordAddr, env); err != nil {
			t.Fatal(err)
		}
	}
	if got := coord.LiveActivities(); got != 1 {
		t.Fatalf("import not idempotent: %d activities", got)
	}
	cctx.RegistrationService.Address = coordAddr // fail over to this replica
	if _, err := register(bus, cctx, "mem://app1"); err != nil {
		t.Fatalf("imported activity missing: %v", err)
	}
}

func TestActivityExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	coord, bus := newTestCoordinator(core.CoordinatorConfig{Now: func() time.Time { return now }})
	expiring := createWithExpiry(t, bus, 1) // 1 ms window
	eternal := coord.CreateActivity()       // no ActivityTTL: never expires
	now = now.Add(10 * time.Millisecond)
	if removed := coord.PruneExpired(now); removed != 1 {
		t.Fatalf("pruned = %d, want 1", removed)
	}
	if _, err := register(bus, expiring, "mem://app1"); err == nil {
		t.Fatal("expired activity still present")
	}
	now = now.Add(time.Hour)
	if removed := coord.PruneExpired(now); removed != 0 {
		t.Fatalf("activity without Expires pruned (%d)", removed)
	}
	if _, err := register(bus, eternal, "mem://app1"); err != nil {
		t.Fatalf("eternal activity pruned: %v", err)
	}
}

// TestRegisterOnExpiredActivityFails: an explicit Expires wins over
// ActivityTTL, a Register after it elapses is a Sender fault, and the
// expired activity is forgotten on contact.
func TestRegisterOnExpiredActivityFails(t *testing.T) {
	now := time.Unix(0, 0)
	coord, bus := newTestCoordinator(core.CoordinatorConfig{
		Now:         func() time.Time { return now },
		ActivityTTL: time.Hour,
	})
	cctx := createWithExpiry(t, bus, 1)
	if cctx.ExpiresMillis != 1 {
		t.Fatalf("Expires = %d ms, want the explicit 1", cctx.ExpiresMillis)
	}
	now = now.Add(time.Second)
	_, err := register(bus, cctx, "mem://x")
	wantSenderFault(t, err)
	if got := coord.LiveActivities(); got != 0 {
		t.Fatalf("expired activity survived registration attempt: %d live", got)
	}
}

// TestInjectedClockExpiry drives activity expiry entirely on an injected
// virtual time source: the window starts at the virtual creation instant.
func TestInjectedClockExpiry(t *testing.T) {
	vc := clock.NewVirtual()
	epoch := time.Unix(0, 0)
	coord, bus := newTestCoordinator(core.CoordinatorConfig{
		Now:         func() time.Time { return epoch.Add(vc.Now()) },
		ActivityTTL: 50 * time.Millisecond,
	})
	cctx := coord.CreateActivity()
	vc.Advance(40 * time.Millisecond)
	if _, err := register(bus, cctx, "mem://a"); err != nil {
		t.Fatalf("register inside window: %v", err)
	}
	vc.Advance(20 * time.Millisecond) // 60 ms > 50 ms window
	_, err := register(bus, cctx, "mem://b")
	wantSenderFault(t, err)
}

// TestConcurrentRegistrantsRace hammers Register for one activity against
// activations, prune rounds and LiveActivities readers: they all share the
// coordinator's one activity table (run under -race).
func TestConcurrentRegistrantsRace(t *testing.T) {
	coord, bus := newTestCoordinator(core.CoordinatorConfig{})
	cctx := coord.CreateActivity()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := register(bus, cctx, fmt.Sprintf("mem://svc-%d-%d", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				coord.CreateActivity()
				coord.PruneExpired(time.Now())
				_ = coord.LiveActivities()
			}
		}()
	}
	wg.Wait()
	if got := coord.Stats().Registrations; got != 800 {
		t.Fatalf("registrations = %d, want 800", got)
	}
}
