package wscoord

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wsgossip/internal/clock"
	"wsgossip/internal/soap"
)

const testType = "urn:test:coordtype"

func newTestCoordinator(ext RegistrationExtension) (*Coordinator, *soap.MemBus) {
	bus := soap.NewMemBus()
	coord := NewCoordinator(Config{
		Address:        "mem://coordinator",
		SupportedTypes: []string{testType},
		Extension:      ext,
	})
	d := soap.NewDispatcher()
	coord.RegisterActions(d)
	bus.Register("mem://coordinator", d)
	return coord, bus
}

func TestCreateActivityDirect(t *testing.T) {
	coord, _ := newTestCoordinator(nil)
	act, err := coord.CreateActivity(testType, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := act.Context.Validate(); err != nil {
		t.Fatalf("invalid context: %v", err)
	}
	if act.Context.CoordinationType != testType {
		t.Fatalf("type = %q", act.Context.CoordinationType)
	}
	if act.Context.RegistrationService.Address != "mem://coordinator" {
		t.Fatalf("registration service = %q", act.Context.RegistrationService.Address)
	}
	if _, ok := coord.Activity(act.Context.Identifier); !ok {
		t.Fatal("activity not stored")
	}
	if got := len(coord.ActivityIDs()); got != 1 {
		t.Fatalf("activity ids = %d", got)
	}
}

func TestCreateActivityUnsupportedType(t *testing.T) {
	coord, _ := newTestCoordinator(nil)
	_, err := coord.CreateActivity("urn:other", 0)
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
}

func TestActivationOverSOAP(t *testing.T) {
	_, bus := newTestCoordinator(nil)
	client := NewActivationClient(bus, "mem://app0")
	cctx, err := client.Create(context.Background(), "mem://coordinator", testType)
	if err != nil {
		t.Fatal(err)
	}
	if cctx.Identifier == "" || cctx.RegistrationService.Address != "mem://coordinator" {
		t.Fatalf("context = %+v", cctx)
	}
}

func TestActivationRejectsWrongType(t *testing.T) {
	_, bus := newTestCoordinator(nil)
	client := NewActivationClient(bus, "mem://app0")
	_, err := client.Create(context.Background(), "mem://coordinator", "urn:wrong")
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
}

func TestRegisterOverSOAP(t *testing.T) {
	coord, bus := newTestCoordinator(nil)
	act := NewActivationClient(bus, "mem://app1")
	cctx, err := act.Create(context.Background(), "mem://coordinator", testType)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistrationClient(bus, "mem://app1")
	resp, err := reg.Register(context.Background(), cctx, "urn:proto", "mem://app1")
	if err != nil {
		t.Fatal(err)
	}
	var body RegisterResponse
	if err := resp.DecodeBody(&body); err != nil {
		t.Fatal(err)
	}
	if body.CoordinatorProtocolService.Address != "mem://coordinator" {
		t.Fatalf("coordinator protocol service = %q", body.CoordinatorProtocolService.Address)
	}
	activity, ok := coord.Activity(cctx.Identifier)
	if !ok {
		t.Fatal("activity missing")
	}
	regs := activity.Registrants()
	if len(regs) != 1 || regs[0].Service != "mem://app1" || regs[0].Protocol != "urn:proto" {
		t.Fatalf("registrants = %+v", regs)
	}
}

func TestRegisterUnknownActivity(t *testing.T) {
	_, bus := newTestCoordinator(nil)
	reg := NewRegistrationClient(bus, "mem://app1")
	bogus := CoordinationContext{
		Identifier:          "urn:uuid:bogus",
		CoordinationType:    testType,
		RegistrationService: ServiceRef{Address: "mem://coordinator"},
	}
	_, err := reg.Register(context.Background(), bogus, "urn:proto", "mem://app1")
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
}

type extBlock struct {
	XMLName xml.Name `xml:"urn:test Ext"`
	Note    string   `xml:"Note"`
}

func TestRegistrationExtensionHeaders(t *testing.T) {
	ext := func(act *Activity, reg Registrant) ([]any, error) {
		return []any{extBlock{Note: "for-" + reg.Service}}, nil
	}
	_, bus := newTestCoordinator(ext)
	actc := NewActivationClient(bus, "mem://app1")
	cctx, err := actc.Create(context.Background(), "mem://coordinator", testType)
	if err != nil {
		t.Fatal(err)
	}
	regc := NewRegistrationClient(bus, "mem://app1")
	resp, err := regc.Register(context.Background(), cctx, "urn:proto", "mem://app1")
	if err != nil {
		t.Fatal(err)
	}
	var got extBlock
	if err := resp.DecodeHeader("urn:test", "Ext", &got); err != nil {
		t.Fatalf("extension header missing: %v", err)
	}
	if got.Note != "for-mem://app1" {
		t.Fatalf("note = %q", got.Note)
	}
}

func TestRegistrationExtensionError(t *testing.T) {
	ext := func(*Activity, Registrant) ([]any, error) {
		return nil, soap.NewFault(soap.CodeSender, "no capacity")
	}
	_, bus := newTestCoordinator(ext)
	actc := NewActivationClient(bus, "mem://app1")
	cctx, err := actc.Create(context.Background(), "mem://coordinator", testType)
	if err != nil {
		t.Fatal(err)
	}
	regc := NewRegistrationClient(bus, "mem://app1")
	_, err = regc.Register(context.Background(), cctx, "urn:proto", "mem://app1")
	var f *soap.Fault
	if !errors.As(err, &f) || f.Reason.Text != "no capacity" {
		t.Fatalf("err = %v", err)
	}
}

func TestContextHeaderRoundTrip(t *testing.T) {
	cctx := CoordinationContext{
		Identifier:          "urn:uuid:abc",
		CoordinationType:    testType,
		RegistrationService: ServiceRef{Address: "mem://coordinator"},
		ExpiresMillis:       5000,
	}
	env := soap.NewEnvelope()
	if err := AttachContext(env, cctx); err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := soap.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ContextFrom(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if got.Identifier != cctx.Identifier || got.CoordinationType != cctx.CoordinationType ||
		got.RegistrationService.Address != cctx.RegistrationService.Address ||
		got.ExpiresMillis != 5000 {
		t.Fatalf("context round trip = %+v", got)
	}
}

func TestContextFromMissing(t *testing.T) {
	env := soap.NewEnvelope()
	if _, err := ContextFrom(env); !errors.Is(err, ErrNoContext) {
		t.Fatalf("err = %v, want ErrNoContext", err)
	}
}

func TestAttachContextReplaces(t *testing.T) {
	env := soap.NewEnvelope()
	c1 := CoordinationContext{Identifier: "urn:1", CoordinationType: testType,
		RegistrationService: ServiceRef{Address: "mem://a"}}
	c2 := CoordinationContext{Identifier: "urn:2", CoordinationType: testType,
		RegistrationService: ServiceRef{Address: "mem://b"}}
	if err := AttachContext(env, c1); err != nil {
		t.Fatal(err)
	}
	if err := AttachContext(env, c2); err != nil {
		t.Fatal(err)
	}
	got, err := ContextFrom(env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Identifier != "urn:2" {
		t.Fatalf("identifier = %q", got.Identifier)
	}
}

// TestContextForPicksTheNamedActivity: with one context header per activity
// on a message, ContextFor returns the one the caller names, whichever
// position it holds, and ErrNoContext when none names it.
func TestContextForPicksTheNamedActivity(t *testing.T) {
	env := soap.NewEnvelope()
	for _, id := range []string{"urn:1", "urn:2"} {
		b, err := ContextBlock(CoordinationContext{Identifier: id, CoordinationType: testType,
			RegistrationService: ServiceRef{Address: "mem://" + id}})
		if err != nil {
			t.Fatal(err)
		}
		env.AddHeaderBlock(b)
	}
	for _, id := range []string{"urn:1", "urn:2"} {
		got, err := ContextFor(env, id)
		if err != nil || got.Identifier != id || got.RegistrationService.Address != "mem://"+id {
			t.Fatalf("ContextFor(%s) = %+v, %v", id, got, err)
		}
	}
	if _, err := ContextFor(env, "urn:3"); !errors.Is(err, ErrNoContext) {
		t.Fatalf("ContextFor of an absent activity: err = %v, want ErrNoContext", err)
	}
}

func TestContextValidate(t *testing.T) {
	valid := CoordinationContext{
		Identifier:          "urn:1",
		CoordinationType:    testType,
		RegistrationService: ServiceRef{Address: "mem://c"},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid context rejected: %v", err)
	}
	for name, mutate := range map[string]func(*CoordinationContext){
		"no id":           func(c *CoordinationContext) { c.Identifier = "" },
		"no type":         func(c *CoordinationContext) { c.CoordinationType = "" },
		"no registration": func(c *CoordinationContext) { c.RegistrationService.Address = "" },
	} {
		c := valid
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestImportActivity(t *testing.T) {
	coord, _ := newTestCoordinator(nil)
	cctx := CoordinationContext{
		Identifier:          "urn:imported",
		CoordinationType:    testType,
		RegistrationService: ServiceRef{Address: "mem://other"},
	}
	a1 := coord.ImportActivity(cctx)
	a2 := coord.ImportActivity(cctx)
	if a1 != a2 {
		t.Fatal("import not idempotent")
	}
	if _, ok := coord.Activity("urn:imported"); !ok {
		t.Fatal("imported activity missing")
	}
}

func TestServiceRefEPR(t *testing.T) {
	ref := ServiceRef{Address: "mem://x"}
	if ref.EPR().Address != "mem://x" {
		t.Fatal("EPR conversion wrong")
	}
}

func TestActivityExpiry(t *testing.T) {
	coord, _ := newTestCoordinator(nil)
	// 1 ms expiry window.
	act, err := coord.CreateActivity(testType, 1)
	if err != nil {
		t.Fatal(err)
	}
	eternal, err := coord.CreateActivity(testType, 0)
	if err != nil {
		t.Fatal(err)
	}
	now := act.Created.Add(10 * time.Millisecond)
	if !act.Expired(now) {
		t.Fatal("activity not expired after its window")
	}
	if eternal.Expired(now.Add(time.Hour)) {
		t.Fatal("activity without Expires expired")
	}
	if removed := coord.PruneExpired(now); removed != 1 {
		t.Fatalf("pruned = %d, want 1", removed)
	}
	if _, ok := coord.Activity(act.Context.Identifier); ok {
		t.Fatal("expired activity still present")
	}
	if _, ok := coord.Activity(eternal.Context.Identifier); !ok {
		t.Fatal("eternal activity pruned")
	}
}

func TestRegisterOnExpiredActivityFails(t *testing.T) {
	coord, _ := newTestCoordinator(nil)
	act, err := coord.CreateActivity(testType, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Force the creation time into the past so the window has elapsed.
	act.Created = act.Created.Add(-time.Second)
	if _, err := coord.AddRegistrant(act.Context.Identifier, Registrant{
		Protocol: "urn:p", Service: "mem://x",
	}); !errors.Is(err, ErrUnknownActivity) {
		t.Fatalf("err = %v, want ErrUnknownActivity", err)
	}
	// The expired activity is garbage-collected on contact.
	if _, ok := coord.Activity(act.Context.Identifier); ok {
		t.Fatal("expired activity survived registration attempt")
	}
}

// TestInjectedClockExpiry drives activity expiry entirely on an injected
// virtual time source: no wall-clock dependence, no Created rewriting.
func TestInjectedClockExpiry(t *testing.T) {
	vc := clock.NewVirtual()
	epoch := time.Unix(0, 0)
	coord := NewCoordinator(Config{
		Address:        "mem://coordinator",
		SupportedTypes: []string{testType},
		Now:            func() time.Time { return epoch.Add(vc.Now()) },
	})
	act, err := coord.CreateActivity(testType, 50) // 50 ms window
	if err != nil {
		t.Fatal(err)
	}
	if !act.Created.Equal(epoch) {
		t.Fatalf("created stamp %v, want epoch", act.Created)
	}
	vc.Advance(40 * time.Millisecond)
	if _, err := coord.AddRegistrant(act.Context.Identifier, Registrant{
		Protocol: "urn:p", Service: "mem://a",
	}); err != nil {
		t.Fatalf("register inside window: %v", err)
	}
	vc.Advance(20 * time.Millisecond) // 60 ms > 50 ms window
	if _, err := coord.AddRegistrant(act.Context.Identifier, Registrant{
		Protocol: "urn:p", Service: "mem://b",
	}); !errors.Is(err, ErrUnknownActivity) {
		t.Fatalf("err = %v, want ErrUnknownActivity after virtual expiry", err)
	}
}

// TestConcurrentRegistrantsRace hammers AddRegistrant against Registrants
// readers — the activity pointer escapes to extensions and observers, so
// the list needs its own synchronization (run under -race).
func TestConcurrentRegistrantsRace(t *testing.T) {
	coord, _ := newTestCoordinator(nil)
	act, err := coord.CreateActivity(testType, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := coord.AddRegistrant(act.Context.Identifier, Registrant{
					Protocol: "urn:p",
					Service:  fmt.Sprintf("mem://svc-%d-%d", g, i),
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = act.Registrants()
			}
		}()
	}
	wg.Wait()
	if got := len(act.Registrants()); got != 800 {
		t.Fatalf("registrants = %d, want 800", got)
	}
}
