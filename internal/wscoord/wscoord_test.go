package wscoord

import (
	"errors"
	"testing"

	"wsgossip/internal/soap"
)

const testType = "urn:test:coordtype"

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

func TestServiceRefEPR(t *testing.T) {
	ref := ServiceRef{Address: "mem://x"}
	if ref.EPR().Address != "mem://x" {
		t.Fatal("EPR conversion wrong")
	}
}
