package wscoord

import (
	"bytes"
	"encoding/xml"
	"testing"

	"wsgossip/internal/soap"
)

// inEnvelope returns an encoded envelope whose only header block is raw,
// spliced in verbatim where a placeholder block was encoded.
func inEnvelope(t *testing.T, raw []byte) []byte {
	t.Helper()
	placeholder := []byte(`<Placeholder xmlns="urn:fuzz"></Placeholder>`)
	env := soap.NewEnvelope()
	env.AddHeaderBlock(soap.Block{XMLName: xml.Name{Space: "urn:fuzz", Local: "Placeholder"}, Raw: placeholder})
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Replace(data, placeholder, raw, 1)
}

// FuzzCoordinationContext feeds arbitrary header blocks to ContextFrom, the
// first thing a service reads off an interaction's first message. It must
// never panic, and a context it accepts must pass Validate and survive
// ContextBlock → ContextFrom unchanged, so a node that forwards the context
// it was handed forwards what it read.
func FuzzCoordinationContext(f *testing.F) {
	for _, ctx := range []CoordinationContext{
		{Identifier: "urn:uuid:a", CoordinationType: testType, RegistrationService: ServiceRef{Address: "mem://coordinator"}},
		{Identifier: "urn:uuid:b", ExpiresMillis: 5000, CoordinationType: testType, RegistrationService: ServiceRef{Address: "http://127.0.0.1:9000/"}},
		{Identifier: `a&b<c>"d"`, CoordinationType: "t", RegistrationService: ServiceRef{Address: "r"}},
		{Identifier: "urn:uuid:c", CoordinationType: testType},
	} {
		b, err := ContextBlock(ctx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b.Raw)
	}
	f.Add([]byte(`<wscoor:CoordinationContext xmlns:wscoor="` + Namespace + `" xmlns:wsa="http://www.w3.org/2005/08/addressing">` +
		`<wscoor:Identifier>urn:uuid:d</wscoor:Identifier><wscoor:CoordinationType>t</wscoor:CoordinationType>` +
		`<wscoor:RegistrationService><wsa:Address>mem://c</wsa:Address></wscoor:RegistrationService></wscoor:CoordinationContext>`))
	f.Add([]byte(`<CoordinationContext xmlns="` + Namespace + `"><Identifier>x</Identifier><Expires>-1</Expires></CoordinationContext>`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		env, err := soap.Decode(inEnvelope(t, raw))
		if err != nil {
			return // the envelope decoder has fuzz targets of its own
		}
		ctx, err := ContextFrom(env)
		if err != nil {
			return
		}
		if err := ctx.Validate(); err != nil {
			t.Fatalf("accepted an invalid context %+v: %v", ctx, err)
		}
		b, err := ContextBlock(ctx)
		if err != nil {
			t.Fatalf("accepted context %+v does not marshal: %v", ctx, err)
		}
		out := soap.NewEnvelope()
		out.AddHeaderBlock(b)
		data, err := out.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := soap.Decode(data)
		if err != nil {
			t.Fatalf("decode of a re-attached context: %v\nwire: %q", err, data)
		}
		got, err := ContextFrom(back)
		if err != nil {
			t.Fatalf("re-attached context %+v refused: %v\nwire: %q", ctx, err, data)
		}
		got.XMLName = ctx.XMLName
		if got != ctx {
			t.Fatalf("context changed on its way through ContextBlock:\n in: %+v\nout: %+v\nwire: %q", ctx, got, data)
		}
	})
}
