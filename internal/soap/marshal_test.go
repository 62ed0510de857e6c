package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"sync"
	"testing"
)

// marshalValue is what the marshal tests encode: text, an integer and a
// float, attributes in the namespaces the input names, and, when Bad holds
// anything, a field encoding/xml cannot marshal after the ones it has
// written, so Encode fails half way.
type marshalValue struct {
	XMLName xml.Name       `xml:"urn:fuzz Value"`
	ID      string         `xml:"id,attr,omitempty"`
	Attrs   []xml.Attr     `xml:",any,attr"`
	Text    string         `xml:"Text"`
	N       int64          `xml:"N"`
	F       float64        `xml:"F"`
	Bad     map[string]int `xml:"Bad,omitempty"`
}

// checkMarshal holds MarshalBlock and AppendMarshal to xml.Marshal on v:
// the same bytes, or an error from both. A value xml.Marshal encodes whose
// output names no element is an error for the block marshalers too.
func checkMarshal(t *testing.T, v any) {
	t.Helper()
	want, err := xml.Marshal(v)
	if err == nil {
		_, err = rawBlock(bytes.Clone(want))
	}
	got, gotErr := MarshalBlock(v)
	if (err != nil) != (gotErr != nil) {
		t.Fatalf("MarshalBlock error %v, xml.Marshal %v", gotErr, err)
	}
	if err == nil && !bytes.Equal(got.Raw, want) {
		t.Fatalf("MarshalBlock wrote\n%s\nxml.Marshal\n%s", got.Raw, want)
	}
	prefix := []byte("<Lead/>")
	appended, gotErr := AppendMarshal(bytes.Clone(prefix), v)
	if (err != nil) != (gotErr != nil) {
		t.Fatalf("AppendMarshal error %v, xml.Marshal %v", gotErr, err)
	}
	if err == nil && (!bytes.Equal(appended.Raw, want) || appended.XMLName != got.XMLName) {
		t.Fatalf("AppendMarshal wrote\n%s\nxml.Marshal\n%s", appended.Raw, want)
	}
}

// FuzzMarshalBlock: the pooled marshaler writes what a fresh xml.Marshal
// writes, for each value and for the values after it. Each input is
// marshaled twice and then followed by a plain value, so an encoder pooled
// in a state a fresh one does not have shows in the next call's bytes. The
// seeds hold the two states encoding/xml leaves behind: two attribute
// namespaces whose last path segments collide, which advances the prefix
// counter (x, then x_1), and a value that fails after its first fields are
// written, which leaves them in the encoder's buffer.
func FuzzMarshalBlock(f *testing.F) {
	f.Add("plain", int64(7), 1.5, "", "", "", false)
	f.Add(`<&"'>`, int64(-1), -0.25, "urn:a", "", `v<&"'`, false)
	f.Add("collide", int64(1), 2.0, "http://a.example/x", "http://b.example/x", "v", false)
	f.Add("half", int64(3), 0.5, "", "", "", true)
	f.Add("half with prefix", int64(3), 0.5, "http://a.example/x", "http://b.example/x", "v", true)
	plain := marshalValue{ID: "next", Text: "after", N: 42, F: 4.2}
	f.Fuzz(func(t *testing.T, text string, n int64, fl float64, ns1, ns2, attr string, fail bool) {
		v := marshalValue{ID: attr, Text: text, N: n, F: fl}
		for i, ns := range []string{ns1, ns2} {
			if ns != "" {
				v.Attrs = append(v.Attrs, xml.Attr{Name: xml.Name{Space: ns, Local: fmt.Sprintf("a%d", i)}, Value: attr})
			}
		}
		if fail {
			v.Bad = map[string]int{"k": 1}
		}
		checkMarshal(t, &v)
		checkMarshal(t, &v)
		checkMarshal(t, &plain)
	})
}

// TestMarshalConcurrentUse: goroutines marshaling distinct values at once,
// through both block marshalers and the pooled encoders they share, each get
// exactly their own value's bytes.
func TestMarshalConcurrentUse(t *testing.T) {
	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []byte
			for i := range rounds {
				v := &marshalValue{ID: fmt.Sprint(g), Text: fmt.Sprintf("g%d-%d <&>", g, i), N: int64(i), F: float64(g) / 8}
				if i%16 == 0 {
					v.Attrs = []xml.Attr{{Name: xml.Name{Space: "http://a.example/x", Local: "a"}}, {Name: xml.Name{Space: "http://b.example/x", Local: "b"}}}
				}
				want, err := xml.Marshal(v)
				if err != nil {
					errs <- err
					return
				}
				got, err := MarshalBlock(v)
				if err != nil || !bytes.Equal(got.Raw, want) {
					errs <- fmt.Errorf("goroutine %d round %d: MarshalBlock %s, %v; want %s", g, i, got.Raw, err, want)
					return
				}
				appended, err := AppendMarshal(scratch[:0], v)
				if err != nil || !bytes.Equal(appended.Raw, want) {
					errs <- fmt.Errorf("goroutine %d round %d: AppendMarshal %s, %v; want %s", g, i, appended.Raw, err, want)
					return
				}
				scratch = appended.Raw[:0]
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// indenting is a value whose MarshalXML sets the indentation of the encoder
// it is handed; closing one closes that encoder once it has written itself.
type (
	indenting struct{ Text string }
	closing   struct{ Text string }
)

func (v indenting) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	e.Indent("", "  ")
	return e.EncodeElement(struct{ Text string }{v.Text}, xml.StartElement{Name: xml.Name{Space: "urn:fuzz", Local: "Indenting"}})
}

func (v closing) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	if err := e.EncodeElement(struct{ Text string }{v.Text}, xml.StartElement{Name: xml.Name{Space: "urn:fuzz", Local: "Closing"}}); err != nil {
		return err
	}
	return e.Close()
}

// TestMarshalerValuesAreNotPooled: a value that reaches an xml.Marshaler,
// directly or through a field, may reconfigure or close the encoder it is
// handed, so the encoder that marshaled it is not reused, and the values
// after it get what xml.Marshal writes.
func TestMarshalerValuesAreNotPooled(t *testing.T) {
	plain := &marshalValue{ID: "next", Text: "after", N: 1}
	type holder struct {
		XMLName xml.Name `xml:"urn:fuzz Holder"`
		Inner   []indenting
	}
	for _, v := range []any{indenting{"a"}, &closing{"b"}, holder{Inner: []indenting{{"c"}}}} {
		checkMarshal(t, v)
		checkMarshal(t, plain)
		checkMarshal(t, plain)
	}
}
