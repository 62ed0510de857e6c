package soap

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
)

// wellFormed is the strict well-formedness oracle every encoded output is
// held to. Go's decoder is lenient where other XML stacks are not: it takes a
// start tag that repeats an attribute, and a prefix nobody declared. This
// walk over the raw tokens rejects both, and an end tag that does not close
// the element open, so that what passes here passes expat too.
func wellFormed(data []byte) error {
	d := xml.NewDecoder(bytes.NewReader(data))
	type open struct {
		name     xml.Name // as written, prefix in Space
		prefixes []string // declared on this tag
	}
	var stack []open
	declared := func(prefix string) bool {
		if prefix == "" || prefix == "xml" {
			return true
		}
		for _, o := range stack {
			if slices.Contains(o.prefixes, prefix) {
				return true
			}
		}
		return false
	}
	for {
		tok, err := d.RawToken()
		if errors.Is(err, io.EOF) {
			if len(stack) > 0 {
				return fmt.Errorf("<%s> is never closed", stack[len(stack)-1].name.Local)
			}
			return nil
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			o := open{name: t.Name}
			for i, a := range t.Attr {
				if slices.ContainsFunc(t.Attr[:i], func(b xml.Attr) bool { return b.Name == a.Name }) {
					return fmt.Errorf("<%s> repeats attribute %s:%s", t.Name.Local, a.Name.Space, a.Name.Local)
				}
				if a.Name.Space == "xmlns" {
					o.prefixes = append(o.prefixes, a.Name.Local)
				}
			}
			stack = append(stack, o)
			if !declared(t.Name.Space) {
				return fmt.Errorf("<%s:%s> uses an undeclared prefix", t.Name.Space, t.Name.Local)
			}
			for _, a := range t.Attr {
				if a.Name.Space != "xmlns" && !declared(a.Name.Space) {
					return fmt.Errorf("<%s> attribute %s:%s uses an undeclared prefix", t.Name.Local, a.Name.Space, a.Name.Local)
				}
			}
		case xml.EndElement:
			if len(stack) == 0 || stack[len(stack)-1].name != t.Name {
				return fmt.Errorf("</%s> closes no open element", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		}
	}
}

// mustBeWellFormed fails t when data does not pass the strict oracle.
func mustBeWellFormed(t testing.TB, label string, data []byte) {
	t.Helper()
	if err := wellFormed(data); err != nil {
		t.Fatalf("%s: not well formed: %v\n%s", label, err, data)
	}
}

// TestStrictOracle: the oracle takes what the writer writes and refuses the
// two faults Go's decoder lets through.
func TestStrictOracle(t *testing.T) {
	for doc, ok := range map[string]bool{
		`<Envelope xmlns="urn:e"><Body><Event xmlns="urn:x" xmlns:p0="urn:s" p0:a="1" xml:lang="en"/></Body></Envelope>`: true,
		`<Event xmlns="urn:x" xmlns="urn:x"/>`:  false,
		`<Event a="1" a="2"/>`:                  false,
		`<p:Event/>`:                            false,
		`<Event p:a="1"/>`:                      false,
		`<Event xmlns:p="urn:p"><p:A/></Event>`: true,
		`<Event><A></Event>`:                    false,
		`<Event>`:                               false,
	} {
		if err := wellFormed([]byte(doc)); (err == nil) != ok {
			t.Errorf("wellFormed(%s) = %v, want ok %v", doc, err, ok)
		}
	}
}
