package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The interop corpus (testdata/interop) holds envelopes written by hand in
// the form of the WS-Addressing 1.0 and WS-Coordination 1.1 specifications'
// examples — what another SOAP stack sends: prefixes declared on the root,
// whitespace and comments between blocks, s:mustUnderstand and xml:lang, a
// header nobody here knows, an unqualified child under a namespaced parent.

// interopTree is a document's header and body children as Go's decoder
// resolves them: every element and attribute by its namespace, not its
// prefix.
type interopTree struct {
	Header struct {
		Nodes []xmlNode `xml:",any"`
	}
	Body struct {
		Nodes []xmlNode `xml:",any"`
	}
}

func treeOf(t *testing.T, label string, data []byte) interopTree {
	t.Helper()
	var tree interopTree
	if err := xml.Unmarshal(data, &tree); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, nodes := range [][]xmlNode{tree.Header.Nodes, tree.Body.Nodes} {
		for i := range nodes {
			nodes[i].normalize()
		}
	}
	return tree
}

// namespacedAttrs reports whether any element below n carries an attribute
// in a namespace (a namespace declaration is not one).
func namespacedAttrs(nodes []xmlNode) bool {
	for _, n := range nodes {
		for _, a := range n.Attrs {
			if a.Name.Space != "" {
				return true
			}
		}
		if namespacedAttrs(n.Nodes) {
			return true
		}
	}
	return false
}

// TestInteropCorpus: every corpus envelope decodes, and every block the
// fallback captures from it is spliced. What Encode, Forward and
// Message.Fanout write from it passes the strict oracle; Encode's keeps every
// element and attribute in its namespace; and a second hop writes the same
// bytes as the first. A document without namespaced attributes comes out in
// the form the scanner takes.
func TestInteropCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/interop/*.xml")
	if err != nil || len(files) < 6 {
		t.Fatalf("interop corpus: %d files, %v", len(files), err)
	}
	ctx := context.Background()
	gossip := Block{XMLName: xml.Name{Space: "urn:wsgossip:2008", Local: "Gossip"}, Raw: []byte(`<Gossip xmlns="urn:wsgossip:2008"><Hops>1</Hops></Gossip>`)}
	rh := Rehead{Name: gossip.XMLName, Action: "urn:wsgossip:2008:notify", ID: []byte("urn:uuid:forwarded")}
	targets := []string{"mem://a", "mem://b"}
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".xml"), func(t *testing.T) {
			doc, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			env, err := Decode(doc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for _, b := range blocksOf(env) {
				if _, _, ok := blockSplice(b); !ok {
					t.Fatalf("block %v declined by the splice writer: %s", b.XMLName, b.Raw)
				}
			}
			encoded, err := env.Encode()
			if err != nil {
				t.Fatal(err)
			}
			mustBeWellFormed(t, "Encode", encoded)
			in := treeOf(t, "input", doc)
			if out := treeOf(t, "Encode", encoded); !reflect.DeepEqual(in, out) {
				t.Fatalf("Encode changed a name or namespace:\n in %+v\nout %+v\n%s", in, out, encoded)
			}
			if _, scanned := decodeScan(encoded, false); scanned == namespacedAttrs(append(in.Header.Nodes, in.Body.Nodes...)) {
				t.Fatalf("the scanner took the encoded document = %v, want the opposite:\n%s", scanned, encoded)
			}
			again, err := Decode(encoded)
			if err != nil {
				t.Fatal(err)
			}
			if next, err := again.Encode(); err != nil || !bytes.Equal(next, encoded) {
				t.Fatalf("second hop encode: %v\n%s\n%s", err, encoded, next)
			}

			forwarded := &wireLog{}
			if sent, failed := Forward(ctx, forwarded, env, rh, gossip.Raw, targets); sent != len(targets) || failed != nil {
				t.Fatalf("Forward sent %d, failed %v", sent, failed)
			}
			first := forwarded.data(0)
			mustBeWellFormed(t, "Forward", first)
			hop, err := Decode(first)
			if err != nil {
				t.Fatal(err)
			}
			second := &wireLog{}
			Forward(ctx, second, hop, rh, gossip.Raw, targets)
			if !reflect.DeepEqual(second.msgs, forwarded.msgs) {
				t.Fatalf("second hop forward:\n%q\n%q", forwarded.msgs, second.msgs)
			}

			m := Message{Action: rh.Action, ID: rh.ID, Body: env.Body.Blocks}
			for _, b := range env.headerBlocks() {
				if !isAddressingName(b.XMLName) {
					m.Header = append(m.Header, b)
				}
			}
			fanned := &wireLog{}
			if sent, failed := m.Fanout(ctx, fanned, targets); sent != len(targets) || failed != nil {
				t.Fatalf("Message.Fanout sent %d, failed %v", sent, failed)
			}
			for i := range fanned.msgs {
				mustBeWellFormed(t, "Message.Fanout", fanned.data(i))
			}
		})
	}
}
