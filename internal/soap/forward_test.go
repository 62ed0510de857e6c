package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wsgossip/internal/wsa"
)

// Forward writes a re-headed copy straight from the received blocks. Its
// reference is the re-head the fan-out paths ran before Forward existed —
// Snapshot, RemoveHeader, AddHeaderBlock and SetAddressing, sent through
// Fanout, or encoded for one addressed peer — and the two must put the same
// bytes on the wire for every envelope Decode hands a handler, on the
// scanner's documents and the fallback's alike.

// wireLog is a binding that records each message it is given, rendered or
// encoded from its envelope, with its destination.
type wireLog struct {
	msgs []string
}

func (l *wireLog) record(to string, data []byte) {
	l.msgs = append(l.msgs, to+"\n"+string(data))
}

// data is message i's bytes, without its destination.
func (l *wireLog) data(i int) []byte {
	_, data, _ := strings.Cut(l.msgs[i], "\n")
	return []byte(data)
}

func (l *wireLog) Call(context.Context, string, *Envelope) (*Envelope, error) { return nil, nil }

func (l *wireLog) Send(_ context.Context, to string, env *Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	l.record(to, data)
	return nil
}

func (l *wireLog) SendEncoded(_ context.Context, to string, data []byte) error {
	l.record(to, data)
	return nil
}

// reheadRef is the reference re-head: a copy of env with block in place of
// every header block of its name, and addressing to to (empty for a fan-out)
// under action and id.
func reheadRef(env *Envelope, block Block, action string, id []byte, to string) *Envelope {
	out := env.Snapshot()
	out.RemoveHeader(block.XMLName.Space, block.XMLName.Local)
	out.AddHeaderBlock(block)
	_ = out.SetAddressing(wsa.Headers{To: to, Action: action, MessageID: wsa.MessageID(id)})
	return out
}

// forwardCorpus is every document of the codec corpora, plus notifications
// carrying the blocks a forward replaces, canonical and prefixed.
func forwardCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	docs := map[string][]byte{}
	for name, doc := range scannerAdversarialDocs() {
		docs["adversarial/"+name] = []byte(doc)
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzDecodeEquivalence/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		doc, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		docs["fuzz/"+filepath.Base(f)] = []byte(doc)
	}
	const (
		hdrs = `<To xmlns="` + wsa.Namespace + `">mem://self</To>` +
			`<Action xmlns="` + wsa.Namespace + `">urn:wsgossip:2008:notify</Action>` +
			`<MessageID xmlns="` + wsa.Namespace + `">urn:uuid:m</MessageID>` +
			`<RelatesTo xmlns="` + wsa.Namespace + `">urn:uuid:r</RelatesTo>` +
			`<Gossip xmlns="urn:wsgossip:2008"><InteractionID>urn:uuid:i</InteractionID><MessageID>urn:uuid:m</MessageID><Hops>4</Hops></Gossip>` +
			`<Meta xmlns="urn:meta" a="&gt;">kept &amp; verbatim</Meta>` +
			`<Gossip xmlns="urn:wsgossip:2008"><Hops>9</Hops></Gossip>`
		body = `<Quote xmlns="urn:example:stock"><Symbol>WSG</Symbol><Price>1.5</Price></Quote>`
	)
	docs["notification"] = []byte(xml.Header + `<Envelope xmlns="` + Namespace + `"><Header>` + hdrs + `</Header><Body>` + body + `</Body></Envelope>`)
	docs["notification-prefixed"] = []byte(`<s:Envelope xmlns:s="` + Namespace + `" xmlns:a="` + wsa.Namespace + `" xmlns:g="urn:wsgossip:2008"><s:Header>` +
		`<a:To>mem://self</a:To><a:Action>urn:wsgossip:2008:notify</a:Action><a:MessageID>urn:uuid:m</a:MessageID>` +
		`<g:Gossip><g:InteractionID>urn:uuid:i</g:InteractionID><g:MessageID>urn:uuid:m</g:MessageID><g:Hops>4</g:Hops></g:Gossip>` +
		`<m:Meta xmlns:m="urn:meta">kept</m:Meta></s:Header><s:Body><q:Quote xmlns:q="urn:example:stock">x</q:Quote></s:Body></s:Envelope>`)
	docs["notification-inherited-namespace"] = []byte(`<Envelope xmlns="` + Namespace + `"><Header>` +
		`<Gossip xmlns="urn:wsgossip:2008"><Hops>4</Hops></Gossip><Meta>inherits</Meta></Header><Body><Quote>x</Quote></Body></Envelope>`)
	return docs
}

func TestForwardMatchesReheadReference(t *testing.T) {
	ctx := context.Background()
	block := Block{
		XMLName: xml.Name{Space: "urn:wsgossip:2008", Local: "Gossip"},
		Raw:     []byte(`<Gossip xmlns="urn:wsgossip:2008"><InteractionID>urn:uuid:i</InteractionID><MessageID>urn:uuid:m&amp;1</MessageID><Hops>3</Hops></Gossip>`),
	}
	rh := Rehead{Name: block.XMLName, Action: "urn:wsgossip:2008:notify", ID: []byte("urn:uuid:m&1")}
	decoded, scanned, legacy := 0, 0, 0
	for name, doc := range forwardCorpus(t) {
		env, err := Decode(doc)
		if err != nil {
			continue
		}
		decoded++
		if _, ok := decodeScan(doc, false); ok {
			scanned++
		} else {
			legacy++
		}
		// A hand-built block without its own namespace declaration, which
		// the splice serializer writes one into.
		built := env.Snapshot()
		built.AddHeaderBlock(Block{XMLName: xml.Name{Space: "urn:built", Local: "Built"}, Raw: []byte(`<Built a="1">b</Built>`)})
		for _, c := range []struct {
			what string
			env  *Envelope
		}{{name, env}, {name + "+built", built}} {
			for _, direct := range []bool{false, true} {
				rh.Direct = direct
				targets := []string{"mem://a", "mem://b&c"}
				if direct {
					targets = targets[:1]
				}
				got, want := &wireLog{}, &wireLog{}
				if sent, failed := Forward(ctx, got, c.env, rh, block.Raw, targets); sent != len(targets) || failed != nil {
					t.Fatalf("%s: Forward sent %d, failed %v", c.what, sent, failed)
				}
				if direct {
					for _, to := range targets {
						if err := want.Send(ctx, to, reheadRef(c.env, block, rh.Action, rh.ID, to)); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					Fanout(ctx, want, reheadRef(c.env, block, rh.Action, rh.ID, ""), targets)
				}
				if strings.Join(got.msgs, "\n--\n") != strings.Join(want.msgs, "\n--\n") {
					t.Errorf("%s (direct %v):\n got %q\nwant %q", c.what, direct, got.msgs, want.msgs)
				}
				for i := range got.msgs {
					mustBeWellFormed(t, c.what, got.data(i))
				}
			}
		}
	}
	if scanned < 10 || legacy < 2 {
		t.Fatalf("corpus decoded %d documents, %d scanned and %d through the fallback", decoded, scanned, legacy)
	}
}

// TestForwardLeavesEnvelope: a forward writes its copy elsewhere; the
// received envelope keeps every block it had.
func TestForwardLeavesEnvelope(t *testing.T) {
	env, err := Decode(forwardCorpus(t)["notification"])
	if err != nil {
		t.Fatal(err)
	}
	before, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	rh := Rehead{Name: xml.Name{Space: "urn:wsgossip:2008", Local: "Gossip"}, Action: "urn:a", ID: []byte("urn:uuid:x")}
	Forward(context.Background(), &wireLog{}, env, rh, []byte(`<Gossip xmlns="urn:wsgossip:2008"/>`), []string{"mem://a"})
	after, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("forward changed its source:\n%s\n%s", before, after)
	}
}
