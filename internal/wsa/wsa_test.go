package wsa

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/xml"
	"strings"
	"testing"
	"testing/quick"

	"wsgossip/internal/testkit"
)

func TestNewEPR(t *testing.T) {
	epr := NewEPR("http://example.org/svc")
	if epr.Address != "http://example.org/svc" {
		t.Fatalf("address = %q", epr.Address)
	}
	if err := epr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestEPRValidate(t *testing.T) {
	tests := []struct {
		name    string
		epr     EndpointReference
		wantErr bool
	}{
		{name: "valid", epr: NewEPR("mem://a"), wantErr: false},
		{name: "empty", epr: EndpointReference{}, wantErr: true},
		{name: "whitespace", epr: NewEPR("   "), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.epr.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestEPRXMLRoundTrip(t *testing.T) {
	in := EndpointReference{Address: "http://example.org/x"}
	data, err := xml.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(data), Namespace) {
		t.Fatalf("marshaled EPR missing namespace: %s", data)
	}
	var out EndpointReference
	if err := xml.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Address != in.Address {
		t.Fatalf("round trip address = %q, want %q", out.Address, in.Address)
	}
}

func TestWellKnownURIs(t *testing.T) {
	if !NewEPR(AnonymousURI).IsAnonymous() {
		t.Error("anonymous URI not detected")
	}
	if !NewEPR(NoneURI).IsNone() {
		t.Error("none URI not detected")
	}
	if NewEPR("http://x").IsAnonymous() || NewEPR("http://x").IsNone() {
		t.Error("plain address misclassified")
	}
}

func TestNewMessageIDUnique(t *testing.T) {
	seen := make(map[MessageID]struct{})
	for i := 0; i < 1000; i++ {
		id := NewMessageID()
		if !strings.HasPrefix(string(id), "urn:uuid:") {
			t.Fatalf("message id %q lacks urn:uuid prefix", id)
		}
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate message id %q", id)
		}
		seen[id] = struct{}{}
	}
}

func TestHeadersValidate(t *testing.T) {
	if err := (Headers{}).Validate(); err == nil {
		t.Error("missing action accepted")
	}
	if err := (Headers{Action: "urn:a"}).Validate(); err != nil {
		t.Errorf("valid headers rejected: %v", err)
	}
}

func TestHeadersReply(t *testing.T) {
	orig := Headers{
		To:        "mem://svc",
		Action:    "urn:req",
		MessageID: NewMessageID(),
	}
	t.Run("no reply-to falls back to anonymous", func(t *testing.T) {
		rep := orig.Reply("urn:resp")
		if rep.To != AnonymousURI {
			t.Fatalf("reply To = %q, want anonymous", rep.To)
		}
		if rep.RelatesTo != orig.MessageID {
			t.Fatalf("RelatesTo = %q, want %q", rep.RelatesTo, orig.MessageID)
		}
		if rep.Action != "urn:resp" {
			t.Fatalf("Action = %q", rep.Action)
		}
	})
	t.Run("explicit reply-to used", func(t *testing.T) {
		epr := NewEPR("mem://caller")
		withReply := orig
		withReply.ReplyTo = &epr
		rep := withReply.Reply("urn:resp")
		if rep.To != "mem://caller" {
			t.Fatalf("reply To = %q", rep.To)
		}
	})
	t.Run("reply ids are fresh", func(t *testing.T) {
		a := orig.Reply("urn:resp")
		b := orig.Reply("urn:resp")
		if a.MessageID == b.MessageID {
			t.Fatal("two replies share a MessageID")
		}
	})
}

func TestEPRRoundTripProperty(t *testing.T) {
	f := func(addr string) bool {
		// XML cannot carry most control characters; restrict to sane input.
		for _, r := range addr {
			if r < 0x20 || r == 0xFFFE || r == 0xFFFF {
				return true
			}
		}
		in := EndpointReference{Address: addr}
		data, err := xml.Marshal(in)
		if err != nil {
			return false
		}
		var out EndpointReference
		if err := xml.Unmarshal(data, &out); err != nil {
			return false
		}
		return out.Address == in.Address
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// countingReader is a deterministic rand.Reader substitute that records the
// size of every read.
type countingReader struct {
	reads []int
	next  byte
}

func (r *countingReader) Read(p []byte) (int, error) {
	r.reads = append(r.reads, len(p))
	for i := range p {
		p[i] = r.next
		r.next += 0x1d
	}
	return len(p), nil
}

// TestNewMessageIDFormatAndStream: an identifier is "urn:uuid:" plus the
// lowercase hex of exactly one 16-byte read of rand.Reader, whether it is
// drawn as a string (NewMessageID) or appended to a buffer (AppendMessageID),
// so the two interleave on one stream. bench/fabric substitutes rand.Reader,
// so the virtual workload's identifiers — and its exact metrics — depend on
// both.
func TestNewMessageIDFormatAndStream(t *testing.T) {
	saved := rand.Reader
	defer func() { rand.Reader = saved }()
	src := &countingReader{}
	rand.Reader = src
	for i := 0; i < 4; i++ {
		var want [16]byte
		ref := countingReader{next: src.next}
		_, _ = ref.Read(want[:])
		exp := MessageID("urn:uuid:" + hex.EncodeToString(want[:]))
		if i%2 == 1 {
			if got := AppendMessageID([]byte("kept")); string(got) != "kept"+string(exp) {
				t.Fatalf("appended id %d = %q, want %q after the kept bytes", i, got, exp)
			}
			continue
		}
		if got := NewMessageID(); got != exp {
			t.Fatalf("id %d = %q, want %q", i, got, exp)
		}
	}
	if len(src.reads) != 4 {
		t.Fatalf("%d reads for 4 identifiers", len(src.reads))
	}
	for _, n := range src.reads {
		if n != 16 {
			t.Fatalf("read sizes = %v, want 16 each", src.reads)
		}
	}
}

// TestNewMessageIDAllocBudget: every IHAVE, IWANT, digest, share, ack, probe
// and membership message draws an identifier, and it costs one allocation:
// the string — under the default rand.Reader and under a substituted one,
// which is how every seeded run draws its identifiers.
func TestNewMessageIDAllocBudget(t *testing.T) {
	if testkit.Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 1
	allocs := testing.AllocsPerRun(200, func() { sinkID = NewMessageID() })
	if allocs > budget {
		t.Errorf("NewMessageID = %.1f allocs/op, budget %d", allocs, budget)
	}
	t.Logf("NewMessageID: %.1f allocs/op (budget %d)", allocs, budget)

	saved := rand.Reader
	defer func() { rand.Reader = saved }()
	rand.Reader = fixedReader{}
	allocs = testing.AllocsPerRun(200, func() { sinkID = NewMessageID() })
	if allocs > budget {
		t.Errorf("NewMessageID under a substituted reader = %.1f allocs/op, budget %d", allocs, budget)
	}
	// Appended to a buffer on the stack, as a sender writing the identifier
	// onto the wire does, it costs nothing.
	allocs = testing.AllocsPerRun(200, func() {
		var buf [MessageIDLen]byte
		if len(AppendMessageID(buf[:0])) != MessageIDLen {
			t.Fatal("identifier length")
		}
	})
	if allocs != 0 {
		t.Errorf("AppendMessageID = %.1f allocs/op, want 0", allocs)
	}
}

// fixedReader is an allocation-free rand.Reader substitute.
type fixedReader struct{}

func (fixedReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0xa5
	}
	return len(p), nil
}

var sinkID MessageID
