package soap

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"
)

// Tests for FlatText.Symbol, the flat reader's path into the wire path's
// intern table. It must never hand out a view of the buffer, must learn only
// text that stands for itself, and must stay inside the table's bounds
// however many fresh values a peer sends.

// symbolDoc is a share-shaped block carrying one recurring value, its
// sender's address.
func symbolDoc(from string) []byte {
	buf := AppendFlatOpen(nil, "urn:flat", "Share")
	buf = AppendFlatText(buf, "From", from)
	buf = AppendFlatInt(buf, "N", 1)
	return AppendFlatClose(buf, "Share")
}

// readSymbol reads symbolDoc's From through Symbol.
func readSymbol(t *testing.T, raw []byte) string {
	t.Helper()
	r, ok := OpenFlat(raw, "urn:flat", "Share")
	if !ok {
		t.Fatalf("open %s", raw)
	}
	from, ok := r.Symbol("From")
	if _, okN := r.Int("N"); !ok || !okN || !r.Close("Share") {
		t.Fatalf("read %s", raw)
	}
	return from
}

// TestSymbolNeverAliases: what Symbol returns — learned, already known,
// escaped, or refused by a full table — survives the buffer being
// overwritten, as a recycled receive buffer is.
func TestSymbolNeverAliases(t *testing.T) {
	saved := names.m.Load()
	defer names.m.Store(saved) // the table is process-wide: leave it as found

	for _, value := range []string{"mem://peer-learned", Namespace, "es&caped<peer>", "line\r\nend"} {
		raw := symbolDoc(value)
		got := readSymbol(t, raw)
		for i := range raw {
			raw[i] = '#'
		}
		if got != value {
			t.Fatalf("Symbol = %q after the buffer was overwritten, want %q", got, value)
		}
	}
	fillInternTable(t)
	raw := symbolDoc("mem://peer-past-the-cap")
	got := readSymbol(t, raw)
	for i := range raw {
		raw[i] = '#'
	}
	if got != "mem://peer-past-the-cap" {
		t.Fatalf("Symbol past the cap = %q after the buffer was overwritten", got)
	}
}

// TestSymbolEscapedNotLearned: text with entity or character references, or
// a carriage return, is unescaped and copied; only its unescaped spelling
// could be a key, and the table learns only what it can look up in place.
func TestSymbolEscapedNotLearned(t *testing.T) {
	saved := names.m.Load()
	defer names.m.Store(saved)

	before := len(*names.m.Load())
	for _, value := range []string{"mem://peer-a&b", "mem://peer-<x>", "mem://peer-cr\r"} {
		if got := readSymbol(t, symbolDoc(value)); got != value {
			t.Fatalf("Symbol = %q, want %q", got, value)
		}
	}
	// A raw line ending in the text is normalized, as encoding/xml does.
	raw := []byte("<Share xmlns=\"urn:flat\"><From>mem://peer-crlf\r\n</From><N>1</N></Share>")
	if got := readSymbol(t, raw); got != "mem://peer-crlf\n" {
		t.Fatalf("Symbol = %q, want the line ending normalized", got)
	}
	if after := len(*names.m.Load()); after != before {
		t.Fatalf("escaped text grew the table %d -> %d", before, after)
	}
	if got := readSymbol(t, symbolDoc("mem://peer-plain")); got != "mem://peer-plain" {
		t.Fatalf("Symbol = %q", got)
	}
	if _, ok := (*names.m.Load())["mem://peer-plain"]; !ok {
		t.Fatal("literal text was not learned")
	}
}

// TestSymbolHostilePeerBounded: a peer that sends a fresh value in each of
// 10,000 blocks — or one process talking to 10,000 peers — grows the table
// to maxInternSymbols and no further, every value, learned or copied past
// the cap, reads back exactly, and the names the envelope scanner learns
// still have the other half of the table.
func TestSymbolHostilePeerBounded(t *testing.T) {
	saved := names.m.Load()
	defer names.m.Store(saved)

	for i := 0; i < 10000; i++ {
		peer := fmt.Sprintf("http://10.0.%d.%d:8080/node", i/256, i%256)
		if got := readSymbol(t, symbolDoc(peer)); got != peer {
			t.Fatalf("block %d: Symbol = %q, want %q", i, got, peer)
		}
	}
	table := *names.m.Load()
	if len(table) != maxInternSymbols {
		t.Fatalf("table holds %d names after 10,000 fresh values, Symbol's cap %d", len(table), maxInternSymbols)
	}
	long := "urn:" + strings.Repeat("t", maxInternLen)
	if got := readSymbol(t, symbolDoc(long)); got != long {
		t.Fatal("an over-long value read back wrong")
	}
	for _, name := range []string{Namespace, "urn:wsgossip:membership", "Gossip"} {
		if _, ok := table[name]; !ok {
			t.Fatalf("protocol name %q lost from the table", name)
		}
	}

	// A block of a kind the seed list lacks is still learned by the scanner.
	env := NewEnvelope()
	env.SetBodyBlock(Block{XMLName: xml.Name{Space: "urn:extension", Local: "Extension"},
		Raw: []byte(`<Extension xmlns="urn:extension"></Extension>`)})
	wire, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(wire); err != nil {
		t.Fatal(err)
	}
	table = *names.m.Load()
	for _, name := range []string{"urn:extension", "Extension"} {
		if _, ok := table[name]; !ok {
			t.Fatalf("block name %q not learned once Symbol's half of the table is full", name)
		}
	}
}

// fillInternTable fills the process-wide table to its cap; the caller
// restores it.
func fillInternTable(t *testing.T) {
	t.Helper()
	for i := 0; len(*names.m.Load()) < maxInternNames; i++ {
		names.intern([]byte(fmt.Sprintf("urn:fill:%d", i)))
	}
}
