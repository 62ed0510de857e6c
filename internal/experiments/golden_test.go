package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_seed1.golden")

// wallClockColumns are the only cells that vary between runs at one seed:
// E7's and E11's timings. Everything else is a pure function of the seed.
var wallClockColumns = map[string]bool{"ns/op": true, "ns/delivery": true}

// TestExperimentsGolden pins seed identity: every quick table at seed 1,
// timing cells masked, must render exactly as the committed golden file.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	tables, err := RunAll(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tables {
		for col, name := range tab.Columns {
			if !wallClockColumns[name] {
				continue
			}
			for _, row := range tab.Rows {
				row[col] = "-"
			}
		}
		b.WriteString(tab.Render())
		b.WriteByte('\n')
	}
	got := b.String()
	path := filepath.Join("testdata", "quick_seed1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d drifted from %s:\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
