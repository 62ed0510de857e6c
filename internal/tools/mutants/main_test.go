package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParse: a registry's entries come back with their keys and their old
// and new texts, trailing blank lines dropped; a malformed registry is an
// error naming its line.
func TestParse(t *testing.T) {
	ms, err := parse(`# a comment

=== one
pr: 1
file: a.go
package: ./a/
run: TestA
why: because
--- old
	x := 1
	return x
--- new
	return 2

=== two
file: b.go
package: ./b/
run: TestB|TestC
--- old
	y()
--- new
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("parsed %d entries, want 2", len(ms))
	}
	one, two := ms[0], ms[1]
	if one.ID != "one" || one.PR != "1" || one.File != "a.go" || one.Package != "./a/" || one.Run != "TestA" || one.Why != "because" {
		t.Errorf("entry one = %+v", one)
	}
	if one.Old != "\tx := 1\n\treturn x" || one.New != "\treturn 2" {
		t.Errorf("entry one texts = %q → %q", one.Old, one.New)
	}
	if two.Old != "\ty()" || two.New != "" || two.Run != "TestB|TestC" {
		t.Errorf("entry two = %+v", two)
	}
	for _, bad := range []string{
		"stray text\n",
		"=== a\nfile: a.go\npackage: ./a/\nrun: T\n",                   // no old text
		"=== a\nfile: a.go\nrun: T\n--- old\nx\n",                      // no package
		"=== a\nfile: a.go\npackage: p\nrun: T\nsize: 3\n--- old\nx\n", // unknown key
		"=== a\nfile: a.go\npackage: p\nrun: T\n--- old\nx\n=== a\nfile: a.go\npackage: p\nrun: T\n--- old\nx\n",
	} {
		if _, err := parse(bad); err == nil || !strings.Contains(err.Error(), "line ") {
			t.Errorf("parse(%q) = %v, want an error naming a line", bad, err)
		}
	}
}

// TestMutate: an old text must occur exactly once.
func TestMutate(t *testing.T) {
	m := mutant{File: "f.go", Old: "a()", New: "b()"}
	if got, err := mutate(m, "x\na()\ny"); err != nil || got != "x\nb()\ny" {
		t.Errorf("mutate = %q, %v", got, err)
	}
	for _, src := range []string{"x\ny", "a()\na()"} {
		if _, err := mutate(m, src); err == nil {
			t.Errorf("mutate(%q) succeeded, want stale", src)
		}
	}
}

// TestRegistryIsCurrent: every committed entry's old text occurs exactly once
// in its file, so each mutant still edits what it was written against. The
// step that runs the mutants' tests is CI's; this catches a stale entry in
// the ordinary test run, before it.
func TestRegistryIsCurrent(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	data, err := os.ReadFile(filepath.Join(root, registry))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) < 6 {
		t.Errorf("registry holds %d mutants, want at least 6", len(ms))
	}
	for _, m := range ms {
		src, err := os.ReadFile(filepath.Join(root, m.File))
		if err != nil {
			t.Errorf("%s: %v", m.ID, err)
			continue
		}
		if _, err := mutate(m, string(src)); err != nil {
			t.Errorf("%s: %v", m.ID, err)
		}
	}
}

// TestReplaysFixtureMutant: the fixture package (testdata/fixture) holds one
// law and the test that holds it, and its registry one mutant of the law.
// Replayed against that test the mutant is reported killed; against a test
// blind to it, reported surviving and counted. A tool that stops replaying a
// mutant, or calls every mutant killed, fails here.
func TestReplaysFixtureMutant(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fixture", "mutants.txt"))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := parse(string(data))
	if err != nil || len(ms) != 1 {
		t.Fatalf("fixture registry: %d entries, %v; want one", len(ms), err)
	}
	blind := ms[0]
	blind.ID, blind.Run = "fixture-blind", "TestBlind"
	report, bad := replayAll([]mutant{ms[0], blind}, t.TempDir())
	if len(report) != 2 || bad != 1 ||
		!strings.HasPrefix(report[0], "killed    fixture-clamp-high ") ||
		!strings.HasPrefix(report[1], "SURVIVED  fixture-blind ") {
		t.Fatalf("replaying the fixture reported %d not killed:\n%s", bad, strings.Join(report, "\n"))
	}
}
