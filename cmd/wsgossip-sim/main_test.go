package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokesMatchCommittedOutputs runs CI's five-style, aggregate and churn
// smoke command lines in-process and diffs their reports against the
// committed outputs in testdata/smokes: a change that moves a seeded result
// fails here before CI. The fault-plan and scale smokes stay CI-only (tens
// of seconds each).
func TestSmokesMatchCommittedOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three seeded smokes, a few seconds")
	}
	root := filepath.Join("..", "..")
	cases := []struct {
		name string
		runs []string
	}{
		{"styles", []string{
			"-n 2000 -seed 9 -style lazypush",
			"-n 2000 -seed 9 -style pull -ticks 25",
			"-n 2000 -seed 9 -style counter",
			"-n 2000 -seed 9 -style pushpull -ticks 10 -loss 0.1",
			"-n 300 -seed 9 -style flood",
		}},
		{"aggregate", []string{"-mode aggregate -epochs 3 -n 64 -fanout 2 -seed 7 -faults " +
			filepath.Join(root, "examples", "faultplans", "aggregate.plan")}},
		{"churn", []string{"-mode churn -n 128 -crash 0.2 -loss 0.05 -seed 5 -min-coverage 0.95"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			for _, line := range tc.runs {
				if err := run(strings.Fields(line), &out); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
			}
			want, err := os.ReadFile(filepath.Join(root, "testdata", "smokes", tc.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
			for i := range max(len(got), len(wantLines)) {
				if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
					t.Fatalf("line %d differs from testdata/smokes/%s.txt:\n got: %q\nwant: %q",
						i+1, tc.name, at(got, i), at(wantLines, i))
				}
			}
		})
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of output)"
}
