// Command mutants replays the repository's committed mutation checks: each
// entry of a registry names one source edit that a named test must catch. It
// applies every edit through `go test -overlay`, so the tree is never
// written, and fails (exit 1) when a mutant survives — its test passes — or
// is stale — its old text does not occur exactly once in its file, so the
// edit no longer says what it meant to — or does not build.
//
// Usage:
//
//	go run ./internal/tools/mutants [-only regexp]
//
// Run it from the module root. It reads testdata/mutants.txt and runs two
// `go test` processes at a time; -only keeps the entries whose ID matches.
//
// The registry is a sequence of entries, each opened by a line `=== <id>`:
//
//	=== pr55-pingreqack-nonce
//	pr: 55
//	file: internal/probe/machine.go
//	package: ./internal/probe/
//	run: TestProbeMachineProperties
//	why: a report naming another round's nonce would avert this one
//	--- old
//	<the exact text to replace, one or more lines>
//	--- new
//	<its replacement, possibly empty>
//
// run is a -run pattern, anchored as ^(run)$. The old and new texts are the
// lines between their marker and the next marker or entry, trailing blank
// lines dropped. Lines starting with # outside an entry are comments.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"
)

// mutant is one registry entry.
type mutant struct {
	ID, PR, File, Package, Run, Why string
	Old, New                        string
	line                            int // where the entry opens, for messages
}

// registry is the committed list of mutants, relative to the module root.
var registry = filepath.Join("testdata", "mutants.txt")

const (
	jobs    = 2               // go test processes at a time
	timeout = 5 * time.Minute // the longest one mutant's go test may take
)

func main() {
	only := flag.String("only", "", "run only the entries whose ID matches this regexp")
	flag.Parse()
	data, err := os.ReadFile(registry)
	if err != nil {
		fatal(err)
	}
	ms, err := parse(string(data))
	if err != nil {
		fatal(fmt.Errorf("%s: %w", registry, err))
	}
	if *only != "" {
		re, err := regexp.Compile(*only)
		if err != nil {
			fatal(err)
		}
		kept := ms[:0]
		for _, m := range ms {
			if re.MatchString(m.ID) {
				kept = append(kept, m)
			}
		}
		ms = kept
	}
	dir, err := os.MkdirTemp("", "mutants")
	if err != nil {
		fatal(err)
	}
	report, bad := replayAll(ms, dir)
	os.RemoveAll(dir)
	for _, r := range report {
		fmt.Println(r)
	}
	fmt.Printf("%d mutants, %d killed, %d not\n", len(ms), len(ms)-bad, bad)
	if bad > 0 {
		os.Exit(1)
	}
}

// replayAll replays ms, jobs at a time, each with scratch space under dir,
// and returns one report line per mutant, in order, opening with its verdict,
// and how many were not killed.
func replayAll(ms []mutant, dir string) (report []string, bad int) {
	report = make([]string, len(ms))
	failed := make([]bool, len(ms))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			verdict, err := replay(m, filepath.Join(dir, m.ID))
			report[i] = fmt.Sprintf("%-9s %s (PR %s, %s, %.1fs)", verdict, m.ID, m.PR, m.Run, time.Since(start).Seconds())
			if err != nil {
				report[i] += "\n          " + strings.ReplaceAll(err.Error(), "\n", "\n          ")
				failed[i] = true
			}
		}()
	}
	wg.Wait()
	for _, f := range failed {
		if f {
			bad++
		}
	}
	return report, bad
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mutants:", err)
	os.Exit(2)
}

// parse reads a registry. Every entry must name its file, package and test
// and have an old text.
func parse(text string) ([]mutant, error) {
	var (
		ms      []mutant
		cur     *mutant
		section *[]string
		old     []string
		repl    []string
	)
	finish := func() error {
		if cur == nil {
			return nil
		}
		cur.Old, cur.New = joinLines(old), joinLines(repl)
		if cur.File == "" || cur.Package == "" || cur.Run == "" || cur.Old == "" {
			return fmt.Errorf("line %d: entry %s needs file, package, run and an old text", cur.line, cur.ID)
		}
		ms = append(ms, *cur)
		return nil
	}
	seen := map[string]bool{}
	for n, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "=== "):
			if err := finish(); err != nil {
				return nil, err
			}
			id := strings.TrimSpace(line[len("=== "):])
			if id == "" || seen[id] {
				return nil, fmt.Errorf("line %d: entry ID %q empty or repeated", n+1, id)
			}
			seen[id] = true
			cur, section, old, repl = &mutant{ID: id, line: n + 1}, nil, nil, nil
		case line == "--- old" && cur != nil:
			section = &old
		case line == "--- new" && cur != nil:
			section = &repl
		case section != nil:
			*section = append(*section, line)
		case cur == nil:
			if strings.TrimSpace(line) != "" && !strings.HasPrefix(line, "#") {
				return nil, fmt.Errorf("line %d: text outside an entry", n+1)
			}
		case strings.TrimSpace(line) == "":
		default:
			key, value, ok := strings.Cut(line, ":")
			if !ok {
				return nil, fmt.Errorf("line %d: want key: value", n+1)
			}
			value = strings.TrimSpace(value)
			switch key {
			case "pr":
				cur.PR = value
			case "file":
				cur.File = value
			case "package":
				cur.Package = value
			case "run":
				cur.Run = value
			case "why":
				cur.Why = value
			default:
				return nil, fmt.Errorf("line %d: unknown key %q", n+1, key)
			}
		}
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return ms, nil
}

// joinLines joins a section's lines, its trailing blank lines dropped.
func joinLines(lines []string) string {
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	return strings.Join(lines, "\n")
}

// mutate returns src with m's old text replaced by its new one, or an error
// when the old text does not occur exactly once.
func mutate(m mutant, src string) (string, error) {
	if n := strings.Count(src, m.Old); n != 1 {
		return "", fmt.Errorf("old text occurs %d times in %s, want exactly once", n, m.File)
	}
	return strings.Replace(src, m.Old, m.New, 1), nil
}

// replay runs m's test with m applied through an overlay written under
// scratch, and returns the verdict and, unless the mutant was killed, why.
func replay(m mutant, scratch string) (string, error) {
	src, err := os.ReadFile(m.File)
	if err != nil {
		return "ERROR", err
	}
	mutated, err := mutate(m, string(src))
	if err != nil {
		return "STALE", err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "ERROR", err
	}
	abs, err := filepath.Abs(m.File)
	if err != nil {
		return "ERROR", err
	}
	replacement := filepath.Join(scratch, filepath.Base(m.File))
	if err := os.WriteFile(replacement, []byte(mutated), 0o644); err != nil {
		return "ERROR", err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: replacement}})
	if err != nil {
		return "ERROR", err
	}
	overlayFile := filepath.Join(scratch, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		return "ERROR", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "test", "-overlay", overlayFile, "-count=1", "-run", "^("+m.Run+")$", m.Package)
	out, err := cmd.CombinedOutput()
	switch {
	case ctx.Err() != nil:
		return "TIMEOUT", fmt.Errorf("go test ran past %v", timeout)
	case err == nil:
		return "SURVIVED", fmt.Errorf("the test passes with the mutant in place; it was to catch this: %s", m.Why)
	case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
		return "NOBUILD", fmt.Errorf("the mutant does not build:\n%s", strings.TrimSpace(string(out)))
	case !strings.Contains(string(out), "--- FAIL") && !strings.Contains(string(out), "panic:"):
		return "ERROR", fmt.Errorf("go test failed without a failing test:\n%s", strings.TrimSpace(string(out)))
	}
	return "killed", nil
}
