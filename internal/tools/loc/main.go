// Command loc prints, per package directory, the lines of Go code in its
// non-test files: every line a token other than a comment touches. Blank
// lines and lines holding only comments do not count; a line of code with a
// trailing comment does, and so does every line of a multi-line string
// literal. This is the counting rule a simplicity change states its net
// size in, so the number is one anyone can rerun.
//
// Usage:
//
//	go run ./internal/tools/loc ./internal/... .
//
// An argument ending in /... is walked recursively (testdata directories
// are skipped); any other argument is one package directory. It prints one
// line per directory holding non-test Go files, then the total.
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./internal/...", "."}
	}
	var dirs []string
	for _, arg := range args {
		rest, ok := strings.CutSuffix(arg, "/...")
		if !ok {
			dirs = append(dirs, arg)
			continue
		}
		err := filepath.WalkDir(rest, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() {
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loc:", err)
			os.Exit(2)
		}
	}
	total := 0
	for _, dir := range dirs {
		n, files, err := countDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loc:", err)
			os.Exit(2)
		}
		if files == 0 {
			continue
		}
		total += n
		fmt.Printf("%6d  %s\n", n, filepath.ToSlash(dir))
	}
	fmt.Printf("%6d  total\n", total)
}

// countDir returns the code lines of dir's non-test Go files and how many
// such files it has.
func countDir(dir string) (lines, files int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, 0, err
		}
		n, err := count(name, src)
		if err != nil {
			return 0, 0, err
		}
		lines += n
		files++
	}
	return lines, files, nil
}

// count returns the lines of src that a token other than a comment touches.
func count(name string, src []byte) (int, error) {
	fset := token.NewFileSet()
	file := fset.AddFile(name, -1, len(src))
	var s scanner.Scanner
	var scanErr error
	s.Init(file, src, func(pos token.Position, msg string) {
		if scanErr == nil {
			scanErr = fmt.Errorf("%s: %s", pos, msg)
		}
	}, 0)
	code := make(map[int]bool)
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted at a line end, not written
		}
		text := lit
		if text == "" {
			text = tok.String()
		}
		first := file.Line(pos)
		last := file.Line(pos + token.Pos(len(text)) - 1)
		for l := first; l <= last; l++ {
			code[l] = true
		}
	}
	return len(code), scanErr
}
