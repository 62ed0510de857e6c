// Command loc prints, per package directory, the lines of Go code in its
// non-test files and, in a second column, in its _test.go files: every line
// a token other than a comment touches. Blank
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
// line per directory holding Go files, code lines then test lines, then the
// totals. A change that moves code between test and non-test files states
// both numbers.
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
	var total, totalTest int
	for _, dir := range dirs {
		code, test, files, err := countDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loc:", err)
			os.Exit(2)
		}
		if files == 0 {
			continue
		}
		total, totalTest = total+code, totalTest+test
		fmt.Printf("%6d %6d  %s\n", code, test, filepath.ToSlash(dir))
	}
	fmt.Printf("%6d %6d  total\n", total, totalTest)
}

// countDir returns the code lines of dir's non-test and of its _test.go Go
// files, and how many Go files it has.
func countDir(dir string) (code, test, files int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, 0, 0, err
		}
		n, err := count(name, src)
		if err != nil {
			return 0, 0, 0, err
		}
		if strings.HasSuffix(name, "_test.go") {
			test += n
		} else {
			code += n
		}
		files++
	}
	return code, test, files, nil
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
