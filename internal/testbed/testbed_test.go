package testbed

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyHarnessesImport: outside _test.go files, only the experiments and
// the simulator import the testbed; the product never builds on it.
func TestOnlyHarnessesImport(t *testing.T) {
	const self = "wsgossip/internal/testbed"
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatal(err)
	}
	allowed := []string{filepath.Join(root, "internal", "experiments"), filepath.Join(root, "cmd", "wsgossip-sim")}
	checked, importers := 0, 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != self {
				continue
			}
			importers++
			if dir := filepath.Dir(path); dir != allowed[0] && dir != allowed[1] {
				t.Errorf("%s imports %s outside a test", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 || importers == 0 {
		t.Fatalf("checked %d files under %s, %d importing the testbed", checked, root, importers)
	}
}
