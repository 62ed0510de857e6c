package testkit

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

// TestOnlyTestsImport: no package of the module, the benchmark's included,
// imports testkit outside its _test.go files.
func TestOnlyTestsImport(t *testing.T) {
	const self = "wsgossip/internal/testkit"
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatal(err)
	}
	checked := 0
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
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				t.Errorf("%s imports %s outside a test", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("checked only %d files under %s", checked, root)
	}
}

type budget struct {
	A float64 `json:"a_max_allocs"`
	B float64 `json:"b_max_allocs"`
}

// TestLoadBudgetFailsOnMissingField: a budget file lacking a field the
// struct names fails the test that loads it, even one whose value would be
// the zero a missing field leaves.
func TestLoadBudgetFailsOnMissingField(t *testing.T) {
	if Race {
		t.Skip("LoadBudget skips under the race detector")
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "testdata"), 0o755); err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)
	for _, c := range []struct {
		file string
		ok   bool
	}{
		{`{"comment": "x", "a_max_allocs": 0, "b_max_allocs": 2}`, true},
		{`{"a_max_allocs": 1}`, false},
		{`{"a_max_allocs": 1, "b_max_allocs": "2"}`, false},
		{`not json`, false},
	} {
		if err := os.WriteFile(filepath.Join(dir, "testdata", "alloc_budget.json"), []byte(c.file), 0o644); err != nil {
			t.Fatal(err)
		}
		ft := &fakeT{TB: t}
		func() {
			defer func() { _ = recover() }()
			LoadBudget[budget](ft)
		}()
		if ft.failed == c.ok {
			t.Errorf("LoadBudget(%s): failed %v", c.file, ft.failed)
		}
	}
}

// fakeT records a failure and stops the loader where testing.T would.
type fakeT struct {
	testing.TB
	failed bool
}

func (f *fakeT) Helper() {}
func (f *fakeT) Fatalf(string, ...any) {
	f.failed = true
	panic(f)
}
